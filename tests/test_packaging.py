"""Every console script that pyproject.toml declares resolves to a callable,
every Python file parses at the floor that requires-python declares, every
name that src/capfuse defines has a caller in the program, and every
parameter with a default has a call that sets it: in src/ or in bench/,
whose workloads are the program's traffic. A test is not a caller.
src/capfuse stays within its code-line budget, counted by code_lines, the
one count that ROADMAP's line figures use. Every snippet of tests/mutants.py
still occurs exactly once in its file."""

import ast
import importlib
import io
import re
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
# ROADMAP item 13: src/capfuse code lines once the pipeline is complete
SRC_LINE_BUDGET = 1526
# names with no caller yet, each with the ROADMAP item that will call it
AWAITING_TRAINING = {
    "clip_grad_norm": 1,
    "CheckpointError": 1,
    "write_captions": 1,
    "read_captions": 1,
    "detokenize": 1,
    "histogram_csv": 1,
    "mlm_masked_accuracy": 9,
    "aggregate_seeds": 12,
    "format_table": 12,
}
# parameters with a default that no call sets yet, each with the ROADMAP item
# whose caller will set it
AWAITING_SETTER = {
    "CaptionModel.step_logits(rng)": 1,
}


def test_every_declared_script_target_imports():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"script {name} points at {target}, which is not callable"


def python_floor() -> tuple[int, int]:
    """(3, N) of pyproject.toml's requires-python = ">=3.N"."""
    match = re.search(r'^requires-python = ">=3\.(\d+)"$', PYPROJECT.read_text(), re.M)
    return 3, int(match.group(1))


def parses_at(text: str, version: tuple[int, int]) -> bool:
    """Whether text parses as Python of the given (major, minor) grammar."""
    try:
        ast.parse(text, feature_version=version)
    except SyntaxError:
        return False
    return True


def test_every_python_file_parses_at_the_declared_floor():
    floor = python_floor()
    paths = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))
    assert len(paths) > 20
    assert [p.relative_to(ROOT) for p in paths if not parses_at(p.read_text(), floor)] == []


def test_the_floor_check_rejects_syntax_newer_than_the_floor():
    snippet = "try:\n    pass\nexcept* ValueError:\n    pass\n"  # from Python 3.11
    assert parses_at(snippet, (3, 11)) and not parses_at(snippet, python_floor())


def definitions(tree: ast.Module):
    """(qualified name, node) of each top-level function and class, and of
    each public method of a top-level class, as Class.method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def dead_names() -> set[str]:
    """Names of definitions() in src/capfuse whose last part, as a whole
    word, appears nowhere in src/ or bench/ outside their own definition."""
    sources = {p: p.read_text() for d in ("src", "bench")
               for p in sorted((ROOT / d).rglob("*.py"))}
    dead = set()
    for path in sorted((ROOT / "src" / "capfuse").glob("*.py")):
        lines = sources[path].splitlines(keepends=True)
        for name, node in definitions(ast.parse(sources[path])):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            outside = "".join(lines[:first - 1] + lines[node.end_lineno:])
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if not word.search(outside) and not any(
                    word.search(text) for p, text in sources.items() if p != path):
                dead.add(name)
    return dead


def test_every_name_has_a_caller_in_src_or_bench():
    assert dead_names() == set(AWAITING_TRAINING)


def options(tree: ast.Module):
    """(callee name, leading parameters that a call does not pass, parameter
    lists, label) of each top-level function (none) and of each method of a
    top-level class (one: self or cls). A call of the class is the call of
    its __init__."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, 0, node.args, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    callee = node.name if item.name == "__init__" else item.name
                    yield callee, 1, item.args, f"{node.name}.{item.name}"


def unset_options() -> set[str]:
    """Each parameter with a default, as name(parameter), of options() in
    src/capfuse that no call in src/ or bench/ to a callee of its name
    passes, by keyword or by position; a call with *args or **kwargs passes
    every parameter. Fields of config dataclasses are not parameters here."""
    calls = {}
    for path in sorted(p for d in ("src", "bench") for p in (ROOT / d).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    unset = set()
    for path in sorted((ROOT / "src" / "capfuse").glob("*.py")):
        for callee, skip, args, label in options(ast.parse(path.read_text())):
            positional = [a.arg for a in args.posonlyargs + args.args][skip:]
            defaulted = positional[len(positional) - len(args.defaults):] + [
                a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            for param in defaulted:
                if not any(any(isinstance(a, ast.Starred) for a in call.args)
                           or any(k.arg in (None, param) for k in call.keywords)
                           or param in positional[:len(call.args)]
                           for call in calls.get(callee, [])):
                    unset.add(f"{label}({param})")
    return unset


def test_every_option_is_set_in_src_or_bench():
    assert unset_options() == set(AWAITING_SETTER)


# tokens that are not code: comments, line breaks and indentation
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path) -> int:
    """Code lines of a Python file: lines on which a token other than a
    comment or a line break starts, runs or ends, less the lines of
    docstrings (a string that opens a module, class or function body). Blank
    lines, comments and docstrings do not count; every line of a multi-line
    statement or string that holds a token does."""
    text = Path(path).read_text()
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


SNIPPET = '''"""Module docstring
over two lines."""

import os  # a comment

# a comment line


def f(a,
      b):
    """One-line docstring."""
    return [a,

            b]


class C:
    """Class
    docstring."""
    x = """a string
that is not a docstring"""
'''


def test_code_lines_skip_blanks_comments_and_docstrings(tmp_path):
    path = tmp_path / "snippet.py"
    path.write_text(SNIPPET)
    # import, the two lines of def, the return's two lines with a token, the
    # class line and the two lines of the assignment
    assert code_lines(path) == 8


def test_src_stays_within_the_item_13_line_budget():
    assert sum(map(code_lines, (ROOT / "src" / "capfuse").glob("*.py"))) <= SRC_LINE_BUDGET


def test_every_mutant_snippet_occurs_once_in_its_file():
    # tests/mutants.py runs each mutant's tests on a patched copy of the tree
    # (about 30 s, so not here); this keeps its snippets from going stale
    from mutants import MUTANTS

    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    assert {m.name: (ROOT / m.file).read_text().count(m.snippet) for m in MUTANTS} == \
        {m.name: 1 for m in MUTANTS}
