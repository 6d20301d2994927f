"""Every console script that pyproject.toml declares resolves to a callable,
and every top-level function and class of the package has a user."""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
# defined for the caption-model training pipeline, which does not exist yet
AWAITING_TRAINING = {"clip_grad_norm", "CaptionDataset", "CheckpointError"}


def test_every_declared_script_target_imports():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"script {name} points at {target}, which is not callable"


def dead_names() -> set[str]:
    """Top-level defs and classes of src/capfuse whose name, as a whole word,
    appears nowhere in src/, tests/ or bench/ outside their own definition
    (this file, which lists the allowed ones, is not read)."""
    sources = {p: p.read_text() for d in ("src", "tests", "bench")
               for p in sorted((ROOT / d).rglob("*.py")) if p != Path(__file__).resolve()}
    dead = set()
    for path in sorted((ROOT / "src" / "capfuse").glob("*.py")):
        lines = sources[path].splitlines(keepends=True)
        for node in ast.parse(sources[path]).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            outside = "".join(lines[:first - 1] + lines[node.end_lineno:])
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if not word.search(outside) and not any(
                    word.search(text) for p, text in sources.items() if p != path):
                dead.add(node.name)
    return dead


def test_every_top_level_name_has_a_user():
    assert dead_names() == AWAITING_TRAINING
