"""Checked-in mutants: deliberate faults in fast paths that the tests must catch.

Each mutant names a file, a snippet that occurs in it exactly once, the
replacement that breaks it, the test selector (pytest arguments) that must
then fail, and why the fault matters. Run from the repository root:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

For each mutant the runner copies src/, tests/ and pyproject.toml to a
temporary directory, applies the replacement there, and runs its selector with
pytest; a mutant whose selector still passes survives. Each selector first runs
once on the unmutated copy and must pass. The script prints one line per
mutant and exits 1 if any survives. It takes about 30 s on 2 cores, so Tier-1
only checks that every snippet still occurs exactly once (tests/test_packaging.py).
"""

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
AUTODIFF, EVALUATION = "src/capfuse/autodiff.py", "src/capfuse/evaluation.py"
LSTM_TESTS = ("tests/test_autodiff.py", "tests/test_models.py", "-k", "LstmSeq or LayerMajor")
EDIT_TESTS = ("tests/test_evaluation.py", "-k", "edit")
ROUGE_TESTS = ("tests/test_evaluation.py", "-k", "rouge or lcs or compute_metrics")


class Mutant(NamedTuple):
    name: str
    file: str
    snippet: str
    replacement: str
    selector: tuple
    reason: str


MUTANTS = [
    Mutant("lstm_seq_one_row_projection", AUTODIFF,
           "xp = xd[packed] if len(packed) != 1 else xd[:2]", "xp = xd[packed]", LSTM_TESTS,
           "a lone stepped row is projected by the one-row BLAS kernel and moves by ulps"),
    Mutant("lstm_seq_wh_rows_off_by_one", AUTODIFF,
           "hs[packed[first:] - batch]", "hs[packed[first:] - batch + 1]", LSTM_TESTS,
           "Wh's gradient pairs a step's gates with the wrong previous state"),
    Mutant("lstm_seq_b_grad_skips_a_row", AUTODIFF,
           "b._accum(dzp.sum(axis=0))", "b._accum(dzp[1:].sum(axis=0))", LSTM_TESTS,
           "b's gradient drops the first packed row"),
    Mutant("lstm_seq_input_grad_not_scattered", AUTODIFF,
           "dx[packed] = dzp @ wx.data.T", "dx[:len(packed)] = dzp @ wx.data.T", LSTM_TESTS,
           "the input's gradient lands on the leading rows, not on the stepped ones"),
    Mutant("token_edits_no_shift_in", EVALUATION,
           "hp = (vn | (full ^ (d0 | vp))) << 1 | 1", "hp = (vn | (full ^ (d0 | vp))) << 1",
           EDIT_TESTS, "row 0's +1 is not shifted into HP, so every column is off"),
    Mutant("token_edits_no_substitution", EVALUATION,
           "elif sub & row:", "elif sub & row & 0:", EDIT_TESTS,
           "the backtrace never reports a substitution"),
    Mutant("token_edits_64_bit_vp", EVALUATION,
           "vp = (hn | ~(d0 | hp)) & full", "vp = (hn | ~(d0 | hp)) & full & (1 << 64) - 1",
           EDIT_TESTS, "drafts past 64 tokens lose their high rows"),
    Mutant("apply_edits_no_old_check", EVALUATION,
           " or op.kind != \"ins\" and op.old != draft[op.pos]:", ":", EDIT_TESTS,
           "a substitution or delete of another token replays silently"),
    Mutant("apply_edits_no_order_check", EVALUATION,
           "first = op.pos + (op.kind != \"ins\")", "first = 0", EDIT_TESTS,
           "ops out of draft order replay silently"),
    Mutant("pair_lcs_no_carry_ripple", EVALUATION,
           "s[w + 1] += carry", "s[w + 1] += False", ROUGE_TESTS,
           "the sum's carry never crosses a 64-bit word"),
    Mutant("pair_lcs_no_carry_in_wrap", EVALUATION,
           "carry = (s[w] < v[w]) | carry & (s[w] == v[w])", "carry = s[w] < v[w]", ROUGE_TESTS,
           "a carry that wraps a word to exactly v is lost"),
    Mutant("pair_lcs_no_final_mask", EVALUATION,
           "v = np.bitwise_and(full, ~v, out=v)", "v = np.invert(v, out=v)", ROUGE_TESTS,
           "bits past the hypothesis' end count toward the LCS"),
    Mutant("pair_lcs_no_subtract", EVALUATION,
           "v ^= u  # v - u", "pass  # v - u", ROUGE_TESTS,
           "v keeps the bits it should lose at a match"),
]


def passes(tree: Path, selector) -> bool:
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *selector]
    return subprocess.run(cmd, cwd=tree, capture_output=True).returncode == 0


def copy_tree(dest: Path) -> Path:
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", dest)
    return dest


def survives(mutant: Mutant) -> bool:
    with tempfile.TemporaryDirectory() as tmp:
        path = copy_tree(Path(tmp)) / mutant.file
        text = path.read_text()
        if text.count(mutant.snippet) != 1:
            raise SystemExit(f"{mutant.name}: snippet does not occur exactly once")
        path.write_text(text.replace(mutant.snippet, mutant.replacement))
        return passes(Path(tmp), mutant.selector)


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    with tempfile.TemporaryDirectory() as tmp:
        clean = copy_tree(Path(tmp))
        for selector in dict.fromkeys(m.selector for m in chosen):
            if not passes(clean, selector):
                raise SystemExit(f"the unmutated tree fails {' '.join(selector)}")
    survivors = [m for m in chosen if survives(m)]
    for m in chosen:
        print(f"{'SURVIVED' if m in survivors else 'killed  '} {m.name}: {m.reason}")
    print(f"{len(survivors)} of {len(chosen)} mutants survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
