"""Corpus caption metrics and token-level edit analysis.

Implements corpus BLEU-1..4 with clipped counts and the closest-reference
brevity penalty, ROUGE-L as an LCS F-measure, and the CIDEr-D consensus
scorer (tf-idf n-gram cosine with count clipping and a Gaussian length
penalty). Every scorer has an independent brute-force twin in the test suite.

The metrics are the standard ones, with their constants fixed: BLEU up to
order MAX_N = 4, unsmoothed (K. Papineni et al., "BLEU: a method for automatic
evaluation of machine translation", ACL 2002); ROUGE-L with ROUGE_BETA = 1.2
(C.-Y. Lin, "ROUGE: a package for automatic evaluation of summaries", 2004);
CIDEr-D over n-grams of orders n <= MAX_N with the length penalty's
CIDER_SIGMA = 6 (R. Vedantam et al., "CIDEr: consensus-based image description
evaluation", arXiv:1411.5726).

BLEU and CIDEr-D read one n-gram index per corpus (`_NgramIndex`): each
distinct caption's n-grams of orders 1-4 are counted once, and each n-gram is
numbered once, so clipping and tf-idf dot products hash ints. CIDEr-D
computes each distinct caption's tf-idf vectors and norms once per corpus.
References repeat across hypotheses in a typical corpus (a scene's captions
serve each other as references), and each repeat costs one dict lookup.

ROUGE-L's LCS is bit-parallel over Python ints (L. Allison and T. I. Dix,
"A bit-string longest-common-subsequence algorithm", IPL 23(5), 1986;
H. Hyyro, "Bit-parallel LCS-length computation revisited", AWOCA 2004): one
big-int update per reference token instead of a row of the O(n*m) table.

token_edits keeps its table, since it needs the alignment, but drops the
longest shared suffix first: when the last tokens match, d(i, j) equals
d(i-1, j-1) and the backtrace takes that diagonal first, so the ops do not
change. A shared prefix is not dropped, because the backtrace runs from the
end and would place some ops differently ("a a" -> "a" deletes position 0,
not 1).

Scores for BLEU and ROUGE-L are reported on a 0-100 scale. cider() returns
the conventional 0-10 scale; reports multiply it by 10 so the printed table
uses the same x100-style convention as the other columns.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from .errors import InputError

Tokens = list[str]

MAX_N = 4  # n-gram orders of BLEU and CIDEr-D
ROUGE_BETA = 1.2  # recall weight of the ROUGE-L F-measure
CIDER_SIGMA = 6.0  # width of CIDEr-D's Gaussian length penalty


def _check_corpus(hypotheses: list[Tokens], references: list[list[Tokens]],
                  metric: str):
    if not hypotheses:
        raise InputError(f"{metric} needs a non-empty corpus")
    if len(hypotheses) != len(references):
        raise InputError("hypothesis and reference lists differ in length")
    if any(not refs for refs in references):
        raise InputError("every hypothesis needs at least one reference")


class _NgramIndex:
    """N-gram counts of orders 1..MAX_N for the captions of one corpus.

    Each distinct token list is counted once, on first request, and kept
    under its tuple. Each n-gram gets an int id the first time it is seen, so
    BLEU clipping and CIDEr-D dot products hash ints, not tuples of strings.
    """

    def __init__(self):
        self._ids: dict[tuple[str, ...], int] = {}
        self._counts: dict[tuple[str, ...], list[dict[int, int]]] = {}

    def counts(self, tokens: Tokens) -> list[dict[int, int]]:
        """One dict per order 1..MAX_N: n-gram id -> count in `tokens`."""
        key = tuple(tokens)
        found = self._counts.get(key)
        if found is None:
            ids = self._ids
            found = []
            for n in range(1, MAX_N + 1):
                order: dict[int, int] = {}
                for i in range(len(key) - n + 1):
                    gram = ids.setdefault(key[i:i + n], len(ids))
                    order[gram] = order.get(gram, 0) + 1
                found.append(order)
            self._counts[key] = found
        return found


# -- BLEU ----------------------------------------------------------------------


def bleu_all(hypotheses: list[Tokens], references: list[list[Tokens]], *,
             index: _NgramIndex | None = None) -> list[float]:
    """Corpus BLEU for every order 1..MAX_N, on a 0-100 scale.

    Clipped n-gram counts are pooled over the corpus; the brevity penalty uses
    the closest reference length per hypothesis (ties going to the shorter).
    An order with no match scores 0, and so does every order above it.
    `index` shares n-gram counts with other metrics of the same corpus.
    """
    _check_corpus(hypotheses, references, "BLEU")
    if index is None:
        index = _NgramIndex()
    matched = [0] * MAX_N
    total = [0] * MAX_N
    hyp_len = 0
    ref_len = 0
    for hyp, refs in zip(hypotheses, references):
        hyp_len += len(hyp)
        ref_len += min((abs(len(r) - len(hyp)), len(r)) for r in refs)[1]
        ref_counts = [index.counts(r) for r in refs]
        for n, counts in enumerate(index.counts(hyp)):
            per_ref = [rc[n] for rc in ref_counts]
            for gram, c in counts.items():
                best = 0
                for rc in per_ref:
                    r = rc.get(gram, 0)
                    if r > best:
                        best = r
                matched[n] += c if c < best else best
            total[n] += max(0, len(hyp) - n)
    if hyp_len == 0:
        return [0.0] * MAX_N
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    scores = []
    for n in range(1, MAX_N + 1):
        log_sum = 0.0
        degenerate = False
        for k in range(n):
            m, t = matched[k], total[k]
            if m == 0 or t == 0:
                degenerate = True
                break
            log_sum += math.log(m / t)
        scores.append(0.0 if degenerate else 100.0 * bp * math.exp(log_sum / n))
    return scores


# -- ROUGE-L --------------------------------------------------------------------


def _symbol_masks(a: Tokens) -> dict[str, int]:
    """Token -> bitmask of its positions in `a` (bit i for a[i])."""
    masks: dict[str, int] = {}
    for i, x in enumerate(a):
        masks[x] = masks.get(x, 0) | (1 << i)
    return masks


def _lcs_length(a: Tokens, b: Tokens, masks: dict[str, int] | None = None) -> int:
    """LCS length of a and b, bit-parallel (see the module docstring).

    Bit i of v is cleared where a row of the LCS table steps up at a[i], so
    after all of b the clear bits of v count the LCS. `masks` is
    `_symbol_masks(a)`, when the caller already built it.
    """
    if masks is None:
        masks = _symbol_masks(a)
    full = (1 << len(a)) - 1
    v = full
    for y in b:
        m = masks.get(y)
        if m:
            u = v & m
            v = ((v + u) | (v - u)) & full
    return len(a) - v.bit_count()


def rouge_l_single(hypothesis: Tokens, references: list[Tokens]) -> float:
    """LCS F-measure, recall weighted by ROUGE_BETA, against the
    best-matching reference, 0-100 scale."""
    if not references:
        raise InputError("ROUGE-L needs at least one reference")
    masks = _symbol_masks(hypothesis)
    beta2 = ROUGE_BETA * ROUGE_BETA
    best = 0.0
    for ref in references:
        lcs = _lcs_length(hypothesis, ref, masks)
        if lcs == 0:
            continue
        p = lcs / len(hypothesis)
        r = lcs / len(ref)
        f = (1 + beta2) * p * r / (r + beta2 * p)
        best = max(best, f)
    return 100.0 * best


def rouge_l(hypotheses: list[Tokens], references: list[list[Tokens]]) -> float:
    """Corpus ROUGE-L: mean of the per-example scores."""
    _check_corpus(hypotheses, references, "ROUGE-L")
    return sum(rouge_l_single(h, r) for h, r in zip(hypotheses, references)) / len(hypotheses)


# -- CIDEr-D ---------------------------------------------------------------------


def cider(hypotheses: list[Tokens], references: list[list[Tokens]], *,
          index: _NgramIndex | None = None) -> float:
    """CIDEr-D on the conventional 0-10 scale.

    idf comes from the reference corpus (document = one example's reference
    set); per-reference similarity is the count-clipped tf-idf cosine per
    n-gram order, damped by a Gaussian penalty (width CIDER_SIGMA) on the
    length difference, averaged over orders 1..MAX_N and references, then
    scaled by 10. `index` shares n-gram counts with other metrics of the same
    corpus.
    """
    _check_corpus(hypotheses, references, "CIDEr")
    if len(hypotheses) < 2:
        raise InputError(
            "CIDEr needs at least 2 examples: with a single-document corpus "
            "every idf is log(1/1) = 0 and all vectors are degenerate"
        )
    if index is None:
        index = _NgramIndex()
    doc_freq: Counter = Counter()
    for refs in references:
        seen: set[int] = set()
        for ref in refs:
            for counts in index.counts(ref):
                seen.update(counts)
        doc_freq.update(seen)
    log_docs = math.log(len(references))
    idf = {gram: log_docs - math.log(df) for gram, df in doc_freq.items()}
    vectors: dict[tuple[str, ...], tuple[list[dict[int, float]], list[float]]] = {}

    def tfidf(tokens: Tokens):
        key = tuple(tokens)
        found = vectors.get(key)
        if found is None:
            vecs = [{gram: c * idf.get(gram, log_docs) for gram, c in counts.items()}
                    for counts in index.counts(tokens)]
            norms = [math.sqrt(sum(v * v for v in vec.values())) for vec in vecs]
            found = vectors[key] = (vecs, norms)
        return found

    scores = []
    for hyp, refs in zip(hypotheses, references):
        h_vecs, h_norms = tfidf(hyp)
        total = 0.0
        for ref in refs:
            r_vecs, r_norms = tfidf(ref)
            delta = float(len(hyp) - len(ref))
            penalty = math.exp(-(delta * delta) / (2.0 * CIDER_SIGMA * CIDER_SIGMA))
            sim_sum = 0.0
            for h_vec, h_norm, r_vec, r_norm in zip(h_vecs, h_norms, r_vecs, r_norms):
                if h_norm == 0.0 or r_norm == 0.0:
                    continue
                # summed in the hypothesis' n-gram order, so the ids an
                # index hands out cannot change the rounding
                dot = 0.0
                for gram, h_val in h_vec.items():
                    r_val = r_vec.get(gram)
                    if r_val is not None:
                        dot += (h_val if h_val < r_val else r_val) * r_val
                sim_sum += penalty * dot / (h_norm * r_norm)
            total += sim_sum / MAX_N
        scores.append(10.0 * total / len(refs))
    return sum(scores) / len(scores)


# -- token edit analysis ------------------------------------------------------------


@dataclass
class EditOp:
    kind: str  # "sub" | "ins" | "del"
    pos: int   # index in the draft (for ins: insert before this index)
    old: str | None = None
    new: str | None = None


@dataclass
class EditRecord:
    example_id: str
    draft: Tokens
    emended: Tokens
    count: int
    ops: list[EditOp]


def token_edits(draft: Tokens, emended: Tokens, example_id: str = "") -> EditRecord:
    """Token-level Levenshtein alignment with unit costs.

    On cost ties the backtrace prefers substitution over delete+insert, so a
    one-word change reports as a single substitution at its position. The
    shared suffix is trimmed before the table is built (see the module
    docstring).
    """
    m, n = len(draft), len(emended)
    while m and n and draft[m - 1] == emended[n - 1]:
        m, n = m - 1, n - 1
    dist = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        dist[i][0] = i
    for j in range(n + 1):
        dist[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            if draft[i - 1] == emended[j - 1]:
                dist[i][j] = dist[i - 1][j - 1]
            else:
                dist[i][j] = 1 + min(dist[i - 1][j - 1], dist[i - 1][j], dist[i][j - 1])
    ops: list[EditOp] = []
    i, j = m, n
    while i > 0 or j > 0:
        if i > 0 and j > 0 and draft[i - 1] == emended[j - 1] \
                and dist[i][j] == dist[i - 1][j - 1]:
            i, j = i - 1, j - 1
        elif i > 0 and j > 0 and dist[i][j] == dist[i - 1][j - 1] + 1:
            ops.append(EditOp("sub", i - 1, draft[i - 1], emended[j - 1]))
            i, j = i - 1, j - 1
        elif i > 0 and dist[i][j] == dist[i - 1][j] + 1:
            ops.append(EditOp("del", i - 1, draft[i - 1]))
            i -= 1
        else:
            ops.append(EditOp("ins", i, new=emended[j - 1]))
            j -= 1
    ops.reverse()
    return EditRecord(example_id, list(draft), list(emended), dist[m][n], ops)


def apply_edits(draft: Tokens, ops: list[EditOp]) -> Tokens:
    """Replay an op list against the draft (ops carry draft-side indices)."""
    out = list(draft)
    shift = 0
    for op in ops:
        pos = op.pos + shift
        if op.kind == "sub":
            out[pos] = op.new
        elif op.kind == "del":
            del out[pos]
            shift -= 1
        else:
            out.insert(pos, op.new)
            shift += 1
    return out


def edit_histogram(records: list[EditRecord]) -> tuple[dict[int, int], int]:
    """Frequency table over positive edit counts, plus the unchanged tally."""
    hist: dict[int, int] = {}
    unchanged = 0
    for rec in records:
        if rec.count == 0:
            unchanged += 1
        else:
            hist[rec.count] = hist.get(rec.count, 0) + 1
    return dict(sorted(hist.items())), unchanged


def histogram_csv(hist: dict[int, int], unchanged: int) -> str:
    lines = ["edit_count,frequency"]
    lines += [f"{k},{v}" for k, v in sorted(hist.items())]
    lines.append(f"unchanged,{unchanged}")
    return "\n".join(lines) + "\n"


# -- reports ----------------------------------------------------------------------


@dataclass
class MetricsReport:
    """Corpus scores in reported units (BLEU/ROUGE x100, CIDEr x10 of the
    0-10 scale so every column follows the same convention)."""

    counts: int
    bleu: list[float]          # orders 1..4
    rouge_l: float
    cider: float
    per_seed: list["MetricsReport"] = field(default_factory=list)

    def to_dict(self) -> dict:
        out = {
            "counts": self.counts,
            "bleu_1": self.bleu[0], "bleu_2": self.bleu[1],
            "bleu_3": self.bleu[2], "bleu_4": self.bleu[3],
            "rouge_l": self.rouge_l, "cider": self.cider,
        }
        if self.per_seed:
            out["per_seed"] = [r.to_dict() for r in self.per_seed]
        return out


def compute_metrics(hypotheses: list[Tokens],
                    references: list[list[Tokens]]) -> MetricsReport:
    """BLEU-1..4, ROUGE-L and CIDEr-D; BLEU and CIDEr-D share one index."""
    index = _NgramIndex()
    return MetricsReport(
        counts=len(hypotheses),
        bleu=bleu_all(hypotheses, references, index=index),
        rouge_l=rouge_l(hypotheses, references),
        cider=10.0 * cider(hypotheses, references, index=index),
    )


def aggregate_seeds(reports: list[MetricsReport]) -> MetricsReport:
    """Arithmetic mean per metric; the input reports are kept per seed."""
    if not reports:
        raise InputError("nothing to aggregate")
    if len({r.counts for r in reports}) != 1:
        raise InputError("per-seed reports cover different corpus sizes")
    k = len(reports)
    return MetricsReport(
        counts=reports[0].counts,
        bleu=[sum(r.bleu[i] for r in reports) / k for i in range(4)],
        rouge_l=sum(r.rouge_l for r in reports) / k,
        cider=sum(r.cider for r in reports) / k,
        per_seed=list(reports),
    )


def format_table(rows: dict[str, MetricsReport]) -> str:
    """Aligned table, one row per model label (CIDEr follows the x100-style
    convention: ten times the conventional 0-10 scale)."""
    header = f"{'model':<8}{'B-1':>8}{'B-2':>8}{'B-3':>8}{'B-4':>8}{'R-L':>8}{'C':>8}"
    lines = [header]
    for label, rep in rows.items():
        cells = rep.bleu + [rep.rouge_l, rep.cider]
        lines.append(f"{label:<8}" + "".join(f"{c:>8.1f}" for c in cells))
    return "\n".join(lines) + "\n"
