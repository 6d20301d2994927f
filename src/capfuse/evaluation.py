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

BLEU, ROUGE-L and CIDEr-D read one index per corpus (`NgramIndex`), which
checks the corpus once and is built once, by the first of them to read it.
It numbers each distinct caption once and each word once, and keeps the word
ids of every caption, which ROUGE-L reads. It numbers the n-grams of each
order 2..MAX_N by one sort of (id of the (n-1)-gram, next word), so the ids
stay dense for any vocabulary size. Its table holds one (caption, order,
n-gram, count) entry per distinct n-gram of each caption, and one
`searchsorted` over a sorted (caption, n-gram) key array answers how often
each reference holds each n-gram of its hypothesis: one lookup per
(hypothesis n-gram, reference) pair, by n-gram, then reference. BLEU's
clipped counts are integer sums of those lookups, so they are exact.

CIDEr-D sums floats, and a float sum depends on its order, so every sum
follows each caption's first-occurrence order: within a caption and order,
the table lists n-grams in the order they first occur, and norms, dot
products and per-hypothesis totals are `np.bincount(..., weights=...)` sums,
which add in input order. Each sum therefore equals the sequential sum of a
loop over the caption's n-grams as they are read, whatever ids the index
hands out; an n-gram absent from a reference adds +0.0, which changes nothing.
idf and the length penalty are taken with `math.log` and `math.exp`, once per
distinct document frequency and length difference, because numpy's may differ
from them in the last bit.

ROUGE-L's LCS is bit-parallel (L. Allison and T. I. Dix, "A bit-string
longest-common-subsequence algorithm", IPL 23(5), 1986; H. Hyyro,
"Bit-parallel LCS-length computation revisited", AWOCA 2004), for every
(hypothesis, reference) pair at once: one vectorised update per reference
position instead of a row of the O(n*m) table per pair. A uint64 table
holds the bitmask of each corpus word's positions in each distinct
hypothesis: (distinct hypotheses) x (corpus words + 1) x ceil(longest
hypothesis / 64) words, about 30 KB for the 100 hypotheses of a `score`
operation. Every pair gathers the masks of its reference's words. Update j
sets v = (v + u) | (v - u), with u = v & (mask of reference word j), for
every pair, over vectors of uint64 words whose carries ripple from word to
word. Each pair's F-measure, the maximum over a hypothesis' references and
the mean over hypotheses take the float operations of a loop over pairs in
its order; the mean adds in sequence (`np.cumsum`), so its bits do not
depend on the Python version.

token_edits computes the Levenshtein table d(i, j) (draft prefix i,
emended prefix j) one column per emended token, as bit-vectors over Python
ints (G. Myers, "A fast bit-vector algorithm for approximate string matching
based on dynamic programming", JACM 46(3), 1999; H. Hyyro, "A note on
bit-parallel alignment computation", PSC 2004). Bit i-1 of a word describes
row i. Column j reads its match word Eq (the draft positions of emended
token j) and the vertical deltas d(i, j-1) - d(i-1, j-1) of column j-1 as
VP (+1) and VN (-1). It derives D0, where d(i, j) = d(i-1, j-1), then the
horizontal deltas d(i, j) - d(i, j-1) as HP and HN, with row 0's delta +1
shifted in because d(0, j) = j, and then column j's own VP and VN. The
distance is n + popcount(VP) - popcount(VN) of the last column.

The backtrace is the table's, read from the bits: from (m, n) it takes a
match where Eq is set, else a substitution where D0 is clear, else a delete
where VP is set, else an insert; those are exactly the table's tests
d(i, j) = d(i-1, j-1), d(i-1, j-1) + 1, d(i-1, j) + 1, so the forward
pass keeps Eq, the complement of D0 and VP of each column. Every op lowers
d by 1 and every match by 0, so d at the current cell is the distance less
the ops taken; once it is 0 the two prefixes are equal and the table's
backtrace takes only matches, so the walk stops there. The longest shared
suffix is dropped first: when the last tokens match, the backtrace takes
that diagonal first, so the ops do not change. A shared prefix is not
dropped, because the backtrace runs from the end and would place some ops
differently ("a a" -> "a" deletes position 0, not 1).

Scores for BLEU and ROUGE-L are reported on a 0-100 scale. cider() returns
the conventional 0-10 scale; reports multiply it by 10 so the printed table
uses the same x100-style convention as the other columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import InputError

Tokens = list[str]

MAX_N = 4  # n-gram orders of BLEU and CIDEr-D
ROUGE_BETA = 1.2  # recall weight of the ROUGE-L F-measure
CIDER_SIGMA = 6.0  # width of CIDEr-D's Gaussian length penalty


def _check_corpus(hypotheses: list[Tokens], references: list[list[Tokens]]):
    if not hypotheses:
        raise InputError("a corpus metric needs a non-empty corpus")
    if len(hypotheses) != len(references):
        raise InputError("hypothesis and reference lists differ in length")
    if any(not refs for refs in references):
        raise InputError("every hypothesis needs at least one reference")
    if any(isinstance(c, str) for c in chain(hypotheses, *references)):
        raise InputError("a caption is a list of tokens, not a str")


def _runs(ordered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and length of each run of equal values in `ordered`."""
    starts = np.flatnonzero(np.diff(ordered, prepend=ordered[:1] - 1))
    return starts, np.diff(starts, append=len(ordered))


def _dense(keys: np.ndarray) -> tuple[np.ndarray, int]:
    """Ids 0..k-1 that number the k distinct values of `keys`, and k."""
    order = np.argsort(keys)  # equal keys get one id, so their order is free
    starts, sizes = _runs(keys[order])
    ids = np.empty_like(order)
    ids[order] = np.repeat(np.arange(len(starts)), sizes)
    return ids, len(starts)


def _ranges(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The ranges starts[i] .. starts[i] + sizes[i] - 1, concatenated."""
    out = np.repeat(np.cumsum(sizes) - sizes - starts, sizes)
    return np.subtract(np.arange(len(out)), out, out=out)


def _occurrences(tokens: np.ndarray, n_words: int, length: np.ndarray):
    """Caption, order (0-based) and n-gram id of every n-gram occurrence, by
    caption, then order, then position; and the number of distinct n-grams.

    `tokens` holds the word ids 0..n_words-1 of the captions, concatenated.
    The (n+1)-grams of each order are numbered by one sort of (id of the
    n-gram, next word), so every key stays below (number of n-grams) x
    (number of words).
    """
    per_order = np.maximum(length[:, None] - np.arange(MAX_N), 0)
    occ_start = (np.cumsum(per_order) - per_order.ravel()).reshape(per_order.shape)
    occ_gram = np.empty(per_order.sum(), np.intp)
    # ids[p] numbers the n-gram that starts at position p; an order reads
    # only positions where the previous order's n-grams start
    ids, n_ids, n_grams = tokens.copy(), n_words, 0
    for n in range(MAX_N):
        pos = _ranges(np.cumsum(length) - length, per_order[:, n])
        if n:  # an (n+1)-gram is an n-gram and the word after it
            grams, n_ids = _dense(ids[pos] * n_words + tokens[pos + n])
            ids[pos] = grams
        occ_gram[_ranges(occ_start[:, n], per_order[:, n])] = n_grams + ids[pos]
        n_grams += n_ids
    occ_cap = np.repeat(np.arange(len(length)), per_order.sum(1))
    occ_order = np.repeat(np.tile(np.arange(MAX_N), len(length)), per_order.ravel())
    return occ_cap, occ_order, occ_gram, n_grams


class NgramIndex:
    """The n-grams of orders 1..MAX_N of one corpus, as arrays.

    The three corpus metrics are given the index, which checks the corpus
    when it is made. They read its arrays, and the first of them to call
    `built` builds it, so they share one build. Each distinct caption is
    numbered once, in order of first appearance, hypotheses first. A pair is
    one reference of one hypothesis, numbered in corpus order.

    `word` holds the word ids 0..n_words-1 of every caption, caption after
    caption. Per caption: `length`, `first_entry` and `n_entries`. Per
    hypothesis: `hyp_cap`, `n_refs`, and `pair_start`, its first pair. Per pair:
    `pair_hyp`, and `pair_ref`, the reference's caption. The table has one
    entry per distinct n-gram of each caption, grouped by caption, then
    order, then first occurrence: `order` (0-based), `gram`, `count`.
    `keys` holds caption x n_grams + gram of every entry, sorted, then a
    sentinel above them all. A row is one entry of a hypothesis: `row_entry`,
    with its hypothesis' `row_refs` and its first lookup `row_start`. A
    lookup is one row in one reference of its hypothesis, by row, then
    reference: `look_pair`, and `look_count`, the count of the row's n-gram
    in that reference.
    """

    def __init__(self, hypotheses: list[Tokens], references: list[list[Tokens]]):
        _check_corpus(hypotheses, references)
        self.hypotheses = hypotheses
        self.references = references
        self._built = False

    def built(self) -> NgramIndex:
        """This index, built on the first call."""
        if not self._built:
            self._look_up(self._build_table())
            self._built = True
        return self

    def _build_table(self) -> np.ndarray:
        """Number the captions, fill the table and `keys`, and return the
        count of each key (the sentinel's is 0)."""
        ids: dict[tuple[str, ...], int] = {}
        self.hyp_cap = np.array([ids.setdefault(tuple(h), len(ids)) for h in self.hypotheses],
                                np.intp)
        self.pair_ref = np.array([ids.setdefault(tuple(r), len(ids))
                                  for refs in self.references for r in refs], np.intp)
        self.n_refs = np.fromiter(map(len, self.references), np.intp, len(self.references))
        self.pair_hyp = np.repeat(np.arange(len(self.n_refs)), self.n_refs)
        self.pair_start = np.cumsum(self.n_refs) - self.n_refs
        self.length = np.fromiter(map(len, ids), np.intp, len(ids))
        words = {w: i for i, w in enumerate(dict.fromkeys(chain.from_iterable(ids)))}
        self.n_words = len(words)
        self.word = np.fromiter(map(words.__getitem__, chain.from_iterable(ids)), np.intp)
        occ_cap, occ_order, occ_gram, self.n_grams = _occurrences(self.word, self.n_words,
                                                                  self.length)
        # one entry per distinct (caption, n-gram), at its first occurrence
        keys = occ_cap * self.n_grams + occ_gram
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        starts, key_count = _runs(keys)
        count_at = np.zeros(len(keys), np.intp)
        count_at[order[starts]] = key_count
        entry = np.flatnonzero(count_at)
        self.count = count_at[entry]
        self.gram = occ_gram[entry]
        self.order = occ_order[entry]
        self.n_entries = np.bincount(occ_cap[entry], minlength=len(ids))
        self.first_entry = np.cumsum(self.n_entries) - self.n_entries
        self.keys = np.append(keys[starts], np.iinfo(np.intp).max)
        return np.append(key_count, 0)

    def _look_up(self, key_count: np.ndarray):
        """Count each hypothesis entry in each reference of its hypothesis."""
        hyp_entries = self.n_entries[self.hyp_cap]
        self.row_entry = _ranges(self.first_entry[self.hyp_cap], hyp_entries)
        self.row_refs = np.repeat(self.n_refs, hyp_entries)
        self.row_start = np.cumsum(self.row_refs) - self.row_refs
        self.look_pair = _ranges(np.repeat(self.pair_start, hyp_entries), self.row_refs)
        query = self.pair_ref[self.look_pair] * self.n_grams
        query += np.repeat(self.gram[self.row_entry], self.row_refs)
        at = np.searchsorted(self.keys, query)  # the first key >= query
        self.look_count = key_count[at]
        self.look_count[self.keys[at] != query] = 0  # the reference lacks the n-gram


# -- BLEU ----------------------------------------------------------------------


def bleu_all(index: NgramIndex) -> list[float]:
    """Corpus BLEU for every order 1..MAX_N, on a 0-100 scale.

    Clipped n-gram counts are pooled over the corpus; the brevity penalty uses
    the closest reference length per hypothesis (ties going to the shorter).
    An order with no match scores 0, and so does every order above it.
    """
    ix = index.built()
    lengths, ref_lengths = ix.length[ix.hyp_cap], ix.length[ix.pair_ref]
    # the closest reference length, ties to the shorter: the least (gap^2, length)
    span = int(ix.length.max()) + 1
    gap = ref_lengths - lengths[ix.pair_hyp]
    closest = gap * gap * span + ref_lengths
    ref_len = int((np.minimum.reduceat(closest, ix.pair_start) % span).sum())
    hyp_len = int(lengths.sum())
    if hyp_len == 0:
        return [0.0] * MAX_N
    clipped = np.minimum(ix.count[ix.row_entry], np.maximum.reduceat(ix.look_count, ix.row_start))
    matched = np.bincount(ix.order[ix.row_entry], weights=clipped, minlength=MAX_N)
    total = np.maximum(lengths[:, None] - np.arange(MAX_N), 0).sum(0)
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    scores, log_sum = [], 0.0
    for m, t in zip(matched.astype(int).tolist(), total.tolist()):
        if m == 0 or t == 0:
            return scores + [0.0] * (MAX_N - len(scores))
        log_sum += math.log(m / t)
        scores.append(100.0 * bp * math.exp(log_sum / (len(scores) + 1)))
    return scores


# -- ROUGE-L --------------------------------------------------------------------


_LOW_BITS = np.array([(1 << b) - 1 for b in range(65)], np.uint64)  # the b lowest bits set
_POPCOUNT = np.array([b.bit_count() for b in range(256)], np.intp)  # per byte


def _pair_lcs(ix: NgramIndex) -> np.ndarray:
    """LCS length of every pair, bit-parallel, all pairs at once (see the
    module docstring).

    Bit i of a pair's v is cleared where a row of the LCS table steps up at
    word i of the hypothesis, so after the whole reference the clear bits of
    v count the LCS. Bit vectors are n_w uint64 words, n_w = ceil(longest
    hypothesis / 64), least significant first.
    """
    n_hyps = int(ix.hyp_cap.max()) + 1  # distinct hypotheses are numbered first
    n_caps, cols = len(ix.length), ix.n_words + 1  # column n_words stays 0
    cap = np.repeat(np.arange(n_caps), ix.length)  # per corpus word: its caption
    bit = _ranges(np.zeros_like(ix.length), ix.length)  # and its place there
    # table[w, hypothesis x cols + word]: word w of the word's positions in the
    # hypothesis; a caption's bits are distinct, so adding them sets them
    hyp_words = slice(int(ix.length[:n_hyps].sum()))
    n_w = (int(ix.length[:n_hyps].max()) + 63) // 64
    table = np.zeros((n_w, n_hyps * cols), np.uint64)
    np.add.at(table, (bit[hyp_words] // 64, cap[hyp_words] * cols + ix.word[hyp_words]),
              np.uint64(1) << (bit[hyp_words] % 64).astype(np.uint64))
    # masks[w, j, pair]: the table entry of the reference's word j, 0 past its end
    span = int(ix.length.max())
    padded = np.full((n_caps, span), ix.n_words)
    padded.ravel()[cap * span + bit] = ix.word
    hyp = ix.hyp_cap[ix.pair_hyp]
    ref_words = padded[ix.pair_ref, :int(ix.length[ix.pair_ref].max())].T
    masks = table[:, ref_words + hyp * cols]
    full = _LOW_BITS[np.clip(ix.length[hyp] - 64 * np.arange(n_w)[:, None], 0, 64)]
    v, u, s = full.copy(), np.empty_like(full), np.empty_like(full)
    for m in masks.transpose(1, 0, 2):
        np.bitwise_and(v, m, out=u)
        np.add(v, u, out=s)
        carry = False  # out of word w: its sum wrapped below v, or the carry in made it v
        for w in range(n_w - 1):
            carry = (s[w] < v[w]) | carry & (s[w] == v[w])
            s[w + 1] += carry
        v ^= u  # v - u, as u is a subset of v
        v |= s  # a carry past the hypothesis' end sets bits that `full` drops
    v = np.bitwise_and(full, ~v, out=v)
    return _POPCOUNT[v.view(np.uint8)].reshape(n_w, len(hyp), 8).sum((0, 2))


def rouge_l(index: NgramIndex) -> float:
    """Corpus ROUGE-L: the mean over hypotheses of the LCS F-measure, recall
    weighted by ROUGE_BETA, against the best-matching reference, 0-100
    scale. A pair with no common word scores 0."""
    ix = index.built()
    lcs = _pair_lcs(ix)
    hit = np.flatnonzero(lcs)
    p = lcs[hit] / ix.length[ix.hyp_cap[ix.pair_hyp[hit]]]
    r = lcs[hit] / ix.length[ix.pair_ref[hit]]
    beta2 = ROUGE_BETA * ROUGE_BETA
    f = np.zeros(len(lcs))
    f[hit] = (1 + beta2) * p * r / (r + beta2 * p)
    scores = 100.0 * np.maximum.reduceat(f, ix.pair_start)
    # cumsum adds in sequence; builtin sum is compensated from Python 3.12 on
    return float(np.cumsum(scores)[-1]) / len(scores)


# -- CIDEr-D ---------------------------------------------------------------------


def _document_frequency(ix: NgramIndex) -> np.ndarray:
    """Per n-gram, the number of examples whose references hold it: a count
    of the distinct (example, n-gram) pairs of the references."""
    # keys are caption x n_grams + gram; the shift turns caption into example
    ref_entries = ix.n_entries[ix.pair_ref]
    docs = ix.keys[_ranges(ix.first_entry[ix.pair_ref], ref_entries)]
    docs += np.repeat((ix.pair_hyp - ix.pair_ref) * ix.n_grams, ref_entries)
    docs.sort()
    return np.bincount(docs[_runs(docs)[0]] % ix.n_grams, minlength=ix.n_grams)


def cider(index: NgramIndex) -> float:
    """CIDEr-D on the conventional 0-10 scale.

    idf comes from the reference corpus (document = one example's reference
    set); per-reference similarity is the count-clipped tf-idf cosine per
    n-gram order, damped by a Gaussian penalty (width CIDER_SIGMA) on the
    length difference, averaged over orders 1..MAX_N and references, then
    scaled by 10.
    """
    n_examples = len(index.references)
    if n_examples < 2:
        raise InputError(
            "CIDEr needs at least 2 examples: with a single-document corpus "
            "every idf is log(1/1) = 0 and all vectors are degenerate"
        )
    ix = index.built()
    log_docs = math.log(n_examples)
    idf = np.array([log_docs] + [log_docs - math.log(df) for df in range(1, n_examples + 1)])
    idf = idf[_document_frequency(ix)]
    vec = ix.count * idf[ix.gram]
    n_caps, n_pairs = len(ix.length), len(ix.pair_ref)
    norms = np.sqrt(np.bincount(np.repeat(np.arange(n_caps) * MAX_N, ix.n_entries) + ix.order,
                                weights=vec * vec, minlength=n_caps * MAX_N)).reshape(n_caps, -1)
    # one term per lookup, min(h_val, r_val) * r_val for the hypothesis'
    # tf-idf value h_val and the reference's r_val, summed per (pair, order)
    # bin; a bin's lookups are one pair's, in row order. The updates are in
    # place because every extra lookup-sized array that the heap grows for
    # costs page faults on each call, which `score` measured as a slowdown.
    r_val = np.repeat(idf[ix.gram[ix.row_entry]], ix.row_refs) * ix.look_count
    terms = np.minimum(np.repeat(vec[ix.row_entry], ix.row_refs), r_val)
    terms *= r_val
    bins = ix.look_pair * MAX_N
    bins += np.repeat(ix.order[ix.row_entry], ix.row_refs)
    dots = np.bincount(bins, weights=terms, minlength=n_pairs * MAX_N)
    span = int(ix.length.max())
    penalty = np.array([math.exp(-(d * d) / (2.0 * CIDER_SIGMA * CIDER_SIGMA))
                        for d in range(-span, span + 1)])
    penalty = penalty[ix.length[ix.hyp_cap][ix.pair_hyp] - ix.length[ix.pair_ref] + span]
    h_norm, r_norm = norms[ix.hyp_cap][ix.pair_hyp], norms[ix.pair_ref]
    sims = np.divide(penalty[:, None] * dots.reshape(n_pairs, MAX_N), h_norm * r_norm,
                     out=np.zeros((n_pairs, MAX_N)), where=(h_norm != 0.0) & (r_norm != 0.0))
    # cumsum adds in sequence, like every sum here
    total = np.bincount(ix.pair_hyp, weights=np.cumsum(sims, axis=1)[:, -1] / MAX_N,
                        minlength=n_examples)
    scores = 10.0 * total / ix.n_refs
    return float(np.cumsum(scores)[-1]) / len(scores)


# -- token edit analysis ------------------------------------------------------------


@dataclass
class EditOp:
    kind: str  # "sub" | "ins" | "del"
    pos: int   # index in the draft (for ins: insert before this index)
    old: str | None = None
    new: str | None = None


@dataclass
class EditRecord:
    draft: Tokens
    emended: Tokens
    count: int
    ops: list[EditOp]


def _symbol_masks(a: Tokens) -> dict[str, int]:
    """Token -> bitmask of its positions in `a` (bit i for a[i])."""
    masks: dict[str, int] = {}
    for i, x in enumerate(a):
        masks[x] = masks.get(x, 0) | (1 << i)
    return masks


def token_edits(draft: Tokens, emended: Tokens) -> EditRecord:
    """Token-level Levenshtein alignment with unit costs.

    On cost ties the backtrace prefers a match, then a substitution, a
    delete, an insert, so a one-word change reports as a single
    substitution at its position. The table is computed bit-parallel, one
    column per emended token after the shared suffix is trimmed, and the
    backtrace stops at the first cell of distance 0 (see the module
    docstring). The ops are in draft order, with draft-side positions.
    """
    if isinstance(draft, str) or isinstance(emended, str):
        raise InputError("token_edits takes lists of tokens, not a str")
    m, n = len(draft), len(emended)
    while m and n and draft[m - 1] == emended[n - 1]:
        m, n = m - 1, n - 1
    masks = _symbol_masks(draft)  # bits at or above m are masked off or never read
    full = (1 << m) - 1
    vp, vn = full, 0  # column 0: d(i, 0) = i
    cols = [(0, 0, full)]  # per column: Eq, the complement of D0, VP
    for y in emended[:n]:
        eq = masks.get(y, 0)
        d0 = ((((eq & vp) + vp) ^ vp) | eq | vn) & full
        hp = (vn | (full ^ (d0 | vp))) << 1 | 1
        hn = (vp & d0) << 1
        vp = (hn | ~(d0 | hp)) & full
        vn = hp & d0
        cols.append((eq, full ^ d0, vp))
    count = n + vp.bit_count() - vn.bit_count()
    ops: list[EditOp] = []
    i, j = m, n
    while len(ops) < count:  # d(i, j) = count - len(ops)
        eq, sub, up = cols[j]
        row = 1 << i >> 1  # row i's bit; row 0 has none and only inserts
        if eq & row:
            i, j = i - 1, j - 1
        elif sub & row:
            ops.append(EditOp("sub", i - 1, draft[i - 1], emended[j - 1]))
            i, j = i - 1, j - 1
        elif up & row:
            i -= 1
            ops.append(EditOp("del", i, draft[i]))
        else:
            j -= 1
            ops.append(EditOp("ins", i, new=emended[j]))
    ops.reverse()
    return EditRecord(list(draft), list(emended), count, ops)


def apply_edits(draft: Tokens, ops: list[EditOp]) -> Tokens:
    """Replay an op list against the draft.

    Ops carry draft-side positions in draft order, as token_edits gives
    them: an insert goes before its position (0..len(draft)), and a
    substitution or delete names the draft token it replaces as `old`. No op
    may come before a draft token that an earlier op replaced or deleted.
    Raises InputError for an op that does not fit the draft.
    """
    out, shift, first = list(draft), 0, 0  # first: the first draft position still open
    for op in ops:
        end = len(draft) if op.kind == "ins" else len(draft) - 1
        if op.kind not in ("sub", "del", "ins") or not isinstance(op.pos, int) \
                or not first <= op.pos <= end or op.kind != "ins" and op.old != draft[op.pos]:
            raise InputError(f"{op} does not fit a draft of {len(draft)} tokens "
                             f"open from position {first}")
        pos = op.pos + shift
        if op.kind == "sub":
            out[pos] = op.new
        elif op.kind == "del":
            del out[pos]
            shift -= 1
        else:
            out.insert(pos, op.new)
            shift += 1
        first = op.pos + (op.kind != "ins")
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
    """BLEU-1..4, ROUGE-L and CIDEr-D over one index, which checks the
    corpus once and which the first of them builds."""
    index = NgramIndex(hypotheses, references)
    return MetricsReport(
        counts=len(hypotheses),
        bleu=bleu_all(index),
        rouge_l=rouge_l(index),
        cider=10.0 * cider(index),
    )


def aggregate_seeds(reports: list[MetricsReport]) -> MetricsReport:
    """Arithmetic mean per metric; the input reports are kept per seed."""
    if not reports:
        raise InputError("nothing to aggregate")
    if len({r.counts for r in reports}) != 1:
        raise InputError("per-seed reports cover different corpus sizes")
    return MetricsReport(
        counts=reports[0].counts,
        bleu=[_mean([r.bleu[i] for r in reports]) for i in range(MAX_N)],
        rouge_l=_mean([r.rouge_l for r in reports]),
        cider=_mean([r.cider for r in reports]),
        per_seed=list(reports),
    )


def _mean(values: list[float]) -> float:
    """The mean, summed in sequence: builtin sum is compensated from Python
    3.12 on, so its last bits depend on the version."""
    total = 0.0
    for x in values:
        total += x
    return total / len(values)


def format_table(rows: dict[str, MetricsReport]) -> str:
    """Aligned table, one row per model label (CIDEr follows the x100-style
    convention: ten times the conventional 0-10 scale)."""
    header = f"{'model':<8}{'B-1':>8}{'B-2':>8}{'B-3':>8}{'B-4':>8}{'R-L':>8}{'C':>8}"
    lines = [header]
    for label, rep in rows.items():
        cells = rep.bleu + [rep.rouge_l, rep.cider]
        lines.append(f"{label:<8}" + "".join(f"{c:>8.1f}" for c in cells))
    return "\n".join(lines) + "\n"
