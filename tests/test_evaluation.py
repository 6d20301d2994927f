import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from capfuse import evaluation
from capfuse.errors import InputError
from capfuse.evaluation import (
    EditOp,
    MetricsReport,
    NgramIndex,
    _pair_lcs,
    aggregate_seeds,
    apply_edits,
    bleu_all,
    cider,
    compute_metrics,
    edit_histogram,
    format_table,
    histogram_csv,
    rouge_l,
    token_edits,
)
from oracles import (
    all_sequences,
    bleu_brute,
    cider_brute,
    edit_distance_recursive,
    lcs_recursive,
    rouge_brute,
    token_edits_table,
)


def bleu_of(hyps, refs):
    return bleu_all(NgramIndex(hyps, refs))


def cider_of(hyps, refs):
    return cider(NgramIndex(hyps, refs))


def rouge_of(hyps, refs):
    return rouge_l(NgramIndex(hyps, refs))


def random_corpus(rng, n_examples, vocab=("a", "b", "c", "d"), max_len=7,
                  max_refs=3):
    hyps, refs = [], []
    for _ in range(n_examples):
        hyps.append([vocab[i] for i in rng.integers(0, len(vocab),
                                                    rng.integers(1, max_len + 1))])
        bundle = []
        for _ in range(rng.integers(1, max_refs + 1)):
            bundle.append([vocab[i] for i in rng.integers(0, len(vocab),
                                                          rng.integers(1, max_len + 1))])
        refs.append(bundle)
    return hyps, refs


class TestBleu:
    def test_perfect_match_is_100(self):
        hyps = [["a", "red", "circle", "here"], ["two", "blue", "stars", "shine"]]
        refs = [[h] for h in hyps]
        for n in range(1, 5):
            assert bleu_of(hyps, refs)[n - 1] == pytest.approx(100.0, abs=1e-9)

    def test_worked_clipped_unigram_example(self):
        hyp = "the the the the the the the".split()
        ref = "the cat is on the mat".split()
        score = bleu_of([hyp], [[ref]])[0]
        assert score == pytest.approx(100.0 * 2.0 / 7.0, abs=1e-9)

    def test_brevity_penalty_applies_to_short_hypothesis(self):
        hyp = ["the", "cat"]
        ref = ["the", "cat", "is", "here"]
        expect = 100.0 * np.exp(1.0 - 4.0 / 2.0)  # precisions are 1
        assert bleu_of([hyp], [[ref]])[0] == pytest.approx(expect, abs=1e-9)

    def test_closest_reference_tie_prefers_shorter(self):
        hyp = ["a", "b", "c"]
        refs = [["a", "b"], ["a", "b", "c", "d"]]  # both at distance 1
        # shorter wins the tie, so r=2 < c=3 and BP is 1
        assert bleu_of([hyp], [refs])[0] == pytest.approx(100.0 * 3.0 / 3.0, abs=1e-9)

    def test_zero_ngram_matches_scores_zero(self):
        assert bleu_of([["x"]], [[["y"]]]) == [0.0] * 4
        # unsmoothed: no bigram match zeroes BLEU-2 and above
        assert bleu_of([["a", "b"]], [[["a", "c"]]]) == [50.0, 0.0, 0.0, 0.0]

    def test_empty_corpus_rejected(self):
        with pytest.raises(InputError):
            bleu_of([], [])

    def test_matches_brute_force_on_random_corpora(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            hyps, refs = random_corpus(rng, int(rng.integers(2, 7)))
            scores = bleu_of(hyps, refs)
            for n in range(1, 5):
                assert scores[n - 1] == pytest.approx(
                    bleu_brute(hyps, refs, n), abs=1e-9
                )

    def test_self_scoring_full_marks(self):
        rng = np.random.default_rng(1)
        hyps, _ = random_corpus(rng, 5)
        refs = [[h] for h in hyps]
        assert all(s == pytest.approx(100.0, abs=1e-9) for s in bleu_of(hyps, refs))


class TestRouge:
    def test_identical_strings_100(self):
        toks = "a small red circle".split()
        assert rouge_of([toks], [[toks]]) == pytest.approx(100.0, abs=1e-12)

    def test_worked_lcs_example(self):
        # LCS("a b c", "a c d") = 2, P = R = 2/3, F = 2/3 for any beta
        score = rouge_of([["a", "b", "c"]], [[["a", "c", "d"]]])
        assert score == pytest.approx(100.0 * 2.0 / 3.0, abs=1e-12)

    def test_no_reference_rejected(self):
        with pytest.raises(InputError):
            rouge_of([["a"]], [[]])

    def test_empty_hypothesis_scores_zero(self):
        assert rouge_of([[]], [[["a", "b"]]]) == 0.0

    def test_exhaustive_lcs_against_recursive_oracle(self):
        seqs = [s for s in all_sequences(("a", "b", "c"), 4) if s]
        hyps = seqs[::7]
        refs = [[seqs[(i * 13 + 5) % len(seqs)]] for i in range(len(hyps))]
        assert rouge_of(hyps, refs) == rouge_brute(hyps, refs)

    def test_matches_oracle_exactly_on_random_corpora(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            hyps, refs = random_corpus(rng, int(rng.integers(2, 7)))
            assert rouge_of(hyps, refs) == rouge_brute(hyps, refs)

    def test_reference_order_invariance(self):
        hyp = ["a", "b", "c"]
        refs = [["a", "c"], ["b", "c", "d"], ["a", "b", "x"]]
        assert rouge_of([hyp], [refs]) == rouge_of([hyp], [refs[::-1]])


class TestCider:
    def test_no_overlap_scores_zero(self):
        hyps = [["x", "y"], ["a", "b"]]
        refs = [[["p", "q"]], [["r", "s"]]]
        assert cider_of(hyps, refs) == 0.0

    def test_single_image_corpus_rejected(self):
        with pytest.raises(InputError, match="idf"):
            cider_of([["a"]], [[["a"]]])

    def test_matches_brute_force_on_toy_corpus(self):
        hyps = [["a", "red", "circle"], ["two", "blue", "stars"]]
        refs = [
            [["a", "red", "circle"], ["one", "red", "circle", "here"]],
            [["two", "blue", "stars"], ["blue", "stars", "twinkle"]],
        ]
        assert cider_of(hyps, refs) == pytest.approx(cider_brute(hyps, refs), abs=1e-6)

    def test_matches_brute_force_on_random_corpora(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            hyps, refs = random_corpus(rng, int(rng.integers(2, 6)), max_len=5)
            assert cider_of(hyps, refs) == pytest.approx(cider_brute(hyps, refs), abs=1e-6)

    def test_reference_order_invariance(self):
        hyps = [["a", "b"], ["c", "d"]]
        refs = [[["a", "b"], ["a", "x"]], [["c", "d"], ["c", "y"]]]
        flipped = [bundle[::-1] for bundle in refs]
        assert cider_of(hyps, refs) == pytest.approx(cider_of(hyps, flipped), abs=1e-12)


class TestTokenEdits:
    def test_gender_swap_single_substitution(self):
        draft = "a woman riding a wave on top of a surfboard".split()
        emended = "a man riding a wave on top of a surfboard".split()
        rec = token_edits(draft, emended)
        assert rec.count == 1
        assert rec.ops == [EditOp("sub", 1, "woman", "man")]

    def test_identical_zero_edits(self):
        toks = "a red circle".split()
        rec = token_edits(toks, toks)
        assert rec.count == 0 and rec.ops == []

    def test_exhaustive_against_recursive_oracle(self):
        seqs = all_sequences(("a", "b", "c"), 4)
        for a in seqs[::5]:
            for b in seqs[::7]:
                rec = token_edits(a, b)
                assert rec.count == edit_distance_recursive(tuple(a), tuple(b))
                assert apply_edits(a, rec.ops) == b
                assert len(rec.ops) == rec.count

    @given(st.lists(st.sampled_from("abc"), max_size=6),
           st.lists(st.sampled_from("abc"), max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_symmetry_property(self, a, b):
        assert token_edits(a, b).count == token_edits(b, a).count

    @given(st.lists(st.sampled_from("abc"), max_size=5),
           st.lists(st.sampled_from("abc"), max_size=5),
           st.lists(st.sampled_from("abc"), max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        ab = token_edits(a, b).count
        bc = token_edits(b, c).count
        ac = token_edits(a, c).count
        assert ac <= ab + bc


class TestHistogram:
    def test_counts_example(self):
        recs = [token_edits(["a"], ["b"]), token_edits(["a"], ["c"]),
                token_edits(["a", "b"], ["c", "d"])]
        hist, unchanged = edit_histogram(recs)
        assert hist == {1: 2, 2: 1}
        assert unchanged == 0

    def test_all_unchanged(self):
        recs = [token_edits(["a"], ["a"]) for _ in range(4)]
        hist, unchanged = edit_histogram(recs)
        assert hist == {} and unchanged == 4

    def test_conservation(self):
        rng = np.random.default_rng(4)
        recs = []
        for _ in range(30):
            a = [str(x) for x in rng.integers(0, 3, rng.integers(1, 6))]
            b = [str(x) for x in rng.integers(0, 3, rng.integers(1, 6))]
            recs.append(token_edits(a, b))
        hist, unchanged = edit_histogram(recs)
        assert sum(hist.values()) + unchanged == len(recs)

    def test_csv_renders(self):
        hist, unchanged = {1: 3, 2: 1}, 5
        csv = histogram_csv(hist, unchanged)
        assert "edit_count,frequency" in csv and "1,3" in csv and "unchanged,5" in csv


class TestAggregate:
    def _report(self, b4):
        return MetricsReport(counts=10, bleu=[50.0, 40.0, 30.0, b4],
                             rouge_l=45.0, cider=80.0)

    def test_single_report_identity(self):
        rep = self._report(20.0)
        agg = aggregate_seeds([rep])
        assert agg.bleu == rep.bleu and agg.cider == rep.cider

    def test_mean(self):
        agg = aggregate_seeds([self._report(20.0), self._report(22.0),
                               self._report(24.0)])
        assert agg.bleu[3] == pytest.approx(22.0)
        assert len(agg.per_seed) == 3

    def test_order_invariance(self):
        reports = [self._report(b) for b in (18.0, 25.0, 21.0)]
        a = aggregate_seeds(reports)
        b = aggregate_seeds(reports[::-1])
        assert a.bleu == b.bleu

    def test_mismatched_counts_rejected(self):
        bad = MetricsReport(counts=9, bleu=[0, 0, 0, 0], rouge_l=0, cider=0)
        with pytest.raises(InputError):
            aggregate_seeds([self._report(20.0), bad])


class TestReports:
    def test_compute_metrics_and_table(self):
        hyps = [["a", "red", "circle", "here"], ["two", "blue", "stars", "shine"]]
        refs = [[["a", "red", "circle", "here"]], [["two", "blue", "stars", "shine"]]]
        rep = compute_metrics(hyps, refs)
        assert rep.bleu[3] == pytest.approx(100.0, abs=1e-9)
        assert rep.rouge_l == pytest.approx(100.0, abs=1e-9)
        table = format_table({"BL": rep})
        assert "B-4" in table and "BL" in table

    def test_bleu_ordering_on_caption_like_corpora(self):
        # B-1 >= B-2 >= B-3 >= B-4 on corpora of template captions (not a
        # theorem for adversarial strings, but holds on this data family)
        from capfuse.data import generate_dataset

        rng = np.random.default_rng(5)
        examples = generate_dataset(6, 30, 3, (0.5, 0.25, 0.25))
        hyps = [ex.references[int(rng.integers(3))].split() for ex in examples]
        refs = [[r.split() for r in ex.references] for ex in examples]
        scores = bleu_of(hyps, refs)
        assert scores[0] >= scores[1] >= scores[2] >= scores[3]


# -- input checks shared by the three corpus metrics ----------------------------


METRICS = {"bleu": bleu_of, "rouge_l": rouge_of, "cider": cider_of}
BAD_CORPORA = {
    "empty corpus": ([], []),
    "lengths differ": ([["a"], ["b"]], [[["a"]]]),
    "no reference": ([["a"], ["b"]], [[["a"]], []]),
    "captions are str": (["a red circle", "two blue stars"], [["a red circle"], ["two blue star"]]),
    "hypothesis a str": ([["a", "b"], "a b"], [[["a", "b"]], [["a"]]]),
    "reference a str": ([["a", "b"], ["a"]], [[["a", "b"]], [["a"], "a"]]),
    "references a str": ([["a", "b"], ["a"]], [[["a", "b"]], "a"]),
}


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("case", BAD_CORPORA)
def test_bad_corpus_rejected(metric, case):
    hyps, refs = BAD_CORPORA[case]
    with pytest.raises(InputError):
        METRICS[metric](hyps, refs)


# -- the fast paths against their oracles ------------------------------------------

captions = st.lists(st.sampled_from("abcd"), max_size=6)
corpus_rows = st.tuples(captions, st.lists(captions, min_size=1, max_size=6))


# captions of 0-150 words, so bit vectors span up to three 64-bit words
long_captions = st.integers(0, 150).flatmap(
    lambda n: st.lists(st.sampled_from("abc"), min_size=n, max_size=n))


@given(st.lists(st.tuples(long_captions, st.lists(long_captions, min_size=1, max_size=3)),
                min_size=1, max_size=4))
@example([([], [["a"]]), (["a"], [[]]), ([], [[]])])
@example([(["a"] * 64, [["a"] * 64, ["a"] * 65]), (["a"] * 65, [["a"] * 64, ["b"] + ["a"] * 64])])
@example([(["a"] * 128, [["a"] * 128]), (["a", "b"] * 75, [["b", "a"] * 75, ["a"] * 129])])
@example([(["a"] * 150, [["a"] * 63]), (["b"], [["a"] * 150, ["b"]])])
@settings(max_examples=60, deadline=None)
def test_every_pair_lcs_matches_recursive(corpus):
    hyps = [h for h, _ in corpus]
    refs = [r for _, r in corpus]
    want = [lcs_recursive(tuple(h), tuple(r)) for h, bundle in corpus for r in bundle]
    assert _pair_lcs(NgramIndex(hyps, refs).built()).tolist() == want


@given(st.lists(corpus_rows, min_size=1, max_size=5))
@example([([], [["a"]])])
@example([(["a"], [[], ["a"]]), ([], [["b"]])])
@example([(["a", "b"], [["a"], ["b", "a"], [], ["a", "b"], ["b"], ["a", "b", "a"]]),
          (["b"], [["b"]])])
@settings(max_examples=100, deadline=None)
def test_bleu_matches_brute_force(corpus):
    hyps = [h for h, _ in corpus]
    refs = [r for _, r in corpus]
    scores = bleu_of(hyps, refs)
    for n in range(1, 5):
        assert scores[n - 1] == pytest.approx(bleu_brute(hyps, refs, n), abs=1e-9)


@given(st.lists(corpus_rows, min_size=2, max_size=5))
@example([([], [["a"]]), (["a"], [[]])])
@example([(["a"], [["a"]]), (["b"], [["a"], ["b"]])])
@example([(["a", "b"], [["a"], ["b", "a"], [], ["a", "b"], ["b"], ["a", "b", "a"]]),
          (["b"], [["b"]])])
@settings(max_examples=100, deadline=None)
def test_cider_matches_brute_force(corpus):
    hyps = [h for h, _ in corpus]
    refs = [r for _, r in corpus]
    assert cider_of(hyps, refs) == pytest.approx(cider_brute(hyps, refs), abs=1e-12)


def as_tuples(ops):
    return [(op.kind, op.pos, op.old, op.new) for op in ops]


def assert_table_ops(a, b):
    rec = token_edits(a, b)
    count, ops = token_edits_table(a, b)
    assert rec.count == count and as_tuples(rec.ops) == ops
    assert rec.draft == a and rec.emended == b


def test_token_edits_match_full_table_oracle():
    # every pair of captions up to length 4 over three tokens
    seqs = all_sequences(("a", "b", "c"), 4)
    for a in seqs:
        for b in seqs:
            assert_table_ops(a, b)


# two or three distinct tokens, so cost ties are dense
dense_pairs = st.sampled_from(["ab", "abc"]).flatmap(
    lambda alphabet: st.tuples(*[st.lists(st.sampled_from(alphabet), max_size=12)] * 2))


@given(dense_pairs)
@example(([], []))
@example(([], ["a", "b"]))
@example((["a", "b"], []))
@settings(max_examples=300, deadline=None)
def test_bit_parallel_token_edits_match_the_table_and_replay(pair):
    draft, emended = pair
    assert_table_ops(draft, emended)
    assert apply_edits(draft, token_edits(draft, emended).ops) == emended


@pytest.mark.parametrize("draft, emended", [("a red circle", "a red square".split()),
                                            ("a red circle".split(), "a red square")],
                         ids=["draft", "emended"])
def test_token_edits_rejects_a_caption_given_as_a_str(draft, emended):
    with pytest.raises(InputError, match="not a str"):
        token_edits(draft, emended)


@pytest.mark.parametrize("draft, emended", [([], []), ([], ["a", "b", "a"]), (["b", "a"], [])],
                         ids=["both-empty", "empty-draft", "empty-emended"])
def test_token_edits_of_empty_captions(draft, emended):
    assert_table_ops(draft, emended)
    rec = token_edits(draft, emended)
    assert rec.count == max(len(draft), len(emended))
    assert {op.kind for op in rec.ops} <= ({"ins"} if not draft else {"del"})


@pytest.mark.parametrize("length", [70, 130])
@pytest.mark.parametrize("kind", ["sub", "ins", "del"])
def test_token_edits_span_several_machine_words(length, kind):
    # edits at both ends and on both sides of the first 64-bit boundary
    rng = np.random.default_rng(length)
    draft = [str(x) for x in rng.integers(0, 3, length)]
    for positions in ([0], [63], [64], [length - 1], [0, 63, 64, length - 1]):
        emended = list(draft)
        for p in reversed(positions):
            if kind == "sub":
                emended[p] = "x"
            elif kind == "ins":
                emended.insert(p, "x")
            else:
                del emended[p]
        assert_table_ops(draft, emended)
        assert token_edits(draft, emended).count == len(positions)
    assert_table_ops(draft, draft[::-1])


def test_token_edits_match_the_table_on_corrupted_captions():
    """Dataset captions with 0-3 seeded substitutions, insertions and
    deletions each, as the score benchmark corrupts them."""
    from capfuse.data import generate_dataset

    rng = np.random.default_rng(7)
    caps = [r.split() for ex in generate_dataset(7, 400, refs_per_scene=5) for r in ex.references]
    words = sorted({w for cap in caps for w in cap})
    assert len(caps) == 2000
    for cap in caps:
        hyp = list(cap)
        for _ in range(int(rng.integers(0, 4))):
            kind, word = int(rng.integers(3)), words[int(rng.integers(len(words)))]
            if kind == 0:
                hyp[int(rng.integers(len(hyp)))] = word
            elif kind == 1:
                hyp.insert(int(rng.integers(len(hyp) + 1)), word)
            elif len(hyp) > 1:
                del hyp[int(rng.integers(len(hyp)))]
        assert_table_ops(hyp, cap)


MALFORMED_OPS = {
    "ins past the end": [EditOp("ins", 3, new="z")],
    "sub of another token": [EditOp("sub", 1, "a", "z")],
    "del at -1": [EditOp("del", -1, "b")],
    "unknown kind": [EditOp("swap", 0, "a", "b")],
    "sub past the end": [EditOp("sub", 2, "c", "z")],
    "del past the end": [EditOp("del", 2, "c")],
    "del without its old token": [EditOp("del", 0)],
    "position not an int": [EditOp("sub", 0.5, "a", "z")],
    "out of draft order": [EditOp("del", 1, "b"), EditOp("sub", 0, "a", "z")],
    "one token edited twice": [EditOp("del", 0, "a"), EditOp("sub", 0, "a", "z")],
}


@pytest.mark.parametrize("case", MALFORMED_OPS)
def test_apply_edits_rejects_ops_that_do_not_fit_the_draft(case):
    with pytest.raises(InputError):
        apply_edits(["a", "b"], MALFORMED_OPS[case])


def test_apply_edits_replays_ops_that_fit():
    ops = [EditOp("ins", 0, new="x"), EditOp("del", 0, "a"), EditOp("ins", 1, new="y"),
           EditOp("sub", 1, "b", "z"), EditOp("ins", 2, new="w")]
    assert apply_edits(["a", "b"], ops) == ["x", "y", "z", "w"]
    assert apply_edits(["a", "b"], []) == ["a", "b"]


def score_shaped_corpus(seed: int, scenes: int = 10):
    """Scenes of 5 references; hypothesis j is reference j with one token
    replaced, scored against the scene's other 4, so every reference is
    shared by 4 hypotheses."""
    from capfuse.data import generate_dataset

    rng = np.random.default_rng(seed)
    hyps, refs = [], []
    for ex in generate_dataset(seed, scenes, refs_per_scene=5):
        caps = [r.split() for r in ex.references]
        for j, cap in enumerate(caps):
            hyp = list(cap)
            hyp[int(rng.integers(len(hyp)))] = caps[(j + 1) % 5][0]
            hyps.append(hyp)
            refs.append(caps[:j] + caps[j + 1:])
    return hyps, refs


def ragged_corpus(seed: int, scenes: int = 12):
    """Every reference of the scenes is a hypothesis, with one token replaced
    (every third one kept verbatim), scored against the next 1-6 captions of
    the corpus, so reference counts are ragged and captions repeat."""
    from capfuse.data import generate_dataset

    rng = np.random.default_rng(seed)
    caps = [r.split() for ex in generate_dataset(seed, scenes, refs_per_scene=5)
            for r in ex.references]
    hyps, refs = [], []
    for j, cap in enumerate(caps):
        hyp = list(cap)
        if j % 3:
            hyp[int(rng.integers(len(hyp)))] = caps[j - 1][0]
        hyps.append(hyp)
        refs.append([caps[(j + k) % len(caps)] for k in range(1, int(rng.integers(2, 8)))])
    return hyps, refs


# compute_metrics on each corpus, pinned as float.hex: BLEU-1..4, ROUGE-L,
# CIDEr-D; the n-gram index must reproduce these bits exactly. They were taken
# with CPython 3.11 and glibc's libm. Every mean adds in sequence, whatever
# the Python version, but math.log/exp come from the platform's libm, so
# another platform may differ in the last bit.
GOLDEN_HEX = {
    (score_shaped_corpus, 11): [
        "0x1.37fc6b02d7dbep+6", "0x1.0869e59d4781dp+6", "0x1.d9866a9cef789p+5",
        "0x1.b01112eef3fa2p+5", "0x1.1e1722327e6bfp+6", "0x1.45d588a5c20b1p+5"],
    (score_shaped_corpus, 12): [
        "0x1.3e2c58ee290d7p+6", "0x1.0db9e1938bc8fp+6", "0x1.e4f012e73990bp+5",
        "0x1.ba9f0b7adc051p+5", "0x1.1f99b1028c4c4p+6", "0x1.53de30d5a9714p+5"],
    (score_shaped_corpus, 13): [
        "0x1.5054f245a4b8bp+6", "0x1.26184659e7047p+6", "0x1.0d14101d06929p+6",
        "0x1.f2d706ade8889p+5", "0x1.323f2198b863dp+6", "0x1.7a0681db9f127p+5"],
    (ragged_corpus, 14): [
        "0x1.2b31cf68e5f38p+6", "0x1.faec1aa491aabp+5", "0x1.b7d93bed36d5ap+5",
        "0x1.7d466fe3119dap+5", "0x1.ef08256d53f92p+5", "0x1.9241b5b5f3264p+4"],
}


@pytest.mark.parametrize("corpus, seed", GOLDEN_HEX, ids=[
    str(seed) if corpus is score_shaped_corpus else f"ragged-{seed}" for corpus, seed in GOLDEN_HEX])
def test_compute_metrics_bits_are_pinned(corpus, seed):
    hyps, refs = corpus(seed)
    if corpus is ragged_corpus:
        assert sorted({len(r) for r in refs}) == [1, 2, 3, 4, 5, 6]
    rep = compute_metrics(hyps, refs)
    assert [x.hex() for x in rep.bleu + [rep.rouge_l, rep.cider]] == GOLDEN_HEX[corpus, seed]


class TestSharedIndex:
    def test_compute_metrics_matches_oracles(self):
        hyps, refs = score_shaped_corpus(11)
        rep = compute_metrics(hyps, refs)
        for n in range(1, 5):
            assert rep.bleu[n - 1] == pytest.approx(bleu_brute(hyps, refs, n), abs=1e-9)
        assert rep.rouge_l == rouge_brute(hyps, refs)
        assert rep.cider == pytest.approx(10.0 * cider_brute(hyps, refs), abs=1e-11)

    @pytest.mark.parametrize("make_corpus, seed", [(score_shaped_corpus, 12), (ragged_corpus, 15)],
                             ids=["score", "ragged"])
    def test_a_shared_index_changes_no_bit(self, make_corpus, seed):
        corpus = make_corpus(seed)
        bleu, cider_d = bleu_of(*corpus), cider_of(*corpus)
        # built once, by whichever metric reads it first
        index = NgramIndex(*corpus)
        assert bleu_all(index) == bleu and cider(index) == cider_d
        index = NgramIndex(*corpus)
        assert cider(index) == cider_d and bleu_all(index) == bleu
        rep = compute_metrics(*corpus)
        assert rep.bleu == bleu and rep.cider == 10.0 * cider_d
        assert rep.rouge_l == rouge_of(*corpus)

    def test_compute_metrics_checks_its_corpus_once_and_builds_its_index_once(self,
                                                                             monkeypatch):
        checked, built = [], []
        check, build = evaluation._check_corpus, NgramIndex._build_table
        monkeypatch.setattr(evaluation, "_check_corpus",
                            lambda *corpus: checked.append(check(*corpus)))
        monkeypatch.setattr(NgramIndex, "_build_table",
                            lambda self: built.append(self) or build(self))
        corpus = score_shaped_corpus(13)
        rep = compute_metrics(*corpus)
        assert len(checked) == 1 and len(built) == 1
        index = NgramIndex(*corpus)
        assert rouge_l(index) == rep.rouge_l and index._built

    def test_index_counts_each_caption_once(self):
        caption = ["a", "b", "a", "b"]
        hyps = [caption, ["b", "a"]]
        refs = [[list(caption), ["a", "b"]], [caption]]
        index = NgramIndex(hyps, refs).built()
        assert len(index.length) == 3  # "a b a b", "b a", "a b"
        assert index.hyp_cap[0] == index.pair_ref[0] == index.pair_ref[2]
        entries = slice(index.first_entry[index.hyp_cap[0]],
                        index.first_entry[index.hyp_cap[0]] + index.n_entries[index.hyp_cap[0]])
        counts = [sorted(index.count[entries][index.order[entries] == n].tolist())
                  for n in range(4)]
        assert counts == [[2, 2], [1, 2], [1, 1], [1]]
