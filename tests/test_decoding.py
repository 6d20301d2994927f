import copy
import itertools
import pickle
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from capfuse import decoding
from capfuse.decoding import (
    BeamConfig,
    EmendStepper,
    Stepper,
    beam_over,
    beam_search_scored,
    emend,
    sequence_logprob,
    strip_specials,
)
from capfuse.autodiff import Tensor, gather_rows, log_softmax
from capfuse.errors import ConfigError, InputError, NumericError, ShapeError, StateError
from capfuse.fusion import build_model
from capfuse.models import (
    EOS_ID,
    MASK_ID,
    PAD_ID,
    START_ID,
    UNK_ID,
    MaskedLM,
    MlmConfig,
    ModelConfig,
    mlm_context_rows,
)
from oracles import encode_masked, greedy_oracle, lexsort_cells, stack_step_graph, stepped_logprob

V = 10
MAX_LEN = 8  # the beam length cap of these tests
CAP = BeamConfig(max_len=MAX_LEN)


def tiny_model(kind="none", seed=0, **kw):
    cfg = ModelConfig(vocab_size=V, feature_dim=4, embed_dim=5, hidden_dim=6,
                      mlm_hidden_dim=6, fusion_dim=6,
                      fusion_kind=kind, dropout=0.0, **kw)
    return build_model(cfg, seed)


def tiny_mlm(seed=0):
    return MaskedLM(MlmConfig(vocab_size=V, embed_dim=5, hidden_dim=6),
                    np.random.default_rng(seed))


def feats(seed=0):
    return np.random.default_rng(seed).normal(size=4)


class TableStepper:
    """Hand-built stepper whose log-probabilities depend on (t, last token)."""

    def __init__(self, table):
        self.table = table  # dict[(t, last)] -> logprob row

    def start(self):
        return (0, np.array([START_ID]))

    def step(self, state, tokens):
        t, _ = state
        rows = np.stack([self.table[(t, int(tok))] for tok in tokens])
        return (t + 1, tokens.copy()), rows

    def select(self, state, idx):
        t, tokens = state
        return (t, tokens[idx])


def make_table(seed, vocab=5, steps=4):
    """Log-prob table over a small vocabulary; blocked ids get -inf."""
    rng = np.random.default_rng(seed)
    table = {}
    for t in range(steps):
        for last in range(vocab):
            logits = rng.normal(scale=2.0, size=vocab)
            logits[[PAD_ID, START_ID, MASK_ID]] = -np.inf
            row = logits - np.log(np.exp(logits[np.isfinite(logits)]).sum())
            table[(t, last)] = row
    return table


def enumerate_best(table, vocab, max_len):
    """Exhaustive enumeration oracle over all sequences up to max_len.

    Finished sequences always outrank unfinished ones; within a group the
    highest score wins, then shorter length, then smaller token ids.
    """
    best = None
    allowed = [i for i in range(vocab) if i not in (PAD_ID, START_ID, MASK_ID)]
    for length in range(1, max_len + 1):
        for seq in itertools.product(allowed, repeat=length):
            if EOS_ID in seq[:-1]:
                continue  # eos only terminates a sequence
            finished = seq[-1] == EOS_ID
            if not finished and length < max_len:
                continue  # unfinished sequences only count at the horizon
            score, last = 0.0, START_ID
            for t, tok in enumerate(seq):
                score += table[(t, last)][tok]
                last = tok
            key = (0 if finished else 1, -score, len(seq), seq)
            if best is None or key < best[0]:
                best = (key, list(seq), score, finished)
    return best[1], best[2]


class TestBeamAgainstEnumeration:
    def test_beam_two_matches_exhaustive_on_table(self):
        # three-step table: beam-2 must find the globally best sequence
        for seed in (0, 1, 2, 3, 4):
            table = make_table(seed, vocab=5, steps=3)
            stepper = TableStepper(table)
            got_tokens, got_score = beam_over(stepper, beam_width=2, max_len=3)
            want_tokens, want_score = enumerate_best(table, vocab=5, max_len=3)
            # beam search is exact whenever the optimum survives the beam;
            # verify against full enumeration and never worse
            assert got_score <= want_score + 1e-12
            if abs(got_score - want_score) < 1e-12:
                assert got_tokens == want_tokens

    def test_wide_beam_equals_enumeration(self):
        # with the beam as wide as the vocabulary the search is exhaustive
        for seed in range(6):
            table = make_table(seed, vocab=5, steps=3)
            got_tokens, got_score = beam_over(TableStepper(table), 25, 3)
            want_tokens, want_score = enumerate_best(table, vocab=5, max_len=3)
            assert got_tokens == want_tokens
            assert got_score == pytest.approx(want_score, abs=1e-12)

    def test_beam_one_breaks_ties_on_the_smaller_id(self):
        # vocabulary 7: ids 3 and 5 tie at step 0, <eos> and 6 tie after 3
        def row(probs):
            out = np.full(7, -np.inf)
            for tok, p in probs.items():
                out[tok] = np.log(p)
            return out

        table = {(0, START_ID): row({EOS_ID: 0.2, 3: 0.4, 5: 0.4}),
                 (1, 3): row({EOS_ID: 0.5, 6: 0.5}),
                 (1, 5): row({EOS_ID: 0.5, 6: 0.5})}
        got = beam_over(TableStepper(table), 1, 2)
        assert got == greedy_oracle(TableStepper(table), 2)
        assert got[0] == [3, EOS_ID]

    def test_a_tie_in_summed_log_prob_goes_to_the_shorter_sequence(self):
        # [6, <eos>] and [5, 5, <eos>] both sum to -1.0 exactly; the longer
        # one has the smaller ids, so only the length decides
        def row(scores):
            out = np.full(7, -np.inf)
            out[list(scores)] = list(scores.values())
            return out

        table = {(0, START_ID): row({5: 0.0, 6: -1.0}),
                 (1, 5): row({5: -0.5}), (1, 6): row({EOS_ID: 0.0}),
                 (2, 5): row({EOS_ID: -0.5})}
        assert beam_over(TableStepper(table), 2, 3) == ([6, EOS_ID], -1.0)

    def test_impossible_cells_never_enter_the_beam(self):
        # only token 5 can follow <start>; a beam of 3 stays one hypothesis
        # wide, so the table needs no row for any other prefix
        def only(tok):
            return np.where(np.arange(7) == tok, 0.0, -np.inf)

        table = {(0, START_ID): only(5), (1, 5): only(EOS_ID)}
        assert beam_over(TableStepper(table), 3, 2) == ([5, EOS_ID], 0.0)


# scores with many exact ties (signed zeros included) and impossible cells
TIED_SCORES = st.sampled_from([-np.inf, -3.0, -1.5, -0.5, -0.0, 0.0]) | st.floats(-4.0, 0.0)


class TestExpansionOrder:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_best_cells_match_the_lexsort_oracle(self, data):
        hyps, vocab = data.draw(st.integers(1, 25)), data.draw(st.integers(2, 9))
        total = data.draw(arrays(np.float64, (hyps, vocab), elements=TIED_SCORES))
        k = data.draw(st.integers(1, hyps * vocab))
        parents, tokens = decoding.best_cells(total, k)
        assert list(zip(parents.tolist(), tokens.tolist())) == lexsort_cells(total, k)

    def test_ties_go_to_the_smaller_token_then_the_smaller_parent(self):
        total = np.array([[0.0, -1.0, -np.inf], [-1.0, 0.0, -1.0]])
        parents, tokens = decoding.best_cells(total, 6)
        assert list(zip(parents.tolist(), tokens.tolist())) == \
            [(0, 0), (1, 1), (1, 0), (0, 1), (1, 2), (0, 2)]


class TestArrayStep:
    """A beam step on plain arrays against a Tensor composite: the embedding
    gather, the decoder cells stepped as graphs of elementary nodes
    (oracles.stack_step_graph) and CaptionModel.step_logits, with every
    parameter trainable."""

    @staticmethod
    def model(kind):
        cfg = ModelConfig(vocab_size=V, feature_dim=4, embed_dim=9, hidden_dim=16,
                          mlm_hidden_dim=11, fusion_dim=12,
                          fusion_kind=kind, dropout=0.0)
        return build_model(cfg, 60)

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("kind", ["none", "simple", "cold", "hier"])
    def test_array_step_equals_the_graph_composite(self, kind, k, monkeypatch):
        seen = []  # the logits the step hands to log_softmax: log-probs alone
        # can round a last-bit difference in small logits away

        def recording(logits):
            seen.append(logits.copy())
            return log_softmax(logits)

        monkeypatch.setattr(decoding, "log_softmax", recording)
        model = self.model(kind)
        mlm = MaskedLM(MlmConfig(vocab_size=V, embed_dim=5, hidden_dim=11),
                       np.random.default_rng(61))
        stepper = (Stepper(model, feats(62)) if kind == "none"
                   else EmendStepper(model, mlm, feats(62), [START_ID, 5, 6, EOS_ID]))
        rng = np.random.default_rng(k)
        t = 2
        arrays = [(rng.uniform(-1, 1, (k, 16)), rng.uniform(-1, 1, (k, 16)))
                  for _ in range(model.decoder.LAYERS)]
        tokens = rng.integers(0, V, size=k)
        (t_next, got_state), got = stepper.step((t, arrays), tokens)

        decoder = model.decoder
        tensors = [(Tensor(h, requires_grad=True), Tensor(c, requires_grad=True))
                   for h, c in arrays]
        h_top, want_state = stack_step_graph(decoder.cells, gather_rows(decoder.embed, tokens),
                                             tensors)
        h_mlm = None if kind == "none" else Tensor(np.tile(stepper.rows[t], (k, 1)))
        logits = model.step_logits(h_top, h_mlm)
        assert logits._parents  # the composite recorded a graph
        want = logits.data.copy()
        want[:, list(decoding.BLOCKED_IDS)] = -np.inf
        assert t_next == t + 1
        assert np.array_equal(seen[0], want)
        assert np.array_equal(got, log_softmax(want))
        for (h, c), (h_want, c_want) in zip(got_state, want_state):
            assert np.array_equal(h, h_want.data) and np.array_equal(c, c_want.data)

    def test_select_keeps_the_chosen_rows_of_every_layer(self):
        stepper = Stepper(self.model("none"), feats(63))
        state, _ = stepper.step(stepper.start(), np.array([START_ID]))
        state, _ = stepper.step(stepper.select(state, np.zeros(3, dtype=int)),
                                np.array([5, 6, 7]))
        t, layers = stepper.select(state, np.array([2, 0]))
        assert t == 2
        for (h, c), (h_all, c_all) in zip(layers, state[1]):
            assert np.array_equal(h, h_all[[2, 0]]) and np.array_equal(c, c_all[[2, 0]])


class TestGreedyAndBeam:
    def test_beam_one_equals_greedy_random_models(self):
        draft = [START_ID, 5, 6, 7, EOS_ID]
        for i in range(40):
            kind = ["none", "simple", "cold", "hier"][i % 4]
            model = tiny_model(kind, seed=i)
            f = feats(seed=i)
            if kind == "none":
                stepper = Stepper(model, f)
            else:
                stepper = EmendStepper(model, tiny_mlm(seed=i), f, draft)
            want = greedy_oracle(stepper, MAX_LEN)
            assert beam_over(stepper, 1, MAX_LEN) == want, \
                f"mismatch for kind={kind} seed={i}"

    def test_greedy_deterministic(self):
        model = tiny_model("none", seed=5)
        f = feats(3)
        cfg = BeamConfig(beam_width=1, max_len=MAX_LEN)
        assert beam_search_scored(model, f, cfg) == beam_search_scored(model, f, cfg)

    def test_termination_contract(self):
        for i in range(10):
            model = tiny_model("none", seed=100 + i)
            seq, _ = beam_search_scored(model, feats(i), BeamConfig(beam_width=1, max_len=MAX_LEN))
            assert seq[-1] == EOS_ID or len(seq) == MAX_LEN

    def test_no_blocked_tokens_emitted(self):
        for i in range(10):
            model = tiny_model("none", seed=200 + i)
            seq, _ = beam_search_scored(model, feats(i), BeamConfig(beam_width=3, max_len=MAX_LEN))
            assert not set(seq) & {PAD_ID, START_ID, MASK_ID}

    def test_beam_score_matches_rescoring(self):
        for i in range(8):
            model = tiny_model("none", seed=300 + i)
            f = feats(i)
            tokens, score = beam_search_scored(model, f, BeamConfig(beam_width=3, max_len=MAX_LEN))
            assert score == pytest.approx(sequence_logprob(model, f, tokens), abs=1e-9)

    def test_rescoring_rejects_ids_outside_the_vocabulary(self):
        model = tiny_model("none", seed=7)
        for tokens in ([-1, EOS_ID], [V, EOS_ID]):
            with pytest.raises(InputError, match=f"id {tokens[0]}\\b"):
                sequence_logprob(model, feats(7), tokens)
        for bad in (5.5, "a", np.float64(5.0)):
            with pytest.raises(InputError, match=re.escape(f"id {bad!r} is not an integer")):
                sequence_logprob(model, feats(7), [bad])
        assert (sequence_logprob(model, feats(7), [np.int64(5), EOS_ID])
                == sequence_logprob(model, feats(7), [5, EOS_ID]))

    def test_beam_deterministic(self):
        model = tiny_model("none", seed=10)
        f = feats(10)
        a = beam_search_scored(model, f, BeamConfig(beam_width=5, max_len=MAX_LEN))
        b = beam_search_scored(model, f, BeamConfig(beam_width=5, max_len=MAX_LEN))
        assert a == b

    @pytest.mark.parametrize("field, value", [("beam_width", 0), ("max_len", 1),
                                              ("beam_width", 2.5), ("max_len", 3.5),
                                              ("max_len", 0), ("beam_width", None)])
    def test_config_validation(self, field, value):
        model = tiny_model("none", seed=10)
        cfg = BeamConfig(**{field: value})
        with pytest.raises(ConfigError, match=f"^{field} must be"):
            beam_search_scored(model, feats(10), cfg)
        with pytest.raises(ConfigError, match=f"^{field} must be"):
            beam_over(Stepper(model, feats(10)), cfg.beam_width, cfg.max_len)

    def test_fusion_decode_requires_mlm(self):
        # a fusion model decodes and rescores only against a draft
        model = tiny_model("cold", seed=11)
        with pytest.raises(ConfigError, match="use emend"):
            beam_search_scored(model, feats(0), BeamConfig(beam_width=1))
        with pytest.raises(ConfigError, match="use emend"):
            sequence_logprob(model, feats(0), [5, EOS_ID], mlm=tiny_mlm(11))
        with pytest.raises(ConfigError, match="use emend"):
            Stepper(model, feats(0))

    def test_features_of_more_than_one_image_are_rejected(self):
        baseline, fused = tiny_model("none", seed=13), tiny_model("cold", seed=13)
        mlm = tiny_mlm(13)
        draft = [START_ID, 5, 6, EOS_ID]
        for f in (np.ones((2, 4)), np.ones((1, 1, 4)), np.float64(1.0)):
            with pytest.raises(ShapeError, match="one image"):
                beam_search_scored(baseline, f, CAP)
            with pytest.raises(ShapeError, match="one image"):
                sequence_logprob(baseline, f, [5, EOS_ID])
            with pytest.raises(ShapeError, match="one image"):
                emend(fused, mlm, f, draft, CAP)
        f = feats(13)
        assert beam_search_scored(baseline, f[None], CAP) == beam_search_scored(baseline, f, CAP)
        assert emend(fused, mlm, f[None], draft, CAP) == emend(fused, mlm, f, draft, CAP)


class TestEmend:
    def test_empty_draft_rejected(self):
        model = tiny_model("cold", seed=12)
        with pytest.raises(InputError):
            emend(model, tiny_mlm(12), feats(0), [START_ID, EOS_ID])
        with pytest.raises(InputError):
            sequence_logprob(model, feats(0), [5, EOS_ID], mlm=tiny_mlm(12), draft=[EOS_ID])

    def test_missing_masked_lm_rejected(self):
        model = tiny_model("cold", seed=12)
        with pytest.raises(ConfigError):
            emend(model, None, feats(0), [5, 6, EOS_ID])
        with pytest.raises(ConfigError):
            sequence_logprob(model, feats(0), [5, EOS_ID], mlm=None, draft=[5, EOS_ID])

    def test_deterministic(self):
        model = tiny_model("cold", seed=13)
        mlm = tiny_mlm(13)
        draft = [5, 6, 7, EOS_ID]
        f = feats(13)
        assert emend(model, mlm, f, draft, CAP) == emend(model, mlm, f, draft, CAP)

    def test_zero_collapsed_gates_ignore_draft(self):
        # with all fusion parameters zero the features are zero and the
        # logits are the head's bias, constant in the MLM state, so the
        # emended output cannot depend on the draft
        model = tiny_model("cold", seed=14)
        rng = np.random.default_rng(0)
        for p in model.fusion.parameters():
            p.data[...] = 0.0
        model.head_b.data[...] = rng.normal(size=V)
        mlm = tiny_mlm(14)
        f = feats(14)
        out_a = emend(model, mlm, f, [5, 6, EOS_ID], CAP)
        out_b = emend(model, mlm, f, [7, 8, 9, 5, EOS_ID], CAP)
        assert out_a == out_b

    @pytest.mark.parametrize("kind", ["simple", "cold", "hier"])
    def test_a_zero_weight_masked_lm_removes_draft_dependence(self, kind):
        # the "no MLM" ablation: every row of a frozen all-zero MLM is +0.0
        model = tiny_model(kind, seed=15)
        mlm = tiny_mlm(15)
        for p in mlm.parameters():
            p.data[...] = 0.0
        mlm.freeze()
        f = feats(15)
        drafts = [[START_ID, 5, 6, EOS_ID], [START_ID, 8, 9, 7, 5, EOS_ID]]
        for draft, rows in zip(drafts, mlm_context_rows(mlm, drafts, append_row=True)):
            assert rows.shape == (len(draft), mlm.cfg.hidden_dim)
            assert not rows.any() and not np.signbit(rows).any()
        out_a = emend(model, mlm, f, drafts[0], CAP)
        out_b = emend(model, mlm, f, drafts[1], CAP)
        assert out_a == out_b

    @pytest.mark.parametrize("kind", ["simple", "cold", "hier"])
    def test_a_zero_weight_masked_lm_scores_a_caption_alike_for_every_draft(self, kind):
        model = tiny_model(kind, seed=16)
        mlm = tiny_mlm(16)
        for p in mlm.parameters():
            p.data[...] = 0.0
        mlm.freeze()
        f = feats(16)
        caption = [5, 6, 7, EOS_ID]
        scores = [sequence_logprob(model, f, caption, mlm=mlm, draft=draft)
                  for draft in ([5, EOS_ID], [8, 9, 7, 5, 6, EOS_ID])]
        assert np.isfinite(scores[0]) and scores[0] == scores[1]

    def test_emend_score_matches_rescoring(self):
        model = tiny_model("simple", seed=16)
        mlm = tiny_mlm(16)
        f = feats(16)
        draft = [5, 6, 7, EOS_ID]
        words = strip_specials(draft)
        wrapped = [START_ID] + words + [EOS_ID]
        stepper = EmendStepper(model, mlm, f, wrapped)
        tokens, score = beam_over(stepper, 3, MAX_LEN)
        got = sequence_logprob(model, f, tokens, mlm=mlm, draft=draft)
        assert score == pytest.approx(got, abs=1e-9)

    def test_mask_row_selection_shares_state_across_beam(self):
        # rows: one per in-place mask position plus one appended variant;
        # a long decode keeps using the appended row
        model = tiny_model("cold", seed=17)
        mlm = tiny_mlm(17)
        wrapped = [START_ID, 5, 6, EOS_ID]
        stepper = EmendStepper(model, mlm, feats(17), wrapped)
        assert stepper.rows.shape == (len(wrapped), mlm.cfg.hidden_dim)

    def test_strip_specials_keeps_unknown_words(self):
        assert strip_specials([5, UNK_ID, 6, EOS_ID]) == [5, UNK_ID, 6]
        assert strip_specials([START_ID, PAD_ID, MASK_ID, 5, EOS_ID]) == [5]

    @pytest.mark.parametrize("draft", [[5, UNK_ID, 6], [5, UNK_ID, 6, EOS_ID],
                                       [START_ID, 5, UNK_ID, 6, EOS_ID]])
    def test_unknown_word_keeps_its_draft_row(self, draft):
        # one row per masked position 1..4 of the wrapped draft, plus the
        # appended row; wrapping an already wrapped draft changes nothing
        model = tiny_model("cold", seed=27)
        mlm = tiny_mlm(27)
        stepper = EmendStepper(model, mlm, feats(27), draft)
        wrapped = [START_ID, 5, UNK_ID, 6, EOS_ID]
        assert np.array_equal(stepper.rows,
                              mlm_context_rows(mlm, [wrapped], append_row=True)[0])
        assert stepper.rows.shape == (len(wrapped), mlm.cfg.hidden_dim)

    def test_step_t_reads_draft_row_t_then_the_last_row(self):
        model = tiny_model("hier", seed=26)
        mlm = tiny_mlm(26)
        f = feats(26)
        wrapped = [START_ID, 5, 6, EOS_ID]
        rows = EmendStepper(model, mlm, f, wrapped).rows
        prefix = [START_ID, 5, 6, 7, 8, 9]  # two steps past the last row

        def logprobs(stepper):
            state, out = stepper.start(), []
            for tok in prefix:
                state, lp = stepper.step(state, np.array([tok]))
                out.append(lp[0])
            return out

        got = logprobs(EmendStepper(model, mlm, f, wrapped))
        for t in range(len(prefix)):
            constant = EmendStepper(model, mlm, f, wrapped)
            constant.rows = np.broadcast_to(rows[min(t, len(rows) - 1)], rows.shape)
            want = logprobs(constant)[t]
            assert np.array_equal(got[t], want), f"step {t}"

    def test_requires_fusion_model(self):
        model = tiny_model("none", 18)
        with pytest.raises(ConfigError, match="needs a fusion model"):
            EmendStepper(model, tiny_mlm(18), feats(0), [START_ID, 5, EOS_ID])
        with pytest.raises(ConfigError):
            emend(model, tiny_mlm(18), feats(0), [5, EOS_ID])
        with pytest.raises(ConfigError):
            sequence_logprob(model, feats(0), [5, EOS_ID], mlm=tiny_mlm(18), draft=[5, EOS_ID])

    def test_out_of_vocabulary_draft_rejected(self):
        model = tiny_model("cold", seed=19)
        mlm = tiny_mlm(19)
        mlm.freeze()
        f = feats(19)
        with pytest.raises(InputError, match=f"id {V}\\b"):
            emend(model, mlm, f, [5, V, EOS_ID])
        with pytest.raises(InputError, match=f"id {V + 3}\\b"):
            sequence_logprob(model, f, [5, EOS_ID], mlm=mlm, draft=[V + 3, 6, EOS_ID])
        # the draft is checked as given: strip_specials drops what is not a
        # word, so a check after it would drop an id of -1
        for bad in (5.5, "5", -1):
            draft = [bad, 6]
            with pytest.raises(InputError, match=re.escape(f"draft token id {bad!r}")):
                emend(model, mlm, f, draft, CAP)
            with pytest.raises(InputError, match=re.escape(f"draft token id {bad!r}")):
                sequence_logprob(model, f, [5, EOS_ID], mlm=mlm, draft=draft)
        assert mlm not in decoding._ROWS_CACHE
        assert emend(model, mlm, f, np.array([5, 6]), CAP) == emend(model, mlm, f, [5, 6], CAP)

    @pytest.mark.parametrize("draft", [[], [START_ID], [START_ID, EOS_ID],
                                       [PAD_ID, MASK_ID, EOS_ID]])
    def test_a_draft_without_words_is_rejected(self, draft):
        model = tiny_model("cold", seed=30)
        mlm = tiny_mlm(30)
        mlm.freeze()
        f = feats(30)
        with pytest.raises(InputError, match="draft caption is empty"):
            EmendStepper(model, mlm, f, draft)
        assert mlm not in decoding._ROWS_CACHE
        shortest = EmendStepper(model, mlm, f, [5])
        assert shortest.rows.shape == (3, 6)
        tokens, score = beam_over(shortest, 2, 3)
        assert tokens and np.isfinite(score)

    @pytest.mark.parametrize("kind", ["simple", "cold", "hier"])
    def test_masked_lm_of_another_width_is_rejected(self, kind):
        model = tiny_model(kind, seed=29)
        wide = MaskedLM(MlmConfig(vocab_size=V, embed_dim=5, hidden_dim=7),
                        np.random.default_rng(29))
        f = feats(29)
        with pytest.raises(ConfigError, match="hidden_dim 7 .* mlm_hidden_dim 6"):
            EmendStepper(model, wide, f, [START_ID, 5, 6, EOS_ID])
        with pytest.raises(ConfigError, match="hidden_dim 7"):
            emend(model, wide, f, [5, 6, EOS_ID])
        with pytest.raises(ConfigError, match="hidden_dim 7"):
            sequence_logprob(model, f, [5, EOS_ID], mlm=wide, draft=[5, 6, EOS_ID])

    @pytest.mark.parametrize("kind", ["simple", "cold", "hier"])
    @pytest.mark.parametrize("mlm_vocab", [V - 2, 2 * V])
    def test_masked_lm_of_another_vocabulary_is_rejected(self, kind, mlm_vocab):
        model = tiny_model(kind, seed=31)
        other = MaskedLM(MlmConfig(vocab_size=mlm_vocab, embed_dim=5, hidden_dim=6),
                         np.random.default_rng(31))
        f = feats(31)
        message = f"vocab_size {mlm_vocab} is not the model's vocab_size {V}"
        with pytest.raises(ConfigError, match=message):
            EmendStepper(model, other, f, [START_ID, 5, 6, EOS_ID])
        with pytest.raises(ConfigError, match=message):
            emend(model, other, f, [5, 6, EOS_ID], CAP)
        with pytest.raises(ConfigError, match=message):
            sequence_logprob(model, f, [5, EOS_ID], mlm=other, draft=[5, 6, EOS_ID])
        assert other not in decoding._ROWS_CACHE


def count_context_rows(monkeypatch) -> list:
    """Record every call decoding makes to mlm_context_rows."""
    calls = []
    original = decoding.mlm_context_rows

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(decoding, "mlm_context_rows", counted)
    return calls


class TestDraftRowsMemo:
    def test_memoized_rows_match_an_unfrozen_copy_and_encode_masked(self):
        mlm = tiny_mlm(21)
        twin = copy.deepcopy(mlm)
        mlm.freeze()
        wrapped = [START_ID, 5, 6, 7, EOS_ID]
        model = tiny_model("cold", seed=21)
        EmendStepper(model, mlm, feats(21), wrapped)
        rows = EmendStepper(model, mlm, feats(21), wrapped).rows
        assert rows is decoding._ROWS_CACHE[mlm][tuple(wrapped)]
        want = decoding.mlm_context_rows(twin, [wrapped], append_row=True)[0]
        assert rows.tobytes() == want.tobytes()
        # one row per masked position 1..L-1, then a mask inserted before <eos>
        variants = [wrapped[:p] + [MASK_ID] + wrapped[p + 1:] for p in range(1, len(wrapped))]
        variants.append(wrapped[:-1] + [MASK_ID] + wrapped[-1:])
        assert len(variants) == len(rows)
        for row, masked in zip(rows, variants):
            assert np.allclose(row, encode_masked(twin, masked).data[0], rtol=0, atol=1e-12)

    def test_one_encoding_serves_every_fusion_kind_and_the_rescorer(self, monkeypatch):
        calls = count_context_rows(monkeypatch)
        mlm = tiny_mlm(22)
        mlm.freeze()
        f = feats(22)
        draft = [5, 6, 7, EOS_ID]
        outs = {kind: emend(tiny_model(kind, seed=22), mlm, f, draft, CAP)
                for kind in ("simple", "cold", "hier")}
        sequence_logprob(tiny_model("hier", seed=22), f, outs["hier"], mlm=mlm, draft=draft)
        assert len(calls) == 1
        emend(tiny_model("simple", seed=22), mlm, f, [8, 9, EOS_ID], CAP)
        assert len(calls) == 2  # a new draft is encoded once more

    def test_a_repeated_draft_is_encoded_once_per_corpus(self, monkeypatch):
        calls = count_context_rows(monkeypatch)
        mlm = tiny_mlm(26)
        mlm.freeze()
        model = tiny_model("cold", seed=26)
        first = EmendStepper(model, mlm, feats(26), [START_ID, 5, 6, EOS_ID]).rows
        EmendStepper(model, mlm, feats(27), [START_ID, 7, EOS_ID])
        again = EmendStepper(model, mlm, feats(28), [START_ID, 5, 6, EOS_ID]).rows
        assert len(calls) == 2
        assert again is first

    def test_the_oldest_draft_is_evicted_at_capacity(self, monkeypatch):
        monkeypatch.setattr(decoding, "ROWS_CACHE_SIZE", 3)
        mlm = tiny_mlm(27)
        mlm.freeze()
        drafts = [[START_ID, w, EOS_ID] for w in (5, 6, 7, 8)]
        for d in drafts:
            decoding.draft_rows(mlm, d)
        assert list(decoding._ROWS_CACHE[mlm]) == [tuple(d) for d in drafts[1:]]
        calls = count_context_rows(monkeypatch)
        decoding.draft_rows(mlm, drafts[3])
        decoding.draft_rows(mlm, drafts[0])
        assert len(calls) == 1
        assert list(decoding._ROWS_CACHE[mlm]) == [tuple(d) for d in drafts[2:] + drafts[:1]]

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))])
    def test_a_frozen_mlm_and_its_copies_cannot_outdate_their_rows(self, clone):
        mlm = tiny_mlm(23)
        mlm.freeze()
        wrapped = [START_ID, 5, 6, EOS_ID]
        rows = decoding.draft_rows(mlm, wrapped)
        twin = clone(mlm)
        assert twin.frozen()
        assert not any(p.data.flags.writeable for p in twin.parameters())
        for m in (mlm, twin):
            with pytest.raises(ValueError):
                m.comb_b.data += 1.0
            with pytest.raises(StateError):
                m.comb_b.data = m.comb_b.data + 1.0
        assert twin.checksum() == mlm.checksum()
        fresh = mlm_context_rows(twin, [wrapped], append_row=True)[0]
        assert np.array_equal(decoding.draft_rows(twin, wrapped), fresh)
        assert np.array_equal(decoding.draft_rows(mlm, wrapped), fresh)
        assert decoding.draft_rows(mlm, wrapped) is rows

    def test_a_dropped_mlm_takes_its_rows_with_it(self):
        mlm = tiny_mlm(32)
        mlm.freeze()
        decoding.draft_rows(mlm, [START_ID, 5, EOS_ID])
        entries = len(decoding._ROWS_CACHE)
        gone = weakref.ref(mlm)
        del mlm
        assert gone() is None
        assert len(decoding._ROWS_CACHE) == entries - 1

    def test_unfrozen_mlm_encodes_for_every_stepper(self, monkeypatch):
        calls = count_context_rows(monkeypatch)
        mlm = tiny_mlm(24)
        wrapped = [START_ID, 5, 6, EOS_ID]
        for kind in ("simple", "cold", "hier"):
            EmendStepper(tiny_model(kind, seed=24), mlm, feats(24), wrapped)
        assert len(calls) == 3
        assert mlm not in decoding._ROWS_CACHE

    @pytest.mark.parametrize("frozen", [True, False])
    def test_rows_are_read_only(self, frozen):
        mlm = tiny_mlm(25)
        if frozen:
            mlm.freeze()
        rows = EmendStepper(tiny_model("cold", seed=25), mlm, feats(25),
                            [START_ID, 5, EOS_ID]).rows
        assert not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 1.0


class TestNonFiniteLogits:
    def test_nan_weight_raises_instead_of_an_empty_caption(self):
        model = tiny_model("none", seed=40)
        model.head_w.data[0, 5] = np.nan
        with pytest.raises(NumericError, match="step 0"):
            beam_search_scored(model, feats(40), BeamConfig(3, max_len=5))
        with pytest.raises(NumericError):
            sequence_logprob(model, feats(40), [5, EOS_ID])

    def test_nan_fusion_weight_raises(self):
        model = tiny_model("simple", seed=41)
        model.fusion.gate_w.data[0, 0] = np.nan
        mlm = tiny_mlm(41)
        mlm.freeze()
        with pytest.raises(NumericError):
            emend(model, mlm, feats(41), [5, 6, EOS_ID], BeamConfig(3, max_len=MAX_LEN))
        with pytest.raises(NumericError):
            sequence_logprob(model, feats(41), [5, EOS_ID], mlm=mlm, draft=[5, 6, EOS_ID])

    def test_plus_inf_raises_and_minus_inf_stays_legal(self):
        model = tiny_model("none", seed=42)
        model.head_b.data[7] = -np.inf
        tokens, score = beam_search_scored(model, feats(42), BeamConfig(3, max_len=5))
        assert tokens and 7 not in tokens and np.isfinite(score)
        assert sequence_logprob(model, feats(42), tokens) == pytest.approx(score, abs=1e-9)
        assert sequence_logprob(model, feats(42), [7, EOS_ID]) == -np.inf
        model.head_b.data[8] = np.inf
        with pytest.raises(NumericError):
            beam_search_scored(model, feats(42), BeamConfig(3, max_len=5))
        with pytest.raises(NumericError):
            sequence_logprob(model, feats(42), tokens)

    @pytest.mark.parametrize("kind", ["none", "cold"])
    @pytest.mark.parametrize("which", ["every", "every emittable"])
    def test_a_step_with_no_emittable_finite_logit_raises(self, kind, which):
        # an empty caption scored 0.0 and outranked every real one
        model = tiny_model(kind, seed=43)
        emittable = [t for t in range(V) if t not in decoding.BLOCKED_IDS]
        model.head_b.data[slice(None) if which == "every" else emittable] = -np.inf
        mlm = tiny_mlm(43)
        mlm.freeze()
        extra = {} if kind == "none" else {"mlm": mlm, "draft": [5, 6, EOS_ID]}
        with pytest.raises(NumericError, match="logits of step 0 leave a row no emittable"):
            if kind == "none":
                beam_search_scored(model, feats(43), CAP)
            else:
                emend(model, mlm, feats(43), [5, 6, EOS_ID], CAP)
        with pytest.raises(NumericError, match="logits of steps 0-1 leave a row no emittable"):
            sequence_logprob(model, feats(43), [5, EOS_ID], **extra)


class TestRescoringOracle:
    """sequence_logprob, one teacher-forced pass, against stepped_logprob,
    the beam's own Stepper.step fed one token at a time."""

    @pytest.mark.parametrize("kind", ["none", "simple", "cold", "hier"])
    def test_teacher_forced_equals_the_stepped_score(self, kind):
        mlm = tiny_mlm(50)
        mlm.freeze()
        rng = np.random.default_rng(50)
        draft = [START_ID, 5, 6, EOS_ID]  # 4 rows; the 9-token captions read past them
        extra = {} if kind == "none" else {"mlm": mlm, "draft": draft}
        emitted = [t for t in range(V) if t not in decoding.BLOCKED_IDS]
        for seed in range(3):
            model = tiny_model(kind, seed=50 + seed)
            f = feats(50 + seed)
            for n in (1, 3, 9):
                tokens = [int(t) for t in rng.choice(emitted, n - 1)] + [EOS_ID]
                got = sequence_logprob(model, f, tokens, **extra)
                want = stepped_logprob(model, f, tokens, **extra)
                assert np.isfinite(got) and abs(got - want) <= 1e-9, (seed, tokens)
            for blocked in (PAD_ID, START_ID, MASK_ID):
                tokens = [5, 6, blocked, 7, 8, 9, 5, 6, EOS_ID]
                got = sequence_logprob(model, f, tokens, **extra)
                assert got == stepped_logprob(model, f, tokens, **extra) == -np.inf

    @pytest.mark.parametrize("kind", ["none", "hier"])
    def test_a_list_a_tuple_and_an_array_score_alike(self, kind):
        mlm = tiny_mlm(51)
        mlm.freeze()
        extra = {} if kind == "none" else {"mlm": mlm, "draft": np.array([5, 6, EOS_ID])}
        model = tiny_model(kind, seed=51)
        tokens = [5, 7, EOS_ID]
        scores = [sequence_logprob(model, feats(51), t, **extra)
                  for t in (tokens, tuple(tokens), np.array(tokens))]
        assert np.isfinite(scores[0]) and scores == [scores[0]] * 3
        with pytest.raises(InputError, match="empty sequence"):
            sequence_logprob(model, feats(51), np.array([], dtype=np.int64), **extra)


def test_steps_and_context_rows_build_no_graph(monkeypatch):
    created = []
    init = Tensor.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        created.append(self)

    monkeypatch.setattr(Tensor, "__init__", recording)
    mlm = tiny_mlm(43)  # unfrozen: every parameter requires a gradient
    wrapped = [START_ID, 5, 6, EOS_ID]
    for kind in ("none", "simple", "cold", "hier"):
        model = tiny_model(kind, seed=43)
        stepper = (Stepper(model, feats(43)) if kind == "none"
                   else EmendStepper(model, mlm, feats(43), wrapped))
        created.clear()
        state = stepper.start()
        for tok in (START_ID, 5, 6):
            state, _ = stepper.step(state, np.array([tok]))
        state = stepper.select(state, np.array([0, 0, 0]))
        state, _ = stepper.step(state, np.array([5, 6, 7]))
        draft = {} if kind == "none" else {"mlm": mlm, "draft": wrapped}
        assert np.isfinite(sequence_logprob(model, feats(43), [5, 6, 7, 8, 9, EOS_ID], **draft))
        assert created == []
    created.clear()
    mlm_context_rows(mlm, [wrapped, [START_ID, 7, EOS_ID]], append_row=True)
    assert created == []
