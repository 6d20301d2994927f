import copy
import pickle
import re

import numpy as np
import pytest

from capfuse.autodiff import (
    Parameter,
    Tensor,
    gather_rows,
    lstm_seq,
    params_checksum,
    softmax_xent,
)
from capfuse import models
from capfuse.errors import ConfigError, InputError, ShapeError, StateError
from capfuse.fusion import build_model
from capfuse.models import (
    EOS_ID,
    MASK_ID,
    START_ID,
    CaptionDecoder,
    LstmCell,
    MaskedLM,
    MlmConfig,
    MlmPretrainConfig,
    ModelConfig,
    _masked_batch_loss,
    _padded_batch,
    mlm_context_rows,
    mlm_masked_accuracy,
    mlm_pretrain,
)
from oracles import (add, encode_masked, grad_check, lstm_seq_all_rows, lstm_step_graph,
                     masked_batch_loss_graph, stack_step_graph, total)

V = 12


def tiny_cfg(**kw):
    base = dict(vocab_size=V, feature_dim=5, embed_dim=6, hidden_dim=7,
                mlm_hidden_dim=7, fusion_dim=7, dropout=0.0)
    base.update(kw)
    return ModelConfig(**base)


def tiny_decoder(seed=0, **kw):
    return CaptionDecoder(tiny_cfg(**kw), np.random.default_rng(seed))


def tiny_mlm(seed=0):
    return MaskedLM(MlmConfig(vocab_size=V, embed_dim=6, hidden_dim=7),
                    np.random.default_rng(seed))


class TestDecoderStep:
    def test_zero_weights_zero_state_gives_zero_hidden(self):
        dec = tiny_decoder()
        for p in dec.parameters():
            p.data[...] = 0.0
        h, _ = dec.step(np.zeros((1, dec.cfg.embed_dim)), dec.initial_state(1))
        assert np.array_equal(h, np.zeros((1, dec.cfg.hidden_dim)))

    def test_cell_state_grows_with_saturated_gates(self):
        # Open input and forget gates, fix a positive candidate, and check the
        # cell state accumulates tanh(1) per step, matching the recurrence
        # iterated by hand.
        cell = LstmCell("c", 3, 4, np.random.default_rng(0))
        cell.wx.data[...] = 0.0
        cell.wh.data[...] = 0.0
        b = np.zeros(16)
        b[0:4] = 50.0   # input gate ~ 1
        b[4:8] = 50.0   # forget gate ~ 1
        b[8:12] = 1.0   # candidate = tanh(1)
        cell.b.data[...] = b
        h = c = np.zeros((1, 4))
        x = np.ones((1, 3))
        expected = 0.0
        prev = 0.0
        for _ in range(3):
            h, c = cell.step(x, h, c)
            expected = expected + np.tanh(1.0)
            assert np.allclose(c, expected, atol=1e-8)
            assert c.min() > prev
            prev = c.min()

    @staticmethod
    def cell_case(seed, batch, in_dim=5, hidden=4, spread=2.0):
        rng = np.random.default_rng(seed)
        cell = LstmCell("c", in_dim, hidden, rng)
        for p in (cell.wx, cell.wh, cell.b):
            p.data[...] = rng.uniform(-spread, spread, p.data.shape)
        xhc = [Tensor(rng.uniform(-spread, spread, (batch, d)), requires_grad=True)
               for d in (in_dim, hidden, hidden)]
        return cell, xhc

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_array_step_matches_graph_step(self, seed, batch):
        cell, xhc = self.cell_case(seed, batch)
        in_graph = lstm_step_graph(cell, *xhc)
        assert all(t._parents for t in in_graph)
        fused = cell.step(*(t.data for t in xhc))
        for a, b in zip(fused, in_graph):
            assert type(a) is np.ndarray and np.array_equal(a, b.data)

    def test_array_step_is_one_numpy_pass(self, monkeypatch):
        cell, xhc = self.cell_case(3, 2)
        arrays = [t.data for t in xhc]

        def no_tensor(*_):
            raise AssertionError("a step on arrays made a Tensor")

        monkeypatch.setattr(Tensor, "__init__", no_tensor)
        assert all(type(a) is np.ndarray for a in cell.step(*arrays))

    def test_saturated_inputs_stay_finite(self):
        cell, xhc = self.cell_case(6, 3, spread=1000.0)
        for t in (cell.wx, cell.wh, cell.b, *xhc):
            t.data[...] = np.sign(t.data) * 1000.0
        x = Tensor(np.concatenate([xhc[0].data] * 4), requires_grad=True)
        hs = lstm_seq(x, 3, cell.wx, cell.wh, cell.b, np.full(3, 3))
        total(hs * hs).backward()
        outs = cell.step(*(t.data for t in xhc))
        grads = [t.grad for t in (cell.wx, cell.wh, cell.b, x)]
        assert all(np.isfinite(a).all() for a in [hs.data, *grads, *outs])

    def test_four_step_sequence_gradient(self):
        # teacher forcing of a ragged batch of two captions from Tensor
        # features: one encode_image, one gather, one lstm_seq per layer,
        # the model's head and cross-entropy; the image rows are step 0, so
        # the image projection is checked with the rest
        model = build_model(tiny_cfg(), seed=3)
        dec = model.decoder
        features = Tensor(np.random.default_rng(3).normal(size=(2, dec.cfg.feature_dim)))
        seqs = [[START_ID, 5, 6, 7], [START_ID, 9]]
        targets = np.array([5, 6, 7, 8, 9, EOS_ID])

        def loss_fn(*params):
            h = dec.teacher_forced(features, seqs)
            loss = softmax_xent(model.step_logits(h, None), targets)
            # linear probe: lifts every gradient coordinate by exactly 1e-3 so
            # central differences can resolve it; the ad-vs-fd difference that
            # the check measures is unaffected by a linear term
            for p in params:
                loss = add(loss, total(p) * Tensor(1e-3))
            return loss

        err = grad_check(loss_fn, model.parameters())
        assert err <= 1e-4
        for p in model.parameters():
            p.grad = None
        loss_fn().backward()
        assert all(np.abs(p.grad).sum() > 0 for p in (dec.img_w, dec.img_b))

        # plain features give the graph's values, and CaptionDecoder.step
        # from each image gives the same states
        rows = dec.teacher_forced(features.data, seqs)
        assert type(rows) is np.ndarray
        assert rows.tobytes() == dec.teacher_forced(features, seqs).data.tobytes()
        stepped = []
        for image, seq in zip(features.data, seqs):
            _, state = dec.step(dec.encode_image(image), dec.initial_state(1))
            for tok in seq:
                h, state = dec.step(dec.embed.data[[tok]], state)
                stepped.append(h[0])
        assert np.allclose(rows, stepped, rtol=0, atol=1e-15)

    def test_causality_future_token_perturbation(self):
        # a later token, in one caption or in another of the batch, leaves
        # every earlier row bit-identical
        dec = tiny_decoder(seed=4)
        features = np.random.default_rng(4).normal(size=(2, dec.cfg.feature_dim))
        other = [START_ID, 9, 10]
        toks_a = [START_ID, 5, 6, 7, 8]
        toks_b = [START_ID, 5, 6, 9, 8]  # differs at position 3
        ha = dec.teacher_forced(features, [toks_a, other])
        hb = dec.teacher_forced(features, [toks_b, other])
        assert ha[:3].tobytes() == hb[:3].tobytes()
        assert ha[5:].tobytes() == hb[5:].tobytes()
        assert not np.array_equal(ha[3], hb[3])
        alone = [dec.teacher_forced(features[:1], [t]) for t in (toks_a, toks_b)]
        assert alone[0][:3].tobytes() == alone[1][:3].tobytes()
        assert not np.array_equal(alone[0][3], alone[1][3])


class TestTeacherForced:
    """CaptionDecoder.teacher_forced: the top state after every input token
    of a padded batch, sequence-major."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_ragged_batch_equals_per_caption_calls(self, seed):
        dec = tiny_decoder(seed=20 + seed)
        rng = np.random.default_rng(seed)
        features = rng.normal(size=(3, dec.cfg.feature_dim))
        seqs = [[START_ID] + [int(t) for t in rng.integers(5, V, n - 1)] for n in (1, 4, 7)]
        batched = dec.teacher_forced(features, seqs)
        assert batched.shape == (1 + 4 + 7, dec.cfg.hidden_dim)
        singles = np.concatenate([dec.teacher_forced(f, [s]) for f, s in zip(features, seqs)])
        assert np.allclose(batched, singles, rtol=0, atol=1e-12)
        order = [2, 0, 1]  # the rows follow the captions' order
        shuffled = dec.teacher_forced(features[order], [seqs[i] for i in order])
        assert np.allclose(shuffled, np.concatenate([singles[5:], singles[:1], singles[1:5]]),
                           rtol=0, atol=1e-12)

    def test_one_unroll_per_layer_and_no_cell_step(self, monkeypatch):
        calls = []
        original = models.lstm_seq

        def counted(x, batch, wx, wh, b, last):
            calls.append((x.shape, batch, list(last)))
            return original(x, batch, wx, wh, b, last)

        def step(*_):
            raise AssertionError("teacher forcing stepped an LstmCell")

        monkeypatch.setattr(models, "lstm_seq", counted)
        monkeypatch.setattr(LstmCell, "step", step)
        dec = tiny_decoder(seed=22)
        h = dec.teacher_forced(np.ones((2, dec.cfg.feature_dim)), [[START_ID, 5, 6], [7]])
        assert h.shape == (4, dec.cfg.hidden_dim)
        # image step plus 3 padded token steps, 2 captions each; each caption
        # is stepped up to the state after its last token, step lens
        assert calls == [((8, width), 2, [3, 1])
                         for width in (dec.cfg.embed_dim, dec.cfg.hidden_dim)]

    def test_bad_inputs_raise_typed_errors(self):
        dec = tiny_decoder(seed=23)
        f = np.ones((2, dec.cfg.feature_dim))
        with pytest.raises(ShapeError, match="2 feature rows for 1 captions"):
            dec.teacher_forced(f, [[START_ID, 5]])
        for empty, none in ((f, [[], []]), (f[:0], [])):
            with pytest.raises(ShapeError, match="zero-sized"):
                dec.teacher_forced(empty, none)
        for bad in (-1, V):
            with pytest.raises(InputError, match=f"id {bad}\\b"):
                dec.teacher_forced(f, [[START_ID, 5], [START_ID, bad]])
        for bad in (5.5, "5", np.float64(5.0)):
            with pytest.raises(InputError, match=re.escape(f"id {bad!r} is not an integer")):
                dec.teacher_forced(f, [[START_ID, 5], [START_ID, bad]])
        assert np.array_equal(dec.teacher_forced(f, [[START_ID, 5], [START_ID, np.int64(5)]]),
                              dec.teacher_forced(f, [[START_ID, 5], [START_ID, 5]]))
        with pytest.raises(ConfigError):
            dec.teacher_forced(np.ones((2, dec.cfg.feature_dim + 1)), [[START_ID], [START_ID]])
        assert dec.teacher_forced(f, [[], [START_ID, 5]]).shape == (2, dec.cfg.hidden_dim)


class TestEncodeImage:
    def test_zero_features_zero_weights_gives_bias(self):
        dec = tiny_decoder()
        dec.img_w.data[...] = 0.0
        dec.img_b.data[...] = np.arange(dec.cfg.embed_dim, dtype=float)
        out = dec.encode_image(np.zeros(dec.cfg.feature_dim))
        assert np.array_equal(out[0], np.arange(dec.cfg.embed_dim, dtype=float))

    def test_arrays_give_the_array_of_the_graph_path(self):
        dec = tiny_decoder(seed=1)
        feats = np.random.default_rng(9).normal(size=dec.cfg.feature_dim)
        a = dec.encode_image(feats)
        b = dec.encode_image(Tensor(feats[None]))
        assert type(a) is np.ndarray and b._parents
        assert a.tobytes() == b.data.tobytes() == dec.encode_image(feats).tobytes()

    def test_dim_mismatch(self):
        dec = tiny_decoder()
        with pytest.raises(ConfigError):
            dec.encode_image(np.zeros(dec.cfg.feature_dim + 1))

    def test_gradient_reaches_projector(self):
        dec = tiny_decoder(seed=2)
        feats = np.random.default_rng(0).normal(size=dec.cfg.feature_dim)
        out = dec.encode_image(Tensor(feats[None]))
        total(out * out).backward()
        assert dec.img_w.grad is not None
        assert np.abs(dec.img_w.grad).sum() > 0


class TestMaskedLM:
    def test_single_mask_token_sequence(self):
        mlm = tiny_mlm()
        out = encode_masked(mlm, [MASK_ID])
        # both context encoders see nothing, so the state is just the bias
        # path through the combiner applied to zeros
        assert out.shape == (1, mlm.cfg.hidden_dim)
        assert np.isfinite(out.data).all()
        zeros = Tensor(np.zeros((1, 2 * mlm.cfg.hidden_dim)))
        from capfuse.autodiff import affine
        expect = affine(zeros, mlm.comb_w, mlm.comb_b).data
        assert np.array_equal(out.data, expect)

    def test_mask_count_errors(self):
        mlm = tiny_mlm()
        with pytest.raises(InputError):
            encode_masked(mlm, [5, 6, 7])
        with pytest.raises(InputError):
            encode_masked(mlm, [MASK_ID, 6, MASK_ID])

    def test_bidirectional_dependence(self):
        mlm = tiny_mlm(seed=5)
        base = encode_masked(mlm, [START_ID, 5, MASK_ID, 6, EOS_ID]).data
        left = encode_masked(mlm, [START_ID, 7, MASK_ID, 6, EOS_ID]).data
        right = encode_masked(mlm, [START_ID, 5, MASK_ID, 8, EOS_ID]).data
        assert not np.array_equal(base, left)
        assert not np.array_equal(base, right)

    def test_deterministic_output(self):
        mlm = tiny_mlm(seed=6)
        seq = [START_ID, 5, MASK_ID, 6, EOS_ID]
        assert np.array_equal(encode_masked(mlm, seq).data, encode_masked(mlm, seq).data)

    def test_context_rows_match_encode_masked(self):
        mlm = tiny_mlm(seed=7)
        seq = [START_ID, 5, 6, 7, EOS_ID]
        rows = mlm_context_rows(mlm, [seq])[0]
        assert rows.shape == (len(seq) - 1, mlm.cfg.hidden_dim)
        for p in range(1, len(seq)):
            masked = seq.copy()
            masked[p] = MASK_ID
            direct = encode_masked(mlm, masked).data[0]
            assert np.allclose(rows[p - 1], direct, atol=1e-12)

    def test_append_row_matches_inserted_mask(self):
        mlm = tiny_mlm(seed=8)
        seq = [START_ID, 5, 6, EOS_ID]
        rows = mlm_context_rows(mlm, [seq], append_row=True)[0]
        assert rows.shape[0] == len(seq)
        inserted = [START_ID, 5, 6, MASK_ID, EOS_ID]
        direct = encode_masked(mlm, inserted).data[0]
        assert np.allclose(rows[-1], direct, atol=1e-12)

    def test_context_rows_batched_vs_single(self):
        mlm = tiny_mlm(seed=9)
        seqs = [[START_ID, 5, EOS_ID], [START_ID, 6, 7, 8, EOS_ID],
                [START_ID, 9, 10, EOS_ID]]
        batched = mlm_context_rows(mlm, seqs)
        singles = [mlm_context_rows(mlm, [s])[0] for s in seqs]
        for b, s in zip(batched, singles):
            assert np.allclose(b, s, atol=1e-12)


def ragged_batches():
    rng = np.random.default_rng(30)
    big = [int(n) for n in rng.integers(2, 12, 64)]
    big[7] = 2
    return [[2], [9], [5, 2, 8], big]


def random_captions(lengths, seed):
    rng = np.random.default_rng(seed)
    return [[START_ID] + [int(t) for t in rng.integers(5, V, n - 2)] + [EOS_ID]
            for n in lengths]


class TestLayerMajorEncoder:
    @pytest.mark.parametrize("lengths", ragged_batches(), ids=lambda n: f"B{len(n)}")
    def test_matches_the_step_major_composite(self, lengths):
        mlm = tiny_mlm(seed=31)  # unfrozen, so both forms record a graph
        toks, rev, _ = _padded_batch(random_captions(lengths, len(lengths)))
        batch = len(lengths)
        for cells, matrix in ((mlm.fwd, toks), (mlm.bwd, rev)):
            zeros = Tensor(np.zeros((batch, mlm.cfg.hidden_dim)))
            state = [(zeros, zeros)] * mlm.LAYERS
            tops = []
            for t in range(matrix.shape[1]):
                top, state = stack_step_graph(cells, gather_rows(mlm.embed, matrix[:, t]), state)
                tops.append(top.data)
            ids = matrix.T.ravel()  # time-major
            x, graph = mlm.embed.data[ids], gather_rows(mlm.embed, ids)
            every = np.full(batch, matrix.shape[1] - 1)
            for cell in cells:
                x = lstm_seq(x, batch, cell.wx, cell.wh, cell.b, every)
                graph = lstm_seq(graph, batch, cell.wx, cell.wh, cell.b, every)
            assert graph._parents and graph.data.tobytes() == x.tobytes()
            assert np.allclose(x, np.concatenate(tops), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("append_row", [False, True])
    @pytest.mark.parametrize("lengths", ragged_batches(), ids=lambda n: f"B{len(n)}")
    def test_batched_rows_equal_per_sequence_rows(self, lengths, append_row):
        mlm = tiny_mlm(seed=32)
        mlm.freeze()
        seqs = random_captions(lengths, 100 + len(lengths))
        batched = mlm_context_rows(mlm, seqs, append_row=append_row)
        assert len(batched) == len(seqs)
        for k, (seq, rows) in enumerate(zip(seqs, batched)):
            single = mlm_context_rows(mlm, [seq], append_row=append_row)[0]
            assert rows.shape == (len(seq) - 1 + append_row, mlm.cfg.hidden_dim)
            assert np.allclose(rows, single, rtol=0, atol=1e-12)
            if k < 3:
                variants = [seq[:p] + [MASK_ID] + seq[p + 1:] for p in range(1, len(seq))]
                if append_row:
                    variants.append(seq[:-1] + [MASK_ID] + seq[-1:])
                want = np.concatenate([encode_masked(mlm, v).data for v in variants])
                assert np.allclose(rows, want, rtol=0, atol=1e-12)

    def test_chunked_rows_equal_one_batch(self, monkeypatch):
        mlm = tiny_mlm(seed=34)
        mlm.freeze()
        seqs = random_captions(ragged_batches()[-1], 34)
        whole = mlm_context_rows(mlm, seqs, append_row=True)
        monkeypatch.setattr(models, "ROWS_CHUNK", 7)
        chunked = mlm_context_rows(mlm, seqs, append_row=True)
        assert len(chunked) == len(whole) == len(seqs)
        for a, b in zip(chunked, whole):
            assert np.allclose(a, b, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("chunk", [models.ROWS_CHUNK, 1])
    def test_an_empty_sequence_gives_no_rows(self, chunk, monkeypatch):
        mlm = tiny_mlm(seed=35)
        monkeypatch.setattr(models, "ROWS_CHUNK", chunk)
        seq, width = [START_ID, 5, EOS_ID], mlm.cfg.hidden_dim
        for append_row in (False, True):
            (alone,) = mlm_context_rows(mlm, [[]], append_row)
            empty, rows = mlm_context_rows(mlm, [[], seq], append_row)
            assert alone.shape == empty.shape == (0, width)
            single = mlm_context_rows(mlm, [seq], append_row)[0]
            assert rows.shape == single.shape == (len(seq) - 1 + append_row, width)
            assert np.allclose(rows, single, rtol=0, atol=1e-12)
        assert mlm_masked_accuracy(mlm, [[]]) == 0.0

    def test_wrapped_drafts_get_the_all_rows_projection_bits(self, monkeypatch):
        # a default-size MLM, each draft alone and all in one batch; alone, a
        # one-word draft's backward direction steps one row at step 0 only,
        # whose projection must not be a one-row product
        mlm = MaskedLM(MlmConfig(vocab_size=V), np.random.default_rng(36))
        mlm.freeze()
        rng = np.random.default_rng(37)
        drafts = [[START_ID] + [int(t) for t in rng.integers(5, V, n)] + [EOS_ID]
                  for n in (1, 2, 5)]
        calls = [[d] for d in drafts] + [drafts]
        got = [mlm_context_rows(mlm, seqs, append_row=True) for seqs in calls]
        monkeypatch.setattr(models, "lstm_seq", lstm_seq_all_rows)
        want = [mlm_context_rows(mlm, seqs, append_row=True) for seqs in calls]
        assert [[r.tobytes() for r in rows] for rows in got] == \
            [[r.tobytes() for r in rows] for rows in want]

    def test_context_rows_run_no_cell_step(self, monkeypatch):
        def step(*_):
            raise AssertionError("context rows stepped an LstmCell")

        monkeypatch.setattr(LstmCell, "step", step)
        mlm = tiny_mlm(seed=33)
        rows = mlm_context_rows(mlm, [[START_ID, 5, 6, EOS_ID], [START_ID, EOS_ID]])
        assert [r.shape[0] for r in rows] == [3, 1]


class TestMaskedLossReadsTheContextRows:
    """Pretraining and decoding read the same MLM state for a masked position:
    _masked_batch_loss equals the head's cross-entropy over row p - 1 of
    mlm_context_rows."""

    @pytest.mark.parametrize("on_eos", [False, True])
    @pytest.mark.parametrize("lengths", [n for n in ragged_batches() if len(n) >= 2],
                             ids=lambda n: f"B{len(n)}")
    def test_loss_equals_the_cross_entropy_of_the_rows(self, lengths, on_eos):
        mlm = tiny_mlm(seed=36)
        seqs = random_captions(lengths, 200 + len(lengths))
        rng = np.random.default_rng(len(lengths))
        positions = np.array([len(s) - 1 if on_eos else int(rng.integers(1, len(s)))
                              for s in seqs])
        positions[0] = len(seqs[0]) - 1  # the mask on <eos>
        rows = mlm_context_rows(mlm, seqs)
        states = np.stack([r[p - 1] for r, p in zip(rows, positions)])
        targets = np.array([s[p] for s, p in zip(seqs, positions)])
        assert targets[0] == EOS_ID
        want = softmax_xent(mlm.head_logits(states), targets)
        graph = _masked_batch_loss(mlm, mlm.embed, seqs, positions)
        assert graph._parents
        assert abs(graph.item() - want) <= 1e-12


class TestMaskedLossGraph:
    """_masked_batch_loss records one lstm_seq node per layer and direction;
    its gradients are those of the step-major composite."""

    @staticmethod
    def case(lengths, seed, last):
        seqs = random_captions(lengths, seed)
        rng = np.random.default_rng(seed)
        positions = np.array([len(s) - 1 if last else int(rng.integers(1, len(s)))
                              for s in seqs])
        positions[0] = 1
        return seqs, positions

    @pytest.mark.parametrize("last", [False, True], ids=["random", "last"])
    @pytest.mark.parametrize("lengths", ragged_batches(), ids=lambda n: f"B{len(n)}")
    def test_gradients_equal_the_step_major_composite(self, lengths, last):
        seqs, positions = self.case(lengths, 40 + len(lengths), last)
        grads = []
        for loss in (lambda m: _masked_batch_loss(m, m.embed, seqs, positions),
                     lambda m: masked_batch_loss_graph(m, seqs, positions)):
            mlm = tiny_mlm(seed=40)
            value = loss(mlm)
            value.backward()
            grads.append((value.item(), [p.grad for p in mlm.parameters()]))
        (got, got_grads), (want, want_grads) = grads
        assert got == pytest.approx(want, rel=1e-12)
        for g, w in zip(got_grads, want_grads):
            np.testing.assert_allclose(g, w, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("lengths, last", [([2], False), ([7], True), ([2, 6, 4], False),
                                               ([5, 2, 3], True)])
    def test_cell_gradients_vs_finite_differences(self, lengths, last):
        # masks at position 1 (the first caption) and at the last token
        seqs, positions = self.case(lengths, 50 + len(lengths), last)
        mlm = MaskedLM(MlmConfig(vocab_size=V, embed_dim=3, hidden_dim=3),
                       np.random.default_rng(len(lengths)))
        params = [p for cell in mlm.fwd + mlm.bwd for p in (cell.wx, cell.wh, cell.b)]
        assert grad_check(lambda *_: _masked_batch_loss(mlm, mlm.embed, seqs, positions),
                          params) <= 1e-6

    def test_frozen_mlm_unchanged_by_a_backward_through_it(self):
        mlm = tiny_mlm(seed=15)
        mlm.freeze()
        before = params_checksum(mlm.parameters())
        x = Tensor(np.random.default_rng(15).normal(size=(6, mlm.cfg.embed_dim)),
                   requires_grad=True)  # 3 steps of 2 sequences
        top = x
        for cell in mlm.fwd:
            top = lstm_seq(top, 2, cell.wx, cell.wh, cell.b, np.array([2, 2]))
        total(top * top).backward()
        assert x.grad is not None and np.abs(x.grad).sum() > 0
        assert all(p.grad is None for p in mlm.parameters())
        assert params_checksum(mlm.parameters()) == before

    def test_a_frozen_mlm_refuses_to_rebind_its_weights_and_cells(self):
        from capfuse.decoding import draft_rows

        mlm = tiny_mlm(seed=17)
        mlm.freeze()
        wrapped = [START_ID, 5, 6, EOS_ID]
        rows = draft_rows(mlm, wrapped)
        before = mlm.checksum()
        for frozen in (mlm, copy.deepcopy(mlm), pickle.loads(pickle.dumps(mlm))):
            with pytest.raises(StateError, match="MaskedLM.comb_b is bound once.* rebound"):
                frozen.comb_b = Parameter("mlm.combine.b", np.ones(mlm.cfg.hidden_dim))
            with pytest.raises(StateError, match="LstmCell.wx is bound once.* rebound"):
                frozen.fwd[0].wx = Parameter("mlm.fwd0.Wx", np.zeros_like(mlm.fwd[0].wx.data))
            with pytest.raises(StateError, match="fwd is bound once and cannot be rebound"):
                frozen.fwd = frozen.bwd
            with pytest.raises(TypeError):
                frozen.fwd[0] = frozen.bwd[0]
        assert mlm.frozen() and mlm.checksum() == before
        assert draft_rows(mlm, wrapped) is rows
        assert np.array_equal(rows, mlm_context_rows(mlm, [wrapped], append_row=True)[0])

    def test_an_unfrozen_model_refuses_to_rebind_so_freeze_reaches_every_weight(self):
        # a weight rebound after the model is built would not be the one that
        # an optimizer built over parameters() holds and updates
        mlm = tiny_mlm(seed=18)
        dec = CaptionDecoder(ModelConfig(vocab_size=V, feature_dim=3, embed_dim=4,
                                         hidden_dim=5), np.random.default_rng(18))
        with pytest.raises(StateError, match="MaskedLM.comb_b is bound once"):
            mlm.comb_b = Parameter("mlm.combine.b", np.ones(mlm.cfg.hidden_dim))
        with pytest.raises(StateError, match="LstmCell.b is bound once"):
            mlm.bwd[1].b = Parameter("mlm.bwd1.b", np.ones(4 * mlm.cfg.hidden_dim))
        with pytest.raises(StateError, match="CaptionDecoder.embed .* cannot be deleted"):
            del dec.embed
        with pytest.raises(TypeError):
            dec.cells[0] = dec.cells[1]
        model = build_model(tiny_cfg(fusion_kind="cold"), seed=18)
        with pytest.raises(StateError, match="CaptionModel.fusion is bound once.* rebound"):
            model.fusion = None
        with pytest.raises(StateError, match="CaptionModel.head_w is bound once.* rebound"):
            model.head_w = Parameter("head.W", np.zeros_like(model.head_w.data))
        for attr in ("fusion", "head_w"):
            with pytest.raises(StateError, match=f"CaptionModel.{attr} .* cannot be deleted"):
                delattr(model, attr)
        mlm.freeze()
        assert all(p.frozen for p in (mlm.comb_b, mlm.bwd[1].b))
        before = mlm.checksum()
        with pytest.raises(ValueError):
            mlm.comb_b.data += 1.0
        assert mlm.checksum() == before


def reachable_parameters(obj) -> dict[int, Parameter]:
    """Every Parameter reachable from obj through attributes and tuples, by id;
    classes are not entered."""
    found, seen, stack = {}, set(), [obj]
    while stack:
        x = stack.pop()
        if id(x) in seen or isinstance(x, type):
            continue
        seen.add(id(x))
        if isinstance(x, Parameter):
            found[id(x)] = x
        elif isinstance(x, tuple):
            stack.extend(x)
        elif hasattr(x, "__dict__"):
            stack.extend(vars(x).values())
    return found


class TestParameters:
    """A model's parameters are its attributes, read off the model."""

    @pytest.mark.parametrize("kind", ["decoder", "mlm", "none", "simple", "cold", "hier"])
    def test_the_names_of_a_models_parameters_are_distinct_and_cover_its_weights(self, kind):
        model = {"decoder": tiny_decoder, "mlm": tiny_mlm}.get(
            kind, lambda: build_model(tiny_cfg(fusion_kind=kind), seed=0))()
        names = [p.name for p in model.parameters()]
        assert len(names) == len(set(names))
        assert sorted(map(id, model.parameters())) == sorted(reachable_parameters(model))

    @pytest.mark.parametrize("kind", ["none", "simple", "cold", "hier"])
    def test_a_teacher_forced_loss_reaches_every_parameter(self, kind):
        # parameters() is the trainable set: no weight of a caption model is
        # left unread by its loss, so none is drawn for nothing
        model = build_model(tiny_cfg(fusion_kind=kind), seed=19)
        rng = np.random.default_rng(19)
        features = Tensor(rng.normal(size=(2, model.cfg.feature_dim)))
        h = model.decoder.teacher_forced(features, [[START_ID, 5, 6, 7], [START_ID, 9]])
        h_mlm = None if kind == "none" else Tensor(rng.uniform(-1, 1, (h.shape[0], 7)))
        targets = np.array([5, 6, 7, 8, 9, EOS_ID])
        softmax_xent(model.step_logits(h, h_mlm), targets).backward()
        for p in model.parameters():
            assert p.grad is not None and np.abs(p.grad).sum() > 0, p.name

    def test_freeze_freezes_every_weight_the_model_computes_with(self):
        mlm = tiny_mlm(seed=20)
        seqs, positions = random_captions([4, 6], 20), np.array([1, 5])
        assert _masked_batch_loss(mlm, mlm.embed, seqs, positions)._parents
        mlm.freeze()
        assert mlm.frozen() and all(p.frozen for p in reachable_parameters(mlm).values())
        # an op records a node only if a parent requires a gradient, so a loss
        # with no node has read no weight that freeze() missed
        loss = _masked_batch_loss(mlm, mlm.embed, seqs, positions)
        assert not loss.requires_grad and loss._parents == ()


SHORT_CORPUS = [[START_ID, 5, 7, EOS_ID], [START_ID, 6, 8, 9, EOS_ID],
                [START_ID, 7, EOS_ID], [START_ID, 5, 6, EOS_ID]]


class TestMlmPretrain:
    def test_two_epochs_reproduce_recorded_losses(self):
        # recorded with the two-branch sigmoid; pins the arithmetic of the
        # training step, whose sigmoid now goes through tanh
        rng = np.random.default_rng(11)
        corpus = [[START_ID] + [int(t) for t in rng.integers(5, V, int(rng.integers(1, 8)))]
                  + [EOS_ID] for _ in range(40)]
        _, report = mlm_pretrain(tiny_mlm(seed=12), corpus,
                                 MlmPretrainConfig(epochs=2, lr=3e-3, batch_size=8, seed=1))
        assert report.initial_loss == pytest.approx(2.483898762986212, rel=1e-9)
        assert report.epoch_losses == pytest.approx(
            [2.4809887422280865, 2.4669663251875464], rel=1e-9)

    # initial_loss, each epoch loss as float.hex and the MLM checksum of one
    # tiny pretraining run: the bits of the training core's forward, backward
    # and Adam. They were taken with numpy 2.4 on OpenBLAS (2 threads, x86-64);
    # another BLAS or kernel choice may differ in the last bits, and a change
    # that moves them says why.
    GOLDEN_PRETRAIN = ("0x1.3e1509328403ap+1", ["0x1.3d10ecf677e7ep+1", "0x1.3bcb92283a37bp+1"],
                       "3ecb5e910c32fe2bba9df43796648fc1a4c223be5a509702bf7d272642bbba54")

    def test_two_epochs_keep_their_pinned_bits(self):
        corpus = random_captions(ragged_batches()[-1], 61)
        mlm, report = mlm_pretrain(tiny_mlm(seed=62), corpus,
                                   MlmPretrainConfig(epochs=2, lr=3e-3, batch_size=16, seed=63))
        assert (report.initial_loss.hex(), [x.hex() for x in report.epoch_losses],
                mlm.checksum()) == self.GOLDEN_PRETRAIN

    def test_initial_loss_is_the_masked_loss_at_position_1_of_the_first_batch(self):
        corpus = random_captions(ragged_batches()[-1], 37)
        cfg = MlmPretrainConfig(epochs=1, batch_size=5, seed=2)
        probe = corpus[:cfg.batch_size]
        mlm = tiny_mlm(seed=37)
        want = _masked_batch_loss(mlm, mlm.embed, probe, np.ones(len(probe), dtype=np.int64))
        _, report = mlm_pretrain(mlm, corpus, cfg)
        assert abs(report.initial_loss - want.item()) <= 1e-12

    def test_memorizes_repeated_sentence(self):
        mlm = tiny_mlm(seed=10)
        seq = [START_ID, 5, 6, 7, EOS_ID]
        corpus = [seq] * 8
        mlm, report = mlm_pretrain(
            mlm, corpus, MlmPretrainConfig(epochs=50, lr=1e-2, batch_size=8, seed=0)
        )
        assert mlm_masked_accuracy(mlm, [seq]) == 1.0
        assert report.epoch_losses[-1] < report.initial_loss

    def test_loss_drops_after_first_epoch(self):
        rng = np.random.default_rng(11)
        # structured corpus: token t is always followed by t+1
        corpus = []
        for _ in range(40):
            start = int(rng.integers(5, 8))
            corpus.append([START_ID, start, start + 1, start + 2, EOS_ID])
        mlm = tiny_mlm(seed=12)
        mlm, report = mlm_pretrain(
            mlm, corpus, MlmPretrainConfig(epochs=2, lr=3e-3, batch_size=8, seed=1)
        )
        assert report.initial_loss == pytest.approx(np.log(V), rel=0.25)
        assert report.epoch_losses[0] < report.initial_loss

    def test_all_parameters_frozen_after_training(self):
        mlm = tiny_mlm(seed=13)
        corpus = [[START_ID, 5, 6, EOS_ID]] * 4
        mlm, _ = mlm_pretrain(mlm, corpus, MlmPretrainConfig(epochs=1, batch_size=4))
        assert mlm.frozen()
        assert all(not p.requires_grad for p in mlm.parameters())

    @pytest.mark.parametrize("field, value", [("epochs", 0), ("epochs", -1),
                                              ("batch_size", 0), ("batch_size", -2),
                                              ("epochs", 1.5), ("batch_size", 2.5),
                                              ("seed", -1), ("seed", 1.5)])
    def test_bad_epochs_batch_size_or_seed_rejected(self, field, value):
        mlm = tiny_mlm(seed=16)
        before = mlm.checksum()
        cfg = MlmPretrainConfig(epochs=1, batch_size=4)
        setattr(cfg, field, value)
        least = 0 if field == "seed" else 1
        want = f"an integer, got {value}" if value % 1 else f"at least {least}, got {value}"
        with pytest.raises(ConfigError, match=f"{field} must be {want}"):
            mlm_pretrain(mlm, [[START_ID, 5, 6, EOS_ID]] * 4, cfg)
        assert not mlm.frozen() and mlm.checksum() == before

    @pytest.mark.parametrize("lr", [float("nan"), "a", None, 0.0])
    def test_a_bad_learning_rate_raises_before_any_parameter_changes(self, lr):
        mlm = tiny_mlm(seed=19)
        before = mlm.checksum()
        with pytest.raises(ConfigError, match="^learning rate must be finite and positive"):
            MlmPretrainConfig(lr=lr).validate()
        with pytest.raises(ConfigError, match="^learning rate must be finite and positive"):
            mlm_pretrain(mlm, SHORT_CORPUS, MlmPretrainConfig(epochs=1, lr=lr))
        assert mlm.checksum() == before and not mlm.frozen()

    def test_empty_corpus_rejected(self):
        with pytest.raises(InputError):
            mlm_pretrain(tiny_mlm(), [], MlmPretrainConfig(epochs=1))

    def test_already_frozen_rejected(self):
        mlm = tiny_mlm()
        mlm.freeze()
        with pytest.raises(StateError):
            mlm_pretrain(mlm, [[START_ID, 5, EOS_ID]], MlmPretrainConfig(epochs=1))

    def test_a_batch_masking_only_the_last_token_trains(self):
        # with batch_size 1, a caption masked at its last token reads no
        # backward state, so the backward encoder gets gradient zero
        for seed in range(20):
            mlm = MaskedLM(MlmConfig(V, embed_dim=8, hidden_dim=8), np.random.default_rng(0))
            mlm, report = mlm_pretrain(mlm, SHORT_CORPUS,
                                       MlmPretrainConfig(epochs=2, batch_size=1, seed=seed))
            assert mlm.frozen() and np.isfinite(report.epoch_losses).all()

    @pytest.mark.parametrize("bad", [-1, V, 5.5, "a", np.float64(5.0)], ids=repr)
    def test_ids_outside_the_vocabulary_raise_before_any_update(self, bad):
        # 0 <= 5.5 < V, so a range check alone would encode 5.5 as token 5
        mlm = tiny_mlm(seed=38)
        before = mlm.checksum()
        seq = [START_ID, bad, EOS_ID]
        match = re.escape(f"token id {bad} is outside the vocabulary of {V}"
                          if isinstance(bad, int) else f"token id {bad!r} is not an integer")
        with pytest.raises(InputError, match=match):
            mlm_context_rows(mlm, [[START_ID, 5, EOS_ID], seq])
        with pytest.raises(InputError, match=match):
            mlm_masked_accuracy(mlm, [seq])
        for seed in range(6):
            with pytest.raises(InputError, match=match):
                mlm_pretrain(mlm, SHORT_CORPUS + [seq],
                             MlmPretrainConfig(epochs=2, batch_size=2, seed=seed))
        assert mlm.checksum() == before and not mlm.frozen()
        assert np.array_equal(mlm_context_rows(mlm, [[1, np.int64(5), 2]])[0],
                              mlm_context_rows(mlm, [[1, 5, 2]])[0])

    def test_checksum_stable_after_freeze(self):
        mlm = tiny_mlm(seed=14)
        corpus = [[START_ID, 5, 6, EOS_ID]] * 4
        mlm, _ = mlm_pretrain(mlm, corpus, MlmPretrainConfig(epochs=1, batch_size=4))
        before = mlm.checksum()
        # encoding afterwards must not change any parameter
        encode_masked(mlm, [START_ID, MASK_ID, EOS_ID])
        mlm_context_rows(mlm, [[START_ID, 5, 6, EOS_ID]])
        assert mlm.checksum() == before
