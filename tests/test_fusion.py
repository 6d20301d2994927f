import numpy as np
import pytest

from capfuse.autodiff import Tensor, affine, dropout, relu, softmax_xent
from capfuse.errors import ConfigError
from capfuse.fusion import CaptionModel, FusionKind, FusionLayer, build_mlm, build_model
from capfuse.models import (CaptionDecoder, MaskedLM, MlmConfig, ModelConfig, START_ID,
                            xavier_uniform)
from oracles import add, encode_masked, fusion_features, grad_check, total

V = 11


def tiny_cfg(kind="simple", **kw):
    base = dict(vocab_size=V, feature_dim=4, embed_dim=5, hidden_dim=6,
                mlm_hidden_dim=7, fusion_dim=6,
                fusion_kind=kind, dropout=0.0)
    base.update(kw)
    return ModelConfig(**base)


def layer(kind, seed=0):
    return FusionLayer(FusionKind(kind), tiny_cfg(kind), np.random.default_rng(seed))


def states(seed=0):
    rng = np.random.default_rng(seed)
    h_lstm = Tensor(rng.uniform(-1, 1, size=(1, 6)), requires_grad=True)
    h_mlm = Tensor(rng.uniform(-1, 1, size=(1, 7)), requires_grad=True)
    return h_lstm, h_mlm


def caption_model(kind, seed=0, **kw):
    return build_model(tiny_cfg(kind, **kw), seed)


def zero_params(fl):
    for p in fl.parameters():
        p.data[...] = 0.0


def end_to_end_loss(m, target):
    """Cross-entropy of m's logits plus a linear probe that lifts every
    gradient coordinate by 1e-3, so central differences can resolve it."""
    def f(*args):
        loss = softmax_xent(m.step_logits(args[0], args[1]), np.array([target]))
        for p in args:
            loss = add(loss, total(p) * Tensor(1e-3))
        return loss

    return f


class TestZeroCollapse:
    @pytest.mark.parametrize("kind", ["simple", "cold", "hier"])
    def test_logits_equal_head_bias_bit_exact(self, kind):
        m = caption_model(kind)
        zero_params(m.fusion)
        m.head_b.data[...] = np.random.default_rng(42).normal(size=V)
        h_lstm, h_mlm = states(1)
        assert np.array_equal(m.step_logits(h_lstm, h_mlm).data[0], m.head_b.data)
        fused = m.fusion.fuse(h_lstm, h_mlm).data
        assert np.array_equal(fused, np.zeros_like(fused))

    def test_cold_intermediate_structure(self):
        fl = layer("cold")
        zero_params(fl)
        h_lstm, h_mlm = states(2)
        h_lm = relu(affine(h_mlm, fl.lm_w, fl.lm_b))
        assert np.array_equal(h_lm.data, np.zeros((1, 6)))


class TestSimpleFusion:
    def test_relu_identity_on_nonnegative_concat(self):
        # W set to the identity block over the concatenated input reproduces
        # [h_lstm; h_mlm] exactly when the inputs are non-negative
        cfg = tiny_cfg("simple", fusion_dim=13)  # 6 + 7
        fl = FusionLayer(FusionKind.SIMPLE, cfg, np.random.default_rng(0))
        fl.gate_w.data[...] = np.eye(13)
        fl.gate_b.data[...] = 0.0
        rng = np.random.default_rng(3)
        h_lstm = Tensor(rng.uniform(0, 1, size=(1, 6)))
        h_mlm = Tensor(rng.uniform(0, 1, size=(1, 7)))
        expect = np.concatenate([h_lstm.data, h_mlm.data], axis=-1)
        assert np.array_equal(fl.fuse(h_lstm, h_mlm).data, expect)

    def test_end_to_end_gradient(self):
        m = caption_model("simple", seed=4)
        h_lstm, h_mlm = states(5)
        inputs = [h_lstm, h_mlm] + m.fusion.parameters() + [m.head_w, m.head_b]
        assert grad_check(end_to_end_loss(m, 3), inputs) <= 1e-4


class TestColdFusion:
    def test_gate_closed_removes_mlm_contribution(self):
        fl = layer("cold", seed=6)
        fl.gate_b.data[...] = -1e6  # relu gate forced shut
        h_lstm, h_mlm = states(7)
        out = fl.fuse(h_lstm, h_mlm)
        # with the gate closed, swapping the MLM state changes nothing
        other = Tensor(np.random.default_rng(8).uniform(-1, 1, size=(1, 7)))
        out2 = fl.fuse(h_lstm, other)
        assert np.array_equal(out.data, out2.data)

    def test_end_to_end_gradient(self):
        m = caption_model("cold", seed=9)
        h_lstm, h_mlm = states(10)
        inputs = [h_lstm, h_mlm] + m.fusion.parameters() + [m.head_w, m.head_b]
        assert grad_check(end_to_end_loss(m, 2), inputs) <= 1e-4


class TestHierFusion:
    def test_concat_order_mlm_first(self):
        # the concatenation is [h_mlm; h_lstm]; with square inputs of equal
        # dims, swapping the inputs must change the output for generic weights
        cfg = tiny_cfg("hier", hidden_dim=6, mlm_hidden_dim=6)
        fl = FusionLayer(FusionKind.HIER, cfg, np.random.default_rng(11))
        rng = np.random.default_rng(12)
        a = Tensor(rng.uniform(-1, 1, size=(1, 6)))
        b = Tensor(rng.uniform(-1, 1, size=(1, 6)))
        out_ab = fl.fuse(a, b).data
        out_ba = fl.fuse(b, a).data
        assert not np.array_equal(out_ab, out_ba)

    def test_glu_dimension_contract(self):
        fl = layer("hier", seed=13)
        h_lstm, h_mlm = states(14)
        assert fl.fuse(h_lstm, h_mlm).shape == (1, fl.out_dim) == (1, 6 + 7)

    def test_end_to_end_gradient(self):
        m = caption_model("hier", seed=15)
        h_lstm, h_mlm = states(16)
        inputs = [h_lstm, h_mlm] + m.fusion.parameters() + [m.head_w, m.head_b]
        assert grad_check(end_to_end_loss(m, 5), inputs) <= 1e-4


class TestDispatch:
    def test_dispatch_matches_scheme(self):
        h_lstm, h_mlm = states(18)
        for kind in ("simple", "cold", "hier"):
            m = caption_model(kind, seed=17)
            fused = getattr(m.fusion, f"_{kind}")(h_lstm, h_mlm)
            assert np.array_equal(m.fusion.fuse(h_lstm, h_mlm).data, fused.data)
            assert np.array_equal(m.step_logits(h_lstm, h_mlm).data,
                                  affine(fused, m.head_w, m.head_b).data)

    @pytest.mark.parametrize("kind", ["none", "simple", "cold", "hier"])
    def test_training_drops_out_the_features_once_before_the_head(self, kind):
        m = caption_model(kind, seed=31, dropout=0.5)
        h_lstm, h_mlm = (s.data for s in states(32))
        logits = m.step_logits(h_lstm, h_mlm, np.random.default_rng(33))
        features = h_lstm if m.fusion is None else m.fusion.fuse(h_lstm, h_mlm)
        dropped = dropout(features, 0.5, np.random.default_rng(33))
        assert (dropped == 0.0).any()
        assert np.array_equal(logits, affine(dropped, m.head_w, m.head_b))
        # without an rng, at inference, the features reach the head whole
        assert np.array_equal(m.step_logits(h_lstm, h_mlm), affine(features, m.head_w, m.head_b))

    def test_all_schemes_emit_vocab_logits(self):
        h_lstm, h_mlm = states(19)
        for kind in ("simple", "cold", "hier"):
            assert caption_model(kind, seed=20).step_logits(h_lstm, h_mlm).shape == (1, V)

    def test_argmax_shift_invariance(self):
        m = caption_model("cold", seed=21)
        h_lstm, h_mlm = states(22)
        logits = m.step_logits(h_lstm, h_mlm).data
        shifted = logits + 7.5
        assert logits.argmax() == shifted.argmax()

    def test_none_kind_rejected(self):
        with pytest.raises(ConfigError):
            FusionLayer(FusionKind.NONE, tiny_cfg("none"), np.random.default_rng(0))

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_bad_seed_rejected(self, seed):
        for build, cfg in ((build_model, tiny_cfg()), (build_mlm, MlmConfig(V))):
            with pytest.raises(ConfigError, match="^seed must be"):
                build(cfg, seed)

    def test_a_dimension_that_is_not_an_integer_is_rejected(self):
        with pytest.raises(ConfigError, match="^hidden_dim must be an integer, got 16.5"):
            build_model(tiny_cfg(hidden_dim=16.5), 0)
        with pytest.raises(ConfigError, match="^hidden_dim must be an integer, got 2.5"):
            build_mlm(MlmConfig(V, hidden_dim=2.5), 0)

    @pytest.mark.parametrize("rate", ["x", None, 1.0, -0.5, float("nan")])
    def test_a_dropout_that_is_not_a_number_in_0_to_1_is_rejected(self, rate):
        with pytest.raises(ConfigError, match=r"^dropout must be in \[0, 1\), got "):
            build_model(tiny_cfg(dropout=rate), 0)

    def test_kind_name_round_trip(self):
        for kind in FusionKind:
            assert FusionKind.from_name(kind.value) is kind
        with pytest.raises(ConfigError, match="simple"):
            FusionKind.from_name("bogus")


class TestEquations:
    @pytest.mark.parametrize("rows", [1, 4])
    @pytest.mark.parametrize("kind", ["simple", "cold", "hier"])
    def test_arrays_and_tensors_give_the_logits_of_the_equations(self, kind, rows):
        m = caption_model(kind, seed=30 + rows)
        rng = np.random.default_rng(rows)
        h_lstm, h_mlm = rng.uniform(-1, 1, (rows, 6)), rng.uniform(-1, 1, (rows, 7))
        on_arrays = m.step_logits(h_lstm, h_mlm)
        on_tensors = m.step_logits(Tensor(h_lstm, requires_grad=True), Tensor(h_mlm))
        expect = fusion_features(m.fusion, h_lstm, h_mlm) @ m.head_w.data + m.head_b.data
        assert np.allclose(on_arrays, expect, rtol=0, atol=1e-12)
        assert on_tensors._parents and np.array_equal(on_tensors.data, on_arrays)


class TestProperties:
    def test_gate_nonnegativity(self):
        rng = np.random.default_rng(23)
        for kind in ("simple", "cold"):
            fl = layer(kind, seed=24)
            h_lstm = Tensor(rng.uniform(-2, 2, size=(1, 6)))
            h_mlm = Tensor(rng.uniform(-2, 2, size=(1, 7)))
            assert fl.fuse(h_lstm, h_mlm).data.min() >= 0.0

    def test_gradient_completeness_and_mlm_isolation(self):
        mlm = MaskedLM(MlmConfig(vocab_size=V, embed_dim=5, hidden_dim=7),
                       np.random.default_rng(25))
        mlm.freeze()
        m = caption_model("cold", seed=26)
        h_lstm = Tensor(np.random.default_rng(27).uniform(-1, 1, (1, 6)),
                        requires_grad=True)
        h_mlm = encode_masked(mlm, [START_ID, 5, 4, 6])  # 4 is the mask id
        loss = softmax_xent(m.step_logits(h_lstm, h_mlm), np.array([1]))
        loss.backward()
        for p in m.fusion.parameters() + [m.head_w, m.head_b]:
            assert p.grad is not None, p.name
        for p in mlm.parameters():
            assert p.grad is None, p.name

    def test_scheme_separation(self):
        h_lstm, h_mlm = states(28)
        outs = [layer(k, seed=29).fuse(h_lstm, h_mlm).data
                for k in ("simple", "cold", "hier")]
        assert not np.array_equal(outs[0], outs[1])
        assert not np.array_equal(outs[0], outs[2])
        assert not np.array_equal(outs[1], outs[2])


class TestCaptionModel:
    def test_baseline_has_no_fusion(self):
        model = build_model(tiny_cfg("none"), seed=0)
        assert model.fusion is None
        assert not model.needs_mlm()

    def test_fusion_params_namespaced(self):
        model = build_model(tiny_cfg("cold"), seed=1)
        names = [p.name for p in model.parameters()]
        assert any(n.startswith("fusion.cf.") for n in names)
        assert len(names) == len(set(names))

    @pytest.mark.parametrize("kind", ["none", "simple", "cold", "hier"])
    def test_one_vocabulary_head_of_the_feature_width_comes_last(self, kind):
        model = build_model(tiny_cfg(kind), seed=2)
        params = model.parameters()
        assert [p.name for p in params if "head" in p.name] == ["head.W", "head.b"]
        assert params[-2] is model.head_w and params[-1] is model.head_b
        width = 6 if model.fusion is None else model.fusion.out_dim
        assert model.head_w.shape == (width, V) and model.head_b.shape == (V,)

    def test_the_baseline_draws_its_head_right_after_the_decoder(self):
        # the draw order of a baseline model is the decoder's, then the head
        cfg = tiny_cfg("none")
        model = CaptionModel(cfg, np.random.default_rng(3))
        rng = np.random.default_rng(3)
        decoder = CaptionDecoder(cfg, rng)
        assert [p.data.tobytes() for p in model.decoder.parameters()] == [
            p.data.tobytes() for p in decoder.parameters()]
        assert np.array_equal(model.head_w.data, xavier_uniform(rng, 6, V))

    def test_step_logits_requires_mlm_state(self):
        model = build_model(tiny_cfg("hier"), seed=4)
        h = Tensor(np.zeros((1, 6)))
        with pytest.raises(ConfigError):
            model.step_logits(h, None)
