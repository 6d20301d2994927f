"""Fusion layers combining decoder and masked-LM hidden states into features.

Three schemes are supported. Simple fusion concatenates both states and
applies one gated projection. Cold fusion first projects the LM state, gates
it with a learned relu gate, and re-projects the concatenation. Hierarchical
fusion applies two elementwise relu gates to the concatenated states and
stacks two gated-linear-unit layers. All gates use relu. A scheme returns
features of width FusionLayer.out_dim; CaptionModel owns the model's one
dropout + vocabulary head, which reads the fused features of a fusion model
and the top decoder state of a baseline model.

Each scheme is written once over the forward ops of autodiff: given plain
arrays, as a beam step passes, it returns arrays and records no graph; given
Tensors, as training passes, it records a graph.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .autodiff import Parameter, affine, concat, dropout, glu, relu
from .errors import ConfigError, check_int
from .models import (
    CaptionDecoder,
    MaskedLM,
    MlmConfig,
    ModelConfig,
    ParamStore,
    xavier_uniform,
)


class FusionKind(str, Enum):
    NONE = "none"
    SIMPLE = "simple"
    COLD = "cold"
    HIER = "hier"

    @classmethod
    def from_name(cls, name: str) -> "FusionKind":
        try:
            return cls(name)
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise ConfigError(f"unknown fusion kind {name!r}; valid: {valid}") from None


class FusionLayer(ParamStore):
    """Trainable fusion parameters for one scheme; out_dim is the width of
    its features."""

    def __init__(self, kind: FusionKind, cfg: ModelConfig, rng: np.random.Generator):
        if kind == FusionKind.NONE:
            raise ConfigError("fusion kind 'none' has no fusion layer")
        self.kind = kind
        h, m, d = cfg.hidden_dim, cfg.mlm_hidden_dim, cfg.fusion_dim
        if kind == FusionKind.SIMPLE:
            self.gate_w = Parameter("fusion.sf.gate.W", xavier_uniform(rng, h + m, d))
            self.gate_b = Parameter("fusion.sf.gate.b", np.zeros(d))
            out_dim = d
        elif kind == FusionKind.COLD:
            self.lm_w = Parameter("fusion.cf.lm_proj.W", xavier_uniform(rng, m, d))
            self.lm_b = Parameter("fusion.cf.lm_proj.b", np.zeros(d))
            self.gate_w = Parameter("fusion.cf.gate.W", xavier_uniform(rng, h + d, d))
            self.gate_b = Parameter("fusion.cf.gate.b", np.zeros(d))
            self.merge_w = Parameter("fusion.cf.merge.W", xavier_uniform(rng, h + d, d))
            self.merge_b = Parameter("fusion.cf.merge.b", np.zeros(d))
            out_dim = d
        else:  # hierarchical
            full = m + h
            self.left_w = Parameter("fusion.hf.left.W", xavier_uniform(rng, full, full))
            self.left_b = Parameter("fusion.hf.left.b", np.zeros(full))
            self.right_w = Parameter("fusion.hf.right.W", xavier_uniform(rng, full, full))
            self.right_b = Parameter("fusion.hf.right.b", np.zeros(full))
            self.expand_w = Parameter("fusion.hf.expand.W", xavier_uniform(rng, full, 2 * full))
            self.expand_b = Parameter("fusion.hf.expand.b", np.zeros(2 * full))
            out_dim = full
        self.out_dim = out_dim

    # -- schemes: each returns the fused features -------------------------------

    def _simple(self, h_lstm, h_mlm):
        """Relu-gated projection of the concatenated hidden states."""
        return relu(affine(concat(h_lstm, h_mlm), self.gate_w, self.gate_b))

    def _cold(self, h_lstm, h_mlm):
        """Gated modulation of a projected LM state, then a merge projection."""
        h_lm = relu(affine(h_mlm, self.lm_w, self.lm_b))
        gate = relu(affine(concat(h_lstm, h_lm), self.gate_w, self.gate_b))
        h_cf = concat(h_lstm, gate * h_lm)
        return relu(affine(h_cf, self.merge_w, self.merge_b))

    def _hier(self, h_lstm, h_mlm):
        """Dual relu gates over the concatenation, then two GLU stages.

        Note the concatenation order here puts the LM state first.
        """
        h_c = concat(h_mlm, h_lstm)
        g_left = relu(affine(h_c, self.left_w, self.left_b)) * h_c
        g_right = h_c * relu(affine(h_c, self.right_w, self.right_b))
        g_c = glu(concat(g_left, g_right))
        return glu(affine(g_c, self.expand_w, self.expand_b))

    _SCHEMES = {FusionKind.SIMPLE: _simple, FusionKind.COLD: _cold, FusionKind.HIER: _hier}

    def fuse(self, h_lstm, h_mlm):
        """The scheme's features: a Tensor from Tensors, a plain array from
        plain arrays."""
        return self._SCHEMES[self.kind](self, h_lstm, h_mlm)


class CaptionModel(ParamStore):
    """Decoder, optional fusion layer and the model's one vocabulary head;
    the unit that gets checkpointed. parameters() is the trainable set:
    decoder, fusion layer, then head, in the order they are drawn."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        cfg.validate()
        self.cfg = cfg
        self.kind = FusionKind.from_name(cfg.fusion_kind)
        self.decoder = CaptionDecoder(cfg, rng)
        self.fusion = None if self.kind == FusionKind.NONE else FusionLayer(self.kind, cfg, rng)
        width = cfg.hidden_dim if self.fusion is None else self.fusion.out_dim
        self.head_w = Parameter("head.W", xavier_uniform(rng, width, cfg.vocab_size))
        self.head_b = Parameter("head.b", np.zeros(cfg.vocab_size))

    def step_logits(self, h_top, h_mlm, rng=None):
        """Next-token logits: the head over the top decoder state, or over
        the fusion layer's features of it and masked-LM state h_mlm, after
        dropout when given an rng (training)."""
        if self.fusion is not None and h_mlm is None:
            raise ConfigError("fusion model needs a masked-LM state per step")
        features = h_top if self.fusion is None else self.fusion.fuse(h_top, h_mlm)
        return affine(dropout(features, self.cfg.dropout, rng), self.head_w, self.head_b)

    def needs_mlm(self) -> bool:
        return self.fusion is not None


def _rng(seed: int) -> np.random.Generator:
    check_int("seed", seed, 0)
    return np.random.default_rng(np.random.SeedSequence(seed))


def build_model(cfg: ModelConfig, seed: int) -> CaptionModel:
    return CaptionModel(cfg, _rng(seed))


def build_mlm(cfg: MlmConfig, seed: int) -> MaskedLM:
    return MaskedLM(cfg, _rng(seed))
