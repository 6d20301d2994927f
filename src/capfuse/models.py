"""Neural models: LSTM caption decoder and the frozen bidirectional masked LM.

The decoder consumes a projected image feature vector at step 0 and then its
token sequence; it exposes the top-layer hidden state at every step. The
masked LM encodes a sequence with exactly one mask token by running a forward
recurrent encoder over the tokens left of the mask and a backward encoder over
the tokens right of it, combining both context states with an affine layer.

Image projections, steps, heads and affine layers follow the rule of
autodiff's forward ops: a plain-array activation gives plain arrays and
records no graph, and a Tensor activation records a graph. An LSTM step on
arrays is the one cell kernel, autodiff.lstm_step(x @ Wx, h, c, Wh, b); a step
on Tensors (pretraining) is built from elementary autodiff nodes.
mlm_pretrain builds a graph only for its updates; its initial loss, like every
read of a frozen MLM, comes from mlm_context_rows on arrays. It ends by
freezing the MLM, and freezing is final (autodiff.Parameter.freeze): a frozen
MLM and every copy of it keep their values for good.
MaskedLM._encode_states, the layer-major encoder of mlm_context_rows, runs the
kernel too (one [T*B x E] @ Wx per layer and direction, then a loop of h @ Wh
and the kernel), and the context rows are gathered from its [T x B x H]
states by one fancy index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .autodiff import (
    Adam,
    Parameter,
    Tensor,
    affine,
    concat_last,
    dropout,
    gather_rows,
    lstm_step,
    params_checksum,
    slice_last,
    softmax_xent_rows,
)
from .data import EOS_ID, MASK_ID, PAD_ID, START_ID, UNK_ID  # noqa: F401 (re-exported)
from .errors import ConfigError, InputError, StateError


@dataclass
class ModelConfig:
    """Dimensions and knobs shared by the decoder, fusion layer, and MLM."""

    vocab_size: int
    feature_dim: int = 64
    embed_dim: int = 64
    hidden_dim: int = 128
    mlm_hidden_dim: int = 128
    fusion_kind: str = "none"
    fusion_dim: int = 128
    dropout: float = 0.5
    max_len: int = 40

    def validate(self):
        for name in ("vocab_size", "feature_dim", "embed_dim", "hidden_dim",
                     "mlm_hidden_dim", "fusion_dim", "max_len"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if not (0.0 <= self.dropout < 1.0):
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout}")
        if self.vocab_size <= MASK_ID:
            raise ConfigError("vocab_size must cover the special token ids")


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class ParamStore:
    """Mixin keeping a name -> Parameter registry with unique names."""

    def __init__(self):
        self.params: dict[str, Parameter] = {}

    def _param(self, name: str, data: np.ndarray) -> Parameter:
        if name in self.params:
            raise ConfigError(f"duplicate parameter name {name!r}")
        p = Parameter(name, data)
        self.params[name] = p
        return p

    def parameters(self) -> list[Parameter]:
        return list(self.params.values())

    def checksum(self) -> str:
        return params_checksum(self.parameters())


class LstmCell:
    """Single LSTM layer; gate order is (input, forget, candidate, output).

    A step on plain arrays is one autodiff.lstm_step pass and records no
    graph; a step on Tensors is built from elementary autodiff nodes with the
    same arithmetic, each sigmoid through tanh, bit for bit."""

    def __init__(self, store: ParamStore, prefix: str, in_dim: int, hidden: int,
                 rng: np.random.Generator):
        self.hidden = hidden
        self.wx = store._param(f"{prefix}.Wx", xavier_uniform(rng, in_dim, 4 * hidden))
        self.wh = store._param(f"{prefix}.Wh", xavier_uniform(rng, hidden, 4 * hidden))
        bias = np.zeros(4 * hidden)
        bias[hidden:2 * hidden] = 1.0  # forget gate open at init
        self.b = store._param(f"{prefix}.b", bias)

    def step(self, x, h, c):
        """(h_new, c_new): plain arrays from plain arrays, Tensors from Tensors."""
        if not isinstance(x, Tensor):
            return lstm_step(x @ self.wx.data, h, c, self.wh.data, self.b.data)
        z = (x @ self.wx) + (h @ self.wh) + self.b
        n = self.hidden
        i = slice_last(z, 0, n).sigmoid()
        f = slice_last(z, n, 2 * n).sigmoid()
        g = slice_last(z, 2 * n, 3 * n).tanh()
        o = slice_last(z, 3 * n, 4 * n).sigmoid()
        c_new = (f * c) + (i * g)
        h_new = o * c_new.tanh()
        return h_new, c_new


def _zero_state(layers: int, batch: int, hidden: int):
    return [(Tensor(np.zeros((batch, hidden))), Tensor(np.zeros((batch, hidden))))
            for _ in range(layers)]


def _stack_step(cells: list[LstmCell], x: Tensor, state):
    """Advance stacked LSTM layers one step; returns the top-layer hidden
    state and the new per-layer (h, c) states."""
    new_state = []
    inp = x
    for cell, (h, c) in zip(cells, state):
        h_new, c_new = cell.step(inp, h, c)
        new_state.append((h_new, c_new))
        inp = h_new
    return inp, new_state


class CaptionDecoder(ParamStore):
    """Two-layer LSTM over token embeddings, conditioned on image features."""

    LAYERS = 2

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        super().__init__()
        cfg.validate()
        self.cfg = cfg
        v, e, h, f = cfg.vocab_size, cfg.embed_dim, cfg.hidden_dim, cfg.feature_dim
        self.embed = self._param("decoder.embed", rng.uniform(-0.1, 0.1, size=(v, e)))
        self.img_w = self._param("decoder.image_proj.W", xavier_uniform(rng, f, e))
        self.img_b = self._param("decoder.image_proj.b", np.zeros(e))
        self.cells = [LstmCell(self, f"decoder.lstm{i}", e if i == 0 else h, h, rng)
                      for i in range(self.LAYERS)]
        self.head_w = self._param("decoder.head.W", xavier_uniform(rng, h, v))
        self.head_b = self._param("decoder.head.b", np.zeros(v))

    def initial_state(self, batch: int):
        return _zero_state(self.LAYERS, batch, self.cfg.hidden_dim)

    def encode_image(self, features):
        """Project image features, one row per image: a plain array from
        plain features, a Tensor that records a graph from a Tensor."""
        if not isinstance(features, Tensor):
            features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if features.shape[-1] != self.cfg.feature_dim:
            raise ConfigError(
                f"feature dim {features.shape[-1]} does not match model "
                f"feature_dim {self.cfg.feature_dim}"
            )
        return affine(features, self.img_w, self.img_b)

    def embed_tokens(self, ids: np.ndarray) -> Tensor:
        return gather_rows(self.embed, ids)

    def step(self, x, state):
        """Advance all layers one step, one LstmCell.step each; returns the
        top-layer hidden state and the new per-layer (h, c) states."""
        return _stack_step(self.cells, x, state)

    def head_logits(self, h_top, training: bool, rng=None):
        dropped = dropout(h_top, self.cfg.dropout, training, rng)
        return affine(dropped, self.head_w, self.head_b)


@dataclass
class MlmConfig:
    vocab_size: int
    embed_dim: int = 64
    hidden_dim: int = 128

    def validate(self):
        if min(self.vocab_size, self.embed_dim, self.hidden_dim) < 1:
            raise ConfigError("MLM dims must be positive")
        if self.vocab_size <= MASK_ID:
            raise ConfigError("vocab_size must cover the special token ids")


class MaskedLM(ParamStore):
    """Bidirectional recurrent masked-token encoder with a diagnostic head.

    The state for a masked position combines the forward encoder run over the
    tokens strictly left of the mask with the backward encoder run over the
    tokens strictly right of it, so the output depends on every unmasked
    position but never on the mask token itself.
    """

    LAYERS = 2

    def __init__(self, cfg: MlmConfig, rng: np.random.Generator):
        super().__init__()
        cfg.validate()
        self.cfg = cfg
        v, e, h = cfg.vocab_size, cfg.embed_dim, cfg.hidden_dim
        self.embed = self._param("mlm.embed", rng.uniform(-0.1, 0.1, size=(v, e)))
        self.fwd = [LstmCell(self, f"mlm.fwd{i}", e if i == 0 else h, h, rng)
                    for i in range(self.LAYERS)]
        self.bwd = [LstmCell(self, f"mlm.bwd{i}", e if i == 0 else h, h, rng)
                    for i in range(self.LAYERS)]
        self.comb_w = self._param("mlm.combine.W", xavier_uniform(rng, 2 * h, h))
        self.comb_b = self._param("mlm.combine.b", np.zeros(h))
        self.head_w = self._param("mlm.head.W", xavier_uniform(rng, h, v))
        self.head_b = self._param("mlm.head.b", np.zeros(v))

    # -- core encoding ----------------------------------------------------

    def _run_encoder(self, cells, token_matrix: np.ndarray):
        """Unroll one direction over a [batch x T] token matrix.

        Returns the top-layer hidden state after each step, as a list of
        [batch x hidden] tensors.
        """
        batch, steps = token_matrix.shape
        state = _zero_state(self.LAYERS, batch, self.cfg.hidden_dim)
        tops = []
        for t in range(steps):
            top, state = _stack_step(cells, gather_rows(self.embed, token_matrix[:, t]), state)
            tops.append(top)
        return tops

    def _encode_states(self, cells, token_matrix: np.ndarray, out: np.ndarray):
        """Graph-free, layer-major unroll of one direction over a [batch x T]
        token matrix: per layer one [T*batch x E] @ Wx, then a loop of h @ Wh
        and autodiff.lstm_step. Writes the top layer's state after each step
        into out[:T], a time-major [T x batch x hidden] array; each lower
        layer's states pass through out[:T] too."""
        batch, steps = token_matrix.shape
        x = self.embed.data[token_matrix.T]  # time-major [T x batch x E]
        for cell in cells:
            wx = cell.wx.data  # explicit widths, not -1, so that T = 0 reshapes too
            xp = (x.reshape(steps * batch, wx.shape[0]) @ wx).reshape(steps, batch, wx.shape[1])
            h = c = np.zeros((batch, self.cfg.hidden_dim))
            for t in range(steps):
                h, c = lstm_step(xp[t], h, c, cell.wh.data, cell.b.data)
                out[t] = h
            x = out[:steps]

    def combine(self, fwd_ctx: Tensor, bwd_ctx: Tensor) -> Tensor:
        return affine(concat_last(fwd_ctx, bwd_ctx), self.comb_w, self.comb_b)

    def head_logits(self, state):
        return affine(state, self.head_w, self.head_b)

    # -- lifecycle ----------------------------------------------------------

    def freeze(self):
        for p in self.parameters():
            p.freeze()

    def frozen(self) -> bool:
        return all(p.frozen for p in self.parameters())


def _padded_batch(seqs: list[list[int]]):
    """Pad sequences and build the per-sample reversed matrix for the
    backward encoder (reversal is per sample so padding stays on the right)."""
    batch = len(seqs)
    width = max(len(s) for s in seqs)
    toks = np.full((batch, width), PAD_ID, dtype=np.int64)
    rev = np.full((batch, width), PAD_ID, dtype=np.int64)
    lens = np.zeros(batch, dtype=np.int64)
    for i, s in enumerate(seqs):
        n = len(s)
        lens[i] = n
        toks[i, :n] = s
        rev[i, :n] = s[::-1]
    return toks, rev, lens


def _select_steps(tops: list[Tensor], idx: np.ndarray) -> Tensor:
    """Per-sample selection of one time step from a list of [B x H] tensors.

    idx < 0 selects a zero vector (empty context). Implemented with indicator
    masks so gradients flow through the chosen steps only.
    """
    batch = tops[0].shape[0]
    out = Tensor(np.zeros((batch, tops[0].shape[1])))
    for t, top in enumerate(tops):
        mask = (idx == t).astype(np.float64)
        if mask.any():
            out = out + top * Tensor(np.repeat(mask[:, None], top.shape[1], axis=1))
    return out


def _context_steps(p: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(forward, backward) encoder steps whose top-layer states are the
    context of mask position p in a sequence of length n; step -1 is the empty
    context. p = 1..n-1 masks a token; p = n is the mask inserted after the
    final pre-end token, whose forward context is the prefix up to that token
    and whose backward context is the end token alone."""
    return np.minimum(p, n - 1) - 1, np.where(p < n, n - 2 - p, 0)


def _check_ids(ids, vocab: int, what: str):
    bad = [t for t in ids if not 0 <= t < vocab]
    if bad:
        raise InputError(f"{what} id {bad[0]} is outside the vocabulary of {vocab}")


# sequences per padded batch of mlm_context_rows; bounds its [T x B x 4H] projections
ROWS_CHUNK = 128


def mlm_context_rows(mlm: MaskedLM, seqs: list[list[int]],
                     append_row: bool = False) -> list[np.ndarray]:
    """Masked-position states for every maskable position of each sequence.

    For a sequence of length L the result has one row per mask position
    p = 1..L-1 (position 0 is never masked in training or emendation). With
    append_row=True an extra final row encodes the variant where the mask is
    inserted between the last content token and the trailing end token.
    An empty sequence gives zero rows. The outputs are plain arrays. A token
    id outside the vocabulary raises InputError.
    """
    _check_ids(chain.from_iterable(seqs), mlm.cfg.vocab_size, "token")
    out: list[np.ndarray] = []
    for lo in range(0, len(seqs), ROWS_CHUNK):
        out.extend(_context_rows_chunk(mlm, seqs[lo:lo + ROWS_CHUNK], append_row))
    return out


def _context_rows_chunk(mlm: MaskedLM, seqs, append_row: bool) -> list[np.ndarray]:
    toks, rev, lens = _padded_batch(seqs)
    # both directions' top-layer states, time-major, with a zero step
    # appended so that step index -1 reads an empty context
    both = np.zeros((2, toks.shape[1] + 1, len(seqs), mlm.cfg.hidden_dim))
    mlm._encode_states(mlm.fwd, toks, both[0])
    mlm._encode_states(mlm.bwd, rev, both[1])
    # rows p = 1..n-1 of a length-n sequence, then p = n if appended
    counts = np.maximum(lens - 1, 0) + (append_row & (lens >= 2))
    owner = np.repeat(np.arange(len(seqs)), counts)
    p = np.arange(1, len(owner) + 1) - np.repeat(np.cumsum(counts) - counts, counts)
    steps = np.stack(_context_steps(p, lens[owner]), axis=1)
    pairs = both[[0, 1], steps, owner[:, None]].reshape(len(owner), 2 * mlm.cfg.hidden_dim)
    return np.split(affine(pairs, mlm.comb_w, mlm.comb_b), np.cumsum(counts)[:-1])


@dataclass
class MlmPretrainConfig:
    epochs: int = 12
    lr: float = 1e-3
    batch_size: int = 32
    seed: int = 0

    def validate(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be at least 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be at least 1, got {self.batch_size}")


@dataclass
class MlmPretrainReport:
    initial_loss: float
    epoch_losses: list[float] = field(default_factory=list)


def _masked_batch_loss(mlm: MaskedLM, seqs: list[list[int]],
                       positions: np.ndarray) -> Tensor:
    """Mean cross-entropy of predicting the token at one masked position
    per sequence (the mask position is never 0)."""
    toks, rev, lens = _padded_batch(seqs)
    fwd_tops = mlm._run_encoder(mlm.fwd, toks)
    bwd_tops = mlm._run_encoder(mlm.bwd, rev)
    fwd_idx, bwd_idx = _context_steps(positions, lens)
    fwd_ctx = _select_steps(fwd_tops, fwd_idx)
    bwd_ctx = _select_steps(bwd_tops, bwd_idx)
    state = mlm.combine(fwd_ctx, bwd_ctx)
    logits = mlm.head_logits(state)
    targets = toks[np.arange(len(seqs)), positions]
    return softmax_xent_rows(logits, targets).sum() * (1.0 / len(seqs))


def mlm_pretrain(mlm: MaskedLM, corpus: list[list[int]],
                 cfg: MlmPretrainConfig | None = None):
    """Train the masked LM on a token corpus, then freeze every parameter.

    Each epoch visits every sequence once, masking one uniformly chosen
    position per sequence (excluding position 0, which is never queried
    downstream). A parameter that a batch's loss does not reach (the backward
    encoder, when every mask of the batch falls on the last token) gets
    gradient zero for that step, so Adam still moves it by its decayed
    moments. A token id outside the vocabulary raises InputError before
    anything changes. Returns (mlm, report).
    """
    cfg = cfg or MlmPretrainConfig()
    cfg.validate()
    corpus = [list(s) for s in corpus if len(s) >= 2]
    if not corpus:
        raise InputError("masked LM pretraining needs a non-empty corpus "
                         "of sequences with at least 2 tokens")
    if mlm.frozen():
        raise StateError("masked LM is already frozen")
    _check_ids(chain.from_iterable(corpus), mlm.cfg.vocab_size, "token")
    seed_seq = np.random.SeedSequence(cfg.seed)
    shuffle_rng, mask_rng = [np.random.default_rng(s) for s in seed_seq.spawn(2)]
    params = mlm.parameters()
    opt = Adam(params, lr=cfg.lr)

    # the loss at mask position 1 of the first batch, from row 0 of each
    # caption's context rows, before any update
    probe = corpus[:cfg.batch_size]
    states = np.stack([rows[0] for rows in mlm_context_rows(mlm, probe)])
    xent = softmax_xent_rows(mlm.head_logits(states), [s[1] for s in probe])
    report = MlmPretrainReport(initial_loss=float(xent.sum() * (1.0 / len(probe))))
    order = np.arange(len(corpus))
    for _ in range(cfg.epochs):
        shuffle_rng.shuffle(order)
        total, count = 0.0, 0
        for lo in range(0, len(order), cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            seqs = [corpus[i] for i in idx]
            positions = np.asarray(
                [int(mask_rng.integers(1, len(s))) for s in seqs]
            )
            loss = _masked_batch_loss(mlm, seqs, positions)
            loss.backward()
            for p in params:
                if p.grad is None:
                    p.grad = np.zeros_like(p.data)
            opt.step()
            total += loss.item() * len(seqs)
            count += len(seqs)
        report.epoch_losses.append(total / count)
    mlm.freeze()
    return mlm, report


def mlm_masked_accuracy(mlm: MaskedLM, corpus: list[list[int]]) -> float:
    """Fraction of maskable positions whose token the head predicts exactly."""
    hits, total = 0, 0
    for seq, rows in zip(corpus, mlm_context_rows(mlm, [list(s) for s in corpus])):
        pred = mlm.head_logits(rows).argmax(axis=1)  # positions 1..L-1
        hits += int((pred == np.asarray(seq[1:])).sum())
        total += len(pred)
    return hits / max(total, 1)
