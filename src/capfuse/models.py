"""Neural models: LSTM caption decoder and the frozen bidirectional masked LM.

The decoder consumes a projected image feature vector at step 0 and then its
token sequence; it exposes the top-layer hidden state at every step and has
no vocabulary head: fusion.CaptionModel owns a caption model's one head. The
masked LM encodes a sequence with exactly one mask token by running a forward
recurrent encoder over the tokens left of the mask and a backward encoder over
the tokens right of it, combining both context states with an affine layer.

Image projections, steps, heads and affine layers follow the rule of
autodiff's forward ops: a plain-array activation gives plain arrays and
records no graph, and a Tensor activation records a graph. Stacked cells
unroll over a sequence in one place, _unroll: per layer one autodiff.lstm_seq,
which steps each sequence only up to the last step whose state its caller
reads: it projects only those stepped rows of the layer's [T*B x E] input by
Wx and runs the lstm_step arithmetic step by step.

The decoder has two forwards. CaptionDecoder.step advances every layer by one
autodiff.lstm_step(x, h, c, Wx, Wh, b) on plain arrays, for the beam.
CaptionDecoder.teacher_forced runs whole captions: one encode_image and one
embedding gather of the time-major padded tokens, the image rows stacked
above the token rows as step 0 (autodiff.concat on axis 0), then _unroll up to
each caption's length (its last token's state is step len), then one gather
of the rows after each real token. It scores sequences
(decoding.sequence_logprob) and, on Tensor features, records the one graph of
a teacher-forced batch.

The masked LM has one forward, MaskedLM._states: per direction one embedding
gather of the time-major padded tokens, then _unroll up to each sequence's
latest context step, then one gather of each mask position's context rows,
then combine. A pretraining batch masks one position per caption, so each
direction steps a caption only up to that position's context; the context
rows of every position step a sequence up to its next-to-last token.
Pretraining runs it on the embedding Parameter and records one lstm_seq node
per layer and direction, whose backward is backpropagation through time;
mlm_context_rows runs it on the embedding's array and records nothing, so
training and emendation read the same states. mlm_pretrain's initial loss is
a batch's _masked_batch_loss taken on the embedding's array. mlm_pretrain ends
by freezing the MLM, and freezing is final: a frozen parameter's data can be
neither written nor rebound (autodiff.Parameter.freeze). A model's parameters
are its attributes: ParamStore.parameters() reads them off the model, each
Parameter and the parameters of each nested ParamStore (an LstmCell is one),
whether an attribute or an element of a tuple attribute, in binding order, so
there is no registry to fall out of step with what the model computes with.
An attribute of a ParamStore is bound once: rebinding or deleting it raises
StateError, frozen or not. The Parameters that a model computes with are
therefore always the ones it freezes and checksums, and a frozen MLM and
every copy of it compute with the same values for good.
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
    concat,
    gather_rows,
    lstm_seq,
    lstm_step,
    params_checksum,
    softmax_xent,
)
from .data import (EOS_ID, FEATURE_DIM, MASK_ID, PAD_ID, START_ID,  # noqa: F401 (re-exported)
                   UNK_ID, _check_ids)
from .errors import ConfigError, InputError, ShapeError, StateError, check_int, check_real


@dataclass
class ModelConfig:
    """Dimensions and knobs shared by the decoder, fusion layer, and MLM."""

    vocab_size: int
    feature_dim: int = FEATURE_DIM  # of data.generate_dataset's features
    embed_dim: int = 64
    hidden_dim: int = 128
    mlm_hidden_dim: int = 128
    fusion_kind: str = "none"
    fusion_dim: int = 128
    dropout: float = 0.5

    def validate(self):
        for name in ("vocab_size", "feature_dim", "embed_dim", "hidden_dim",
                     "mlm_hidden_dim", "fusion_dim"):
            check_int(name, getattr(self, name), 1)
        check_real("dropout", self.dropout, "in [0, 1)", lambda r: 0.0 <= r < 1.0)
        if self.vocab_size <= MASK_ID:
            raise ConfigError("vocab_size must cover the special token ids")


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class ParamStore:
    """Mixin for a model or a layer whose parameters are its attributes. An
    attribute, once bound, can be neither rebound nor deleted (StateError); a
    copy or an unpickled object restores its attributes without
    __setattr__."""

    def __setattr__(self, attr, value):
        if attr in vars(self):
            raise StateError(f"{type(self).__name__}.{attr} is bound once and cannot be rebound")
        object.__setattr__(self, attr, value)

    def __delattr__(self, attr):
        raise StateError(f"{type(self).__name__}.{attr} is bound once and cannot be deleted")

    def parameters(self) -> list[Parameter]:
        """Each Parameter and the parameters of each ParamStore, whether an
        attribute or an element of a tuple attribute, in binding order."""
        params = []
        for value in vars(self).values():
            for item in value if isinstance(value, tuple) else (value,):
                if isinstance(item, Parameter):
                    params.append(item)
                elif isinstance(item, ParamStore):
                    params.extend(item.parameters())
        return params

    def checksum(self) -> str:
        return params_checksum(self.parameters())


class LstmCell(ParamStore):
    """Single LSTM layer; gate order is (input, forget, candidate, output).

    step() is one autodiff.lstm_step on plain arrays. A sequence, with or
    without a graph, runs through one autodiff.lstm_seq over the cell's wx,
    wh and b."""

    def __init__(self, prefix: str, in_dim: int, hidden: int, rng: np.random.Generator):
        self.wx = Parameter(f"{prefix}.Wx", xavier_uniform(rng, in_dim, 4 * hidden))
        self.wh = Parameter(f"{prefix}.Wh", xavier_uniform(rng, hidden, 4 * hidden))
        bias = np.zeros(4 * hidden)
        bias[hidden:2 * hidden] = 1.0  # forget gate open at init
        self.b = Parameter(f"{prefix}.b", bias)

    def step(self, x: np.ndarray, h: np.ndarray, c: np.ndarray):
        """(h_new, c_new) of one step on plain arrays."""
        return lstm_step(x, h, c, self.wx.data, self.wh.data, self.b.data)


class CaptionDecoder(ParamStore):
    """Two-layer LSTM over token embeddings, conditioned on image features."""

    LAYERS = 2

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        cfg.validate()
        self.cfg = cfg
        v, e, h, f = cfg.vocab_size, cfg.embed_dim, cfg.hidden_dim, cfg.feature_dim
        self.embed = Parameter("decoder.embed", rng.uniform(-0.1, 0.1, size=(v, e)))
        self.img_w = Parameter("decoder.image_proj.W", xavier_uniform(rng, f, e))
        self.img_b = Parameter("decoder.image_proj.b", np.zeros(e))
        self.cells = tuple(LstmCell(f"decoder.lstm{i}", e if i == 0 else h, h, rng)
                           for i in range(self.LAYERS))

    def initial_state(self, batch: int):
        """Zero (h, c) arrays for every layer."""
        zeros = np.zeros((batch, self.cfg.hidden_dim))
        return [(zeros, zeros)] * self.LAYERS

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

    def step(self, x: np.ndarray, state):
        """Advance all layers one step on plain arrays, one LstmCell.step
        each; returns the top-layer hidden state and the new per-layer (h, c)
        states."""
        new_state = []
        for cell, (h, c) in zip(self.cells, state):
            x, c = cell.step(x, h, c)
            new_state.append((x, c))
        return x, new_state

    def teacher_forced(self, features, seqs: list[list[int]]):
        """Top-layer state after each input token of each caption, stacked
        sequence-major: row len(seqs[0]) + ... + len(seqs[i-1]) + t is the
        state after token t of seqs[i], the state that CaptionDecoder.step
        reaches there from features[i].

        The one sequence forward of the decoder, built like MaskedLM._states:
        one encode_image and one embedding gather of the time-major padded
        tokens, with the image rows stacked above the token rows as step 0,
        then _unroll, which steps caption i up to step lens[i], the state
        after its last token, then one gather of the real tokens' rows.
        Plain-array features give a plain array and record no graph; Tensor features
        record one graph, through the embedding Parameter. Feature rows that
        are not one per caption, or a batch with no token, raise ShapeError; a
        token id outside the vocabulary raises InputError."""
        image = self.encode_image(features)
        batch = len(seqs)
        if image.shape[0] != batch:
            raise ShapeError(f"{image.shape[0]} feature rows for {batch} captions")
        _check_ids(chain.from_iterable(seqs), self.cfg.vocab_size, "token")
        toks, _, lens = _padded_batch(seqs)
        table = self.embed if isinstance(image, Tensor) else self.embed.data
        x = concat(image, gather_rows(table, toks.T.ravel()), axis=0)
        x = _unroll(self.cells, x, batch, lens)
        steps = np.arange(1, toks.shape[1] + 1)
        return gather_rows(x, (steps * batch + np.arange(batch)[:, None])[steps <= lens[:, None]])


@dataclass
class MlmConfig:
    vocab_size: int
    embed_dim: int = 64
    hidden_dim: int = 128

    def validate(self):
        for name in ("vocab_size", "embed_dim", "hidden_dim"):
            check_int(name, getattr(self, name), 1)
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
        cfg.validate()
        self.cfg = cfg
        v, e, h = cfg.vocab_size, cfg.embed_dim, cfg.hidden_dim
        self.embed = Parameter("mlm.embed", rng.uniform(-0.1, 0.1, size=(v, e)))
        self.fwd = tuple(LstmCell(f"mlm.fwd{i}", e if i == 0 else h, h, rng)
                         for i in range(self.LAYERS))
        self.bwd = tuple(LstmCell(f"mlm.bwd{i}", e if i == 0 else h, h, rng)
                         for i in range(self.LAYERS))
        self.comb_w = Parameter("mlm.combine.W", xavier_uniform(rng, 2 * h, h))
        self.comb_b = Parameter("mlm.combine.b", np.zeros(h))
        self.head_w = Parameter("mlm.head.W", xavier_uniform(rng, h, v))
        self.head_b = Parameter("mlm.head.b", np.zeros(v))

    # -- core encoding ----------------------------------------------------

    def _states(self, table, seqs: list[list[int]], owner: np.ndarray, p: np.ndarray):
        """States at mask position p[k] of seqs[owner[k]], one row per k.

        The one forward of the MLM: per direction the embedding gather of the
        time-major [T*B] padded tokens from `table`, then _unroll, which
        steps sequence i up to the latest _context_steps step of its queries
        (not at all if it has none), then one gather of the _context_steps
        rows (step -1, the empty context, is a negative id and reads zeros),
        then combine. `table` is self.embed, which records a graph, or
        self.embed.data, which gives plain arrays."""
        toks, rev, lens = _padded_batch(seqs)
        batch = len(seqs)
        ctx = []
        for cells, matrix, steps in zip((self.fwd, self.bwd), (toks, rev),
                                        _context_steps(p, lens[owner])):
            last = np.full(batch, -1)
            np.maximum.at(last, owner, steps)
            x = _unroll(cells, gather_rows(table, matrix.T.ravel()), batch, last)
            ctx.append(gather_rows(x, steps * batch + owner))
        return self.combine(*ctx)

    def combine(self, fwd_ctx: Tensor, bwd_ctx: Tensor) -> Tensor:
        return affine(concat(fwd_ctx, bwd_ctx), self.comb_w, self.comb_b)

    def head_logits(self, state):
        return affine(state, self.head_w, self.head_b)

    # -- lifecycle ----------------------------------------------------------

    def freeze(self):
        for p in self.parameters():
            p.freeze()

    def frozen(self) -> bool:
        return all(p.frozen for p in self.parameters())


def _unroll(cells, x, batch: int, last: np.ndarray):
    """Top-layer states of stacked cells over a time-major input x of
    [T*batch] rows, from a zero state: per layer one autodiff.lstm_seq,
    which steps row r up to step last[r] only (-1: not at all) and leaves its
    later rows zero."""
    for cell in cells:
        x = lstm_seq(x, batch, cell.wx, cell.wh, cell.b, last)
    return x


def _padded_batch(seqs: list[list[int]]):
    """Pad sequences and build the per-sample reversed matrix for the
    backward encoder (reversal is per sample so padding stays on the right)."""
    batch = len(seqs)
    width = max(map(len, seqs), default=0)
    toks = np.full((batch, width), PAD_ID, dtype=np.int64)
    rev = np.full((batch, width), PAD_ID, dtype=np.int64)
    lens = np.zeros(batch, dtype=np.int64)
    for i, s in enumerate(seqs):
        n = len(s)
        lens[i] = n
        toks[i, :n] = s
        rev[i, :n] = s[::-1]
    return toks, rev, lens


def _context_steps(p: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(forward, backward) encoder steps whose top-layer states are the
    context of mask position p in a sequence of length n; step -1 is the empty
    context. p = 1..n-1 masks a token; p = n is the mask inserted after the
    final pre-end token, whose forward context is the prefix up to that token
    and whose backward context is the end token alone."""
    return np.minimum(p, n - 1) - 1, np.where(p < n, n - 2 - p, 0)


# sequences per padded batch of mlm_context_rows; bounds its padded [T*B x E] inputs
# and [T*B x H] states
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
    # rows p = 1..n-1 of a length-n sequence, then p = n if appended
    lens = np.array([len(s) for s in seqs])
    counts = np.maximum(lens - 1, 0) + (append_row & (lens >= 2))
    owner = np.repeat(np.arange(len(seqs)), counts)
    p = np.arange(1, len(owner) + 1) - np.repeat(np.cumsum(counts) - counts, counts)
    return np.split(mlm._states(mlm.embed.data, seqs, owner, p), np.cumsum(counts)[:-1])


@dataclass
class MlmPretrainConfig:
    epochs: int = 12
    lr: float = 1e-3
    batch_size: int = 32
    seed: int = 0

    def validate(self):
        check_int("epochs", self.epochs, 1)
        check_int("batch_size", self.batch_size, 1)
        check_int("seed", self.seed, 0)
        check_real("learning rate", self.lr, "finite and positive", lambda r: 0.0 < r < np.inf)


@dataclass
class MlmPretrainReport:
    initial_loss: float
    epoch_losses: list[float] = field(default_factory=list)


def _masked_batch_loss(mlm: MaskedLM, table, seqs: list[list[int]], positions: np.ndarray):
    """Mean cross-entropy of predicting the token at one masked position
    per sequence (the mask position is never 0): one autodiff.softmax_xent
    over the head's logits. `table` is mlm.embed, which gives a scalar Tensor
    that records a graph, or mlm.embed.data, which gives a 0-d array and
    records nothing (MaskedLM._states)."""
    state = mlm._states(table, seqs, np.arange(len(seqs)), positions)
    targets = [s[p] for s, p in zip(seqs, positions)]
    return softmax_xent(mlm.head_logits(state), targets)


def mlm_pretrain(mlm: MaskedLM, corpus: list[list[int]],
                 cfg: MlmPretrainConfig | None = None):
    """Train the masked LM on a token corpus, then freeze every parameter.

    Each epoch visits every sequence once, masking one uniformly chosen
    position per sequence (excluding position 0, which is never queried
    downstream). Every batch's loss reaches every parameter: the backward
    encoder's gradient is zero when every mask of the batch falls on the
    last token, and Adam still moves it by its decayed moments. A token id
    outside the vocabulary raises InputError before anything changes.
    Returns (mlm, report).
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
    opt = Adam(mlm.parameters(), lr=cfg.lr)

    # the loss at mask position 1 of the first batch, before any update
    probe = corpus[:cfg.batch_size]
    initial = _masked_batch_loss(mlm, mlm.embed.data, probe, np.ones(len(probe), dtype=np.int64))
    report = MlmPretrainReport(initial_loss=float(initial))
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
            loss = _masked_batch_loss(mlm, mlm.embed, seqs, positions)
            loss.backward()
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
