"""Greedy and beam-search caption decoding plus masked-draft emendation.

All decoders share a stepper abstraction: start() primes the model with the
image features, step() consumes one token per hypothesis and returns renewed
states plus log-probabilities for the next token. Emendation steppers also
carry the per-step masked-LM states derived from the draft caption, shared by
every hypothesis in the beam. A frozen masked LM encodes each draft once: the
steppers of every fusion kind that emends the draft, and of the rescoring
oracle sequence_logprob(..., draft=), share the same read-only rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, log_softmax, no_grad
from .errors import ConfigError, InputError
from .models import EOS_ID, MASK_ID, PAD_ID, START_ID, MaskedLM, mlm_context_rows

# tokens never emitted by a decoder
BLOCKED_IDS = (PAD_ID, START_ID, MASK_ID)


@dataclass
class BeamConfig:
    beam_width: int = 5
    max_len: int | None = None  # defaults to the model's configured cap
    length_normalization: bool = False

    def validate(self):
        if self.beam_width < 1:
            raise ConfigError(f"beam_width must be at least 1, got {self.beam_width}")
        if self.max_len is not None and self.max_len < 2:
            raise ConfigError(f"max_len must be at least 2, got {self.max_len}")


@dataclass
class Hypothesis:
    tokens: list[int]
    logprob: float
    finished: bool


def _select_lstm(state, idx: np.ndarray):
    return [(Tensor(h.data[idx]), Tensor(c.data[idx])) for h, c in state]


class _Stepper:
    """Shared stepper plumbing over a caption model."""

    def __init__(self, model, features: np.ndarray):
        self.model = model
        self.features = np.atleast_2d(np.asarray(features, dtype=np.float64))

    def start(self):
        with no_grad():
            x = self.model.decoder.encode_image(self.features)
            state = self.model.decoder.initial_state(self.features.shape[0])
            _, state = self.model.decoder.step(x, state)
        return (0, state)

    def _logprobs(self, logits: np.ndarray) -> np.ndarray:
        logits = logits.copy()
        logits[:, list(BLOCKED_IDS)] = -np.inf
        return log_softmax(logits)

    def step(self, state, tokens: np.ndarray):
        raise NotImplementedError

    def select(self, state, idx: np.ndarray):
        t, lstm_state = state
        return (t, _select_lstm(lstm_state, idx))


class BaselineStepper(_Stepper):
    """Decoder head only; no language-model involvement."""

    def step(self, state, tokens):
        t, lstm_state = state
        with no_grad():
            x = self.model.decoder.embed_tokens(tokens)
            h, lstm_state = self.model.decoder.step(x, lstm_state)
            logits = self.model.decoder.head_logits(h, training=False)
        return (t + 1, lstm_state), self._logprobs(logits.data)


class SelfDraftStepper(_Stepper):
    """Fusion decoding without a draft: the masked-LM state is built from the
    forward encoder over the tokens emitted so far (no right context)."""

    def __init__(self, model, mlm: MaskedLM, features):
        super().__init__(model, features)
        self.mlm = mlm

    def start(self):
        t, lstm_state = super().start()
        batch = self.features.shape[0]
        h = self.mlm.cfg.hidden_dim
        fwd = [(Tensor(np.zeros((batch, h))), Tensor(np.zeros((batch, h))))
               for _ in self.mlm.fwd]
        return (t, lstm_state, fwd)

    def step(self, state, tokens):
        t, lstm_state, fwd = state
        with no_grad():
            x = self.model.decoder.embed_tokens(tokens)
            h_top, lstm_state = self.model.decoder.step(x, lstm_state)
            xm = Tensor(self.mlm.embed.data[tokens])
            new_fwd = []
            inp = xm
            for cell, (h, c) in zip(self.mlm.fwd, fwd):
                h_new, c_new = cell.step(inp, h, c)
                new_fwd.append((h_new, c_new))
                inp = h_new
            zeros = Tensor(np.zeros_like(inp.data))
            h_mlm = self.mlm.combine(inp, zeros)
            logits = self.model.fusion.fuse(h_top, h_mlm).logits
        return (t + 1, lstm_state, new_fwd), self._logprobs(logits.data)

    def select(self, state, idx):
        t, lstm_state, fwd = state
        return (t, _select_lstm(lstm_state, idx), _select_lstm(fwd, idx))


def draft_rows(mlm: MaskedLM, wrapped: list[int]) -> np.ndarray:
    """Read-only masked-LM rows of one wrapped draft, appended row included.

    A frozen MLM keeps the last draft's rows and hands them out again while
    every parameter still holds the array the rows were computed from. Frozen
    arrays are read-only, so only rebinding a parameter's data can change them.
    """
    key = tuple(wrapped)
    arrays = [p.data for p in mlm.parameters()]
    frozen = mlm.frozen()
    memo = mlm.rows_memo
    if (frozen and memo is not None and memo[0] == key
            and all(a is b for a, b in zip(arrays, memo[1]))):
        return memo[2]
    rows = mlm_context_rows(mlm, [wrapped], append_row=True)[0]
    rows.flags.writeable = False
    if frozen:
        mlm.rows_memo = (key, arrays, rows)
    return rows


class EmendStepper(_Stepper):
    """Fusion decoding against a fixed draft: at step t the masked-LM state
    encodes the draft with position t+1 masked (mask appended past the end).
    One state per step, shared across beam hypotheses."""

    def __init__(self, model, mlm: MaskedLM, features, wrapped_draft: list[int],
                 mlm_override: np.ndarray | None = None):
        super().__init__(model, features)
        if mlm is None:
            raise ConfigError("emending a draft needs the masked LM")
        self.mlm = mlm
        vocab = mlm.cfg.vocab_size
        bad = [t for t in wrapped_draft if not 0 <= t < vocab]
        if bad:
            raise InputError(f"draft token id {bad[0]} is outside the masked "
                             f"LM's vocabulary of {vocab}")
        if mlm_override is None:
            self.rows = draft_rows(mlm, wrapped_draft)
        else:
            self.rows = np.tile(np.asarray(mlm_override, dtype=np.float64),
                                (len(wrapped_draft), 1))

    def step(self, state, tokens):
        t, lstm_state = state
        with no_grad():
            x = self.model.decoder.embed_tokens(tokens)
            h_top, lstm_state = self.model.decoder.step(x, lstm_state)
            row = self.rows[min(t, self.rows.shape[0] - 1)]
            h_mlm = Tensor(np.tile(row, (tokens.shape[0], 1)))
            logits = self.model.fusion.fuse(h_top, h_mlm).logits
        return (t + 1, lstm_state), self._logprobs(logits.data)


def _make_stepper(model, features, mlm: MaskedLM | None):
    if not model.needs_mlm():
        return BaselineStepper(model, features)
    if mlm is None:
        raise ConfigError("decoding a fusion model needs the masked LM")
    return SelfDraftStepper(model, mlm, features)


def _resolve_max_len(model, cfg: BeamConfig | None) -> int:
    if cfg is not None and cfg.max_len is not None:
        return cfg.max_len
    return model.cfg.max_len


# -- greedy -------------------------------------------------------------------


def greedy_decode(model, features, mlm: MaskedLM | None = None,
                  max_len: int | None = None) -> list[int]:
    """Argmax decoding; the output ends with <eos> or has length max_len."""
    stepper = _make_stepper(model, features, mlm)
    return _greedy_loop(stepper, max_len or model.cfg.max_len)[0]


def _greedy_loop(stepper, max_len: int) -> tuple[list[int], float]:
    state = stepper.start()
    tokens: list[int] = []
    score = 0.0
    current = START_ID
    for _ in range(max_len):
        state, logprobs = stepper.step(state, np.array([current]))
        current = int(logprobs[0].argmax())
        score += float(logprobs[0][current])
        tokens.append(current)
        if current == EOS_ID:
            break
    return tokens, score


def greedy_decode_batch(model, features_matrix: np.ndarray,
                        mlm: MaskedLM | None = None,
                        max_len: int | None = None) -> list[list[int]]:
    """Vectorized greedy decoding of many scenes at once (validation path)."""
    stepper = _make_stepper(model, features_matrix, mlm)
    limit = max_len or model.cfg.max_len
    batch = features_matrix.shape[0]
    state = stepper.start()
    current = np.full(batch, START_ID, dtype=np.int64)
    done = np.zeros(batch, dtype=bool)
    out: list[list[int]] = [[] for _ in range(batch)]
    for _ in range(limit):
        state, logprobs = stepper.step(state, current)
        current = logprobs.argmax(axis=1).astype(np.int64)
        for i in range(batch):
            if not done[i]:
                out[i].append(int(current[i]))
                if current[i] == EOS_ID:
                    done[i] = True
        if done.all():
            break
    return out


# -- beam search ---------------------------------------------------------------


def beam_over(stepper, beam_width: int, max_len: int,
              length_normalization: bool = False) -> tuple[list[int], float]:
    """Beam search over any stepper; returns (tokens, summed log-prob).

    Finished hypotheses are frozen when they leave the beam; the result is the
    best finished hypothesis, or the best unfinished one at max_len. Ties break
    on smaller token id at expansion and shorter sequence at the end.
    """
    state = stepper.start()
    alive_tokens: list[list[int]] = [[]]
    alive_scores = np.zeros(1)
    inputs = np.array([START_ID])
    finished: list[Hypothesis] = []
    for _ in range(max_len):
        state, rows = stepper.step(state, inputs)
        vocab = rows.shape[1]
        total = alive_scores[:, None] + rows
        flat = total.reshape(-1)
        tokens_key = np.tile(np.arange(vocab), len(alive_tokens))
        parents_key = np.repeat(np.arange(len(alive_tokens)), vocab)
        order = np.lexsort((parents_key, tokens_key, -flat))
        new_tokens, new_scores, new_parents, new_inputs = [], [], [], []
        for idx in order[:beam_width]:
            parent, tok = int(parents_key[idx]), int(tokens_key[idx])
            cand = alive_tokens[parent] + [tok]
            score = float(flat[idx])
            if not np.isfinite(score):
                continue
            if tok == EOS_ID:
                finished.append(Hypothesis(cand, score, True))
            else:
                new_tokens.append(cand)
                new_scores.append(score)
                new_parents.append(parent)
                new_inputs.append(tok)
        if not new_tokens:
            break
        if (finished and not length_normalization
                and max(h.logprob for h in finished) >= max(new_scores)):
            break
        state = stepper.select(state, np.array(new_parents))
        alive_tokens = new_tokens
        alive_scores = np.array(new_scores)
        inputs = np.array(new_inputs)
    pool = finished if finished else [
        Hypothesis(t, s, False) for t, s in zip(alive_tokens, alive_scores)
    ]

    def rank(h: Hypothesis):
        score = h.logprob / len(h.tokens) if length_normalization else h.logprob
        return (-score, len(h.tokens), tuple(h.tokens))

    best = min(pool, key=rank)
    return best.tokens, best.logprob


def beam_search_scored(model, features, cfg: BeamConfig | None = None,
                       mlm: MaskedLM | None = None) -> tuple[list[int], float]:
    cfg = cfg or BeamConfig()
    cfg.validate()
    stepper = _make_stepper(model, features, mlm)
    return beam_over(stepper, cfg.beam_width, _resolve_max_len(model, cfg),
                     cfg.length_normalization)


def beam_search(model, features, cfg: BeamConfig | None = None,
                mlm: MaskedLM | None = None) -> list[int]:
    return beam_search_scored(model, features, cfg, mlm)[0]


# -- emendation -----------------------------------------------------------------


def strip_specials(tokens) -> list[int]:
    return [int(t) for t in tokens if int(t) > MASK_ID]


def emend(model, mlm: MaskedLM, features, draft,
          cfg: BeamConfig | None = None,
          mlm_override: np.ndarray | None = None) -> list[int]:
    """Re-decode a draft caption with the fusion model.

    The decoder conditions on the image and its own emitted tokens; the masked
    LM reads the draft with the next position masked. Returns the emended
    token sequence (ending in <eos> unless max_len was hit).
    """
    if not model.needs_mlm():
        raise ConfigError("emendation needs a fusion model")
    cfg = cfg or BeamConfig()
    cfg.validate()
    words = strip_specials(draft)
    if not words:
        raise InputError("draft caption is empty")
    wrapped = [START_ID] + words + [EOS_ID]
    stepper = EmendStepper(model, mlm, features, wrapped, mlm_override)
    tokens, _ = beam_over(stepper, cfg.beam_width, _resolve_max_len(model, cfg),
                          cfg.length_normalization)
    return tokens


# -- rescoring oracle -------------------------------------------------------------


def sequence_logprob(model, features, tokens: list[int],
                     mlm: MaskedLM | None = None,
                     draft: list[int] | None = None) -> float:
    """Teacher-forced log-probability of an emitted token sequence.

    Uses the same stepper as the decoder that produced the sequence, so beam
    scores can be verified independently.
    """
    if not tokens:
        raise InputError("cannot score an empty sequence")
    if draft is not None:
        words = strip_specials(draft)
        wrapped = [START_ID] + words + [EOS_ID]
        stepper = EmendStepper(model, mlm, features, wrapped)
    else:
        stepper = _make_stepper(model, features, mlm)
    state = stepper.start()
    total = 0.0
    current = START_ID
    for tok in tokens:
        state, logprobs = stepper.step(state, np.array([current]))
        total += float(logprobs[0][tok])
        current = tok
    return total
