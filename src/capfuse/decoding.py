"""Beam-search caption decoding and masked-draft emendation.

One stepper drives every decode: start() primes the decoder with the image
features, step() consumes one token per hypothesis and returns the renewed
state plus log-probabilities for the next token, and select() keeps the states
of the surviving hypotheses. No call records a graph or makes a Tensor: the
state is plain arrays, (t, [(h, c) per decoder layer]), start() passes the
features as an array to CaptionDecoder.encode_image, and step() passes arrays
to the embedding gather, CaptionDecoder.step and CaptionModel.step_logits
(FusionLayer.fuse for a fusion model, then the model's one vocabulary head),
the code that training runs on Tensors, then takes log_softmax of the logits
(_logprobs, the one rule from logits to log-probabilities, which
sequence_logprob shares). beam_over is the only decode loop; greedy decoding
is beam width 1. Each expansion ranks the [hypotheses x vocab] scores with one
stable argsort of the token-major flattening. A baseline model decodes from the image alone. A fusion model
decodes only against a draft: at step t the frozen masked LM has read the
draft with position t+1 masked, and that row is shared by every hypothesis in
the beam. Freezing is final (a frozen parameter's data can be neither written
nor rebound, and copies stay frozen), so draft_rows keeps the read-only rows
of up to ROWS_CACHE_SIZE drafts per frozen MLM without checking its parameters
again: each distinct draft is encoded once for every fusion kind, the
rescoring check sequence_logprob(..., draft=) and every later example with
that draft. A step whose logits hold NaN or +inf, or leave a hypothesis no
emittable token with a finite logit, raises NumericError.

sequence_logprob does not step: it scores a whole sequence with one
CaptionDecoder.teacher_forced pass and one step_logits call over all its
rows, so it checks beam scores through a second forward of the decoder. The
token-by-token replay of Stepper.step is the tests' oracle
(tests/oracles.py, stepped_logprob).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .autodiff import log_softmax
from .errors import ConfigError, InputError, NumericError, ShapeError, check_int
from .data import EOS_ID, MASK_ID, PAD_ID, START_ID, _check_ids, strip_specials
from .models import MaskedLM, mlm_context_rows

# tokens never emitted by a decoder
BLOCKED_IDS = (PAD_ID, START_ID, MASK_ID)
# distinct drafts whose rows draft_rows keeps per frozen masked LM
ROWS_CACHE_SIZE = 1024
# frozen masked LM -> {wrapped draft ids: rows}, oldest first; an MLM's entry
# goes when the MLM does
_ROWS_CACHE = weakref.WeakKeyDictionary()


@dataclass
class BeamConfig:
    beam_width: int = 5
    max_len: int = 40  # tokens emitted at most, <eos> included


class Stepper:
    """Steps a caption model over one image's hypotheses on plain arrays.

    `rows` holds one masked-LM state per step for a fusion model (set by
    EmendStepper), or None for a baseline model; past the last row the last
    one is reused, repeated for every hypothesis. A fusion model decodes only
    against a draft, so a Stepper of one raises ConfigError. The features are
    one image, of shape (F,) or (1, F); any other shape raises ShapeError.
    """

    def __init__(self, model, features: np.ndarray):
        if model.needs_mlm() and not isinstance(self, EmendStepper):
            raise ConfigError("a fusion model decodes only against a draft; use emend")
        self.model = model
        self.features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if np.ndim(features) not in (1, 2) or self.features.shape[0] != 1:
            raise ShapeError(f"features must be one image, of shape (F,) or (1, F), "
                             f"got {np.shape(features)}")
        self.rows: np.ndarray | None = None

    def start(self):
        decoder = self.model.decoder
        x = decoder.encode_image(self.features)
        _, state = decoder.step(x, decoder.initial_state(x.shape[0]))
        return (0, state)

    def step(self, state, tokens: np.ndarray):
        t, lstm_state = state
        decoder = self.model.decoder
        h_top, lstm_state = decoder.step(decoder.embed.data[tokens], lstm_state)
        rows = None if self.rows is None else self.rows[[min(t, len(self.rows) - 1)] * len(tokens)]
        return (t + 1, lstm_state), _logprobs(self.model, h_top, rows, f"step {t}")

    def select(self, state, idx: np.ndarray):
        t, lstm_state = state
        return (t, [(h[idx], c[idx]) for h, c in lstm_state])


def _logprobs(model, h_top, rows, where: str) -> np.ndarray:
    """Next-token log-probabilities of top decoder states, one masked-LM row
    each (None for a baseline model): the logits of step_logits, a
    NumericError if they hold NaN or +inf, BLOCKED_IDS set to -inf, a
    NumericError if a row then has no finite logit (no token could be
    emitted, and an empty caption would outrank every real one), then
    log_softmax. `where` names the steps in the error."""
    logits = model.step_logits(h_top, rows)
    if not logits.max() < np.inf:  # the max of logits holding NaN is NaN
        raise NumericError(f"the logits of {where} hold NaN or +inf")
    logits[:, list(BLOCKED_IDS)] = -np.inf
    if not logits.max(axis=1).min() > -np.inf:
        raise NumericError(f"the logits of {where} leave a row no emittable token")
    return log_softmax(logits)


def draft_rows(mlm: MaskedLM, wrapped: list[int]) -> np.ndarray:
    """Read-only masked-LM rows of one wrapped draft, appended row included.

    A frozen MLM's rows are kept for up to ROWS_CACHE_SIZE drafts, keyed by
    their ids, and the oldest goes first. Freezing is final, so the rows stay
    valid for as long as the MLM lives. An unfrozen MLM keeps nothing.
    """
    cache = _ROWS_CACHE.setdefault(mlm, {}) if mlm.frozen() else {}
    key = tuple(wrapped)
    if key not in cache:
        if len(cache) >= ROWS_CACHE_SIZE:
            del cache[next(iter(cache))]
        cache[key] = mlm_context_rows(mlm, [wrapped], append_row=True)[0]
        cache[key].flags.writeable = False
    return cache[key]


class EmendStepper(Stepper):
    """Fusion decoding against a draft, stripped of special tokens and
    wrapped in <start> ... <eos> (so an already wrapped draft is unchanged):
    at step t the masked-LM state encodes the wrapped draft with position t+1
    masked (mask appended past the end). A baseline model, or an MLM whose
    width is not the model's mlm_hidden_dim or whose vocab_size is not the
    model's, raises ConfigError; a draft with no words, or with an id that is
    not an integer in the vocabulary, raises InputError. A frozen MLM whose
    parameters are all zero gives rows of exactly +0.0, whatever the draft:
    the "no MLM" ablation."""

    def __init__(self, model, mlm: MaskedLM, features, draft):
        if not model.needs_mlm():
            raise ConfigError("emending a draft needs a fusion model")
        super().__init__(model, features)
        if mlm is None:
            raise ConfigError("emending a draft needs the masked LM")
        if mlm.cfg.hidden_dim != model.cfg.mlm_hidden_dim:
            raise ConfigError(f"the masked LM's hidden_dim {mlm.cfg.hidden_dim} is not "
                              f"the model's mlm_hidden_dim {model.cfg.mlm_hidden_dim}")
        if mlm.cfg.vocab_size != model.cfg.vocab_size:
            raise ConfigError(f"the masked LM's vocab_size {mlm.cfg.vocab_size} is not "
                              f"the model's vocab_size {model.cfg.vocab_size}")
        _check_ids(draft, mlm.cfg.vocab_size, "draft token")
        words = strip_specials(draft)
        if not words:
            raise InputError("draft caption is empty")
        self.rows = draft_rows(mlm, [START_ID] + words + [EOS_ID])


def _decode(stepper: Stepper, cfg: BeamConfig | None) -> tuple[list[int], float]:
    cfg = cfg or BeamConfig()
    return beam_over(stepper, cfg.beam_width, cfg.max_len)


# -- beam search ---------------------------------------------------------------


def best_cells(total: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(parents, tokens) of the k highest cells of a [hypotheses x vocab]
    score matrix, best first; ties go to the smaller token id, then to the
    smaller parent. One stable argsort over the token-major flattening, whose
    index order is exactly that tie order."""
    order = np.argsort(-total.T.reshape(-1), kind="stable")[:k]
    tokens, parents = np.divmod(order, total.shape[0])
    return parents, tokens


def beam_over(stepper, beam_width: int, max_len: int) -> tuple[list[int], float]:
    """Beam search over any stepper; returns (tokens, summed log-prob).

    Finished hypotheses are frozen when they leave the beam, and the search
    stops once the best of them scores at least the best live one. One rule
    ranks the result, with no length normalization: of the finished
    hypotheses, or of the live ones if none finished by max_len, the least in
    (-summed log-prob, length, tokens) wins, so ties go to the shorter
    sequence, then to the smaller token ids. Ties at expansion go to the
    smaller token id (best_cells). A beam_width that is not an integer of
    at least 1, or a max_len that is not one of at least 2, raises
    ConfigError.
    """
    check_int("beam_width", beam_width, 1)
    check_int("max_len", max_len, 2)
    state = stepper.start()
    alive_tokens: list[list[int]] = [[]]
    alive_scores = np.zeros(1)
    inputs = np.array([START_ID])
    finished: list[tuple[list[int], float]] = []
    for _ in range(max_len):
        state, rows = stepper.step(state, inputs)
        total = alive_scores[:, None] + rows
        parents, tokens = best_cells(total, beam_width)
        new_tokens, new_scores, new_parents, new_inputs = [], [], [], []
        scores = total[parents, tokens]
        for parent, tok, score in zip(parents.tolist(), tokens.tolist(), scores.tolist()):
            if not math.isfinite(score):
                continue
            cand = alive_tokens[parent] + [tok]
            if tok == EOS_ID:
                finished.append((cand, score))
            else:
                new_tokens.append(cand)
                new_scores.append(score)
                new_parents.append(parent)
                new_inputs.append(tok)
        if not new_tokens:
            break
        if finished and max(s for _, s in finished) >= max(new_scores):
            break
        state = stepper.select(state, np.array(new_parents))
        alive_tokens = new_tokens
        alive_scores = np.array(new_scores)
        inputs = np.array(new_inputs)
    pool = finished or list(zip(alive_tokens, alive_scores))
    return min(pool, key=lambda h: (-h[1], len(h[0]), h[0]))


def beam_search_scored(model, features,
                       cfg: BeamConfig | None = None) -> tuple[list[int], float]:
    """Beam-decode a baseline model from the image alone; a fusion model
    decodes only against a draft, through emend."""
    return _decode(Stepper(model, features), cfg)


# -- emendation -----------------------------------------------------------------


def emend(model, mlm: MaskedLM, features, draft,
          cfg: BeamConfig | None = None) -> list[int]:
    """Re-decode a draft caption with the fusion model.

    The decoder conditions on the image and its own emitted tokens; the masked
    LM reads the draft with the next position masked. Returns the emended
    token sequence (ending in <eos> unless max_len was hit).
    """
    return _decode(EmendStepper(model, mlm, features, draft), cfg)[0]


# -- rescoring oracle -------------------------------------------------------------


def sequence_logprob(model, features, tokens,
                     mlm: MaskedLM | None = None,
                     draft: list[int] | None = None) -> float:
    """Teacher-forced log-probability of an emitted token sequence (a list,
    tuple or numpy array of ids).

    One CaptionDecoder.teacher_forced pass over <start> and every token but
    the last, then one step_logits call over all its rows through the rule of
    Stepper.step (_logprobs); step t reads the draft's row min(t, last), as
    EmendStepper does. The stepper built here only checks the inputs and
    holds the draft rows, so the score does not come from the beam's
    Stepper.step: tests hold it to the beam's scores and to a token-by-token
    replay of Stepper.step (tests/oracles.py, stepped_logprob).
    """
    if len(tokens) == 0:
        raise InputError("cannot score an empty sequence")
    _check_ids(tokens, model.cfg.vocab_size, "token")
    stepper = (Stepper(model, features) if draft is None
               else EmendStepper(model, mlm, features, draft))
    h_top = model.decoder.teacher_forced(stepper.features, [[START_ID, *tokens[:-1]]])
    steps = np.arange(len(tokens))
    rows = None if stepper.rows is None else stepper.rows[np.minimum(steps, len(stepper.rows) - 1)]
    return float(_logprobs(model, h_top, rows, f"steps 0-{steps[-1]}")[steps, tokens].sum())
