"""Span tracing for the benchmark's traced mode, applied from outside capfuse.

`Tracer.patch()` replaces selected public functions and methods of the
capfuse modules with wrappers that record one span per call: name, start,
end and the index of the enclosing span. Names that a module bound at import
(``decoding`` takes ``log_softmax`` and ``mlm_context_rows`` this way) are
patched in that caller's namespace as well. Every original is restored when
the ``with`` block ends. Collections of the cyclic garbage collector are
recorded as ``autodiff.gc`` spans through ``gc.callbacks``.

Nothing under ``src/`` knows about tracing; an untraced run executes the
unpatched code.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager

from capfuse import autodiff, data, decoding, evaluation, fusion, models

# Span names; each becomes the per-layer metric "<name>_s" (self time), except
# decoding.beam, whose self time is reported as decoding.beam_self_s.
SPAN_NAMES = (
    "autodiff.backward", "autodiff.adam", "autodiff.graph_walk", "autodiff.gc",
    "models.forward", "models.lstm_step", "models.decoder_step", "models.context_rows",
    "fusion.simple", "fusion.cold", "fusion.hier",
    "decoding.start", "decoding.step", "decoding.log_softmax", "decoding.select",
    "decoding.beam",
    "evaluation.bleu", "evaluation.rouge", "evaluation.cider", "evaluation.edits",
    "data.generate", "data.tokenize",
)
# Stepper methods wrapped on every stepper class of `decoding` that defines them.
STEPPER_METHODS = {"start": "decoding.start", "step": "decoding.step",
                   "select": "decoding.select"}


def self_times(spans) -> dict[str, float]:
    """Sum per span name of duration minus the time its direct children cover.

    `spans` holds [name, start, end, parent] records, where parent is the
    index of the enclosing span or -1. Spans on one thread nest, so direct
    children never overlap and their durations can be summed.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, _), covered in zip(spans, child):
        out[name] = out.get(name, 0.0) + (end - start) - covered
    return out


def graph_size(root) -> int:
    """Number of autodiff nodes reachable from `root` through _parents."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


class Tracer:
    """In-memory span and counter store plus the patch table."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []  # targets that no longer exist in capfuse
        self._stack: list[int] = []
        self._gc_span = -1

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        # Allocate before reading the clock: a collection triggered by the
        # allocation then lands before this span, not inside it.
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        record[1] = self.clock()
        return self._stack[-1]

    def end(self, idx: int):
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    def count(self, name: str, n: float = 1):
        self.counts[name] = self.counts.get(name, 0) + n

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_span = self.begin("autodiff.gc")
        else:
            self.end(self._gc_span)
            self.count("autodiff.gc_collected", info["collected"])

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name, after=None):
        name_of = name if callable(name) else (lambda args: name)

        def traced(*args, **kwargs):
            idx = self.begin(name_of(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_backward(self, fn):
        def backward(tensor):
            idx = self.begin("autodiff.graph_walk")
            self.count("autodiff.graph_nodes_total", graph_size(tensor))
            self.end(idx)
            idx = self.begin("autodiff.backward")
            try:
                return fn(tensor)
            finally:
                self.end(idx)

        backward.__wrapped__ = fn
        return backward

    def _targets(self):
        """(owner, attribute, wrapper factory) for every traced call site."""
        span = lambda name, after=None: lambda fn: self._wrap(fn, name, after)  # noqa: E731
        rows = lambda args, _: self.count("decoding.step_rows", len(args[2]))  # noqa: E731
        tokens = lambda _, result: self.count("decoding.tokens_out", len(result[0]))  # noqa: E731
        out = [
            (autodiff.Tensor, "backward", self._wrap_backward),
            (autodiff.Adam, "step", span("autodiff.adam")),
            (models, "mlm_pretrain", span("models.forward")),
            (models.LstmCell, "step", span("models.lstm_step")),
            (models.CaptionDecoder, "step", span("models.decoder_step")),
            (models, "mlm_context_rows", span("models.context_rows")),
            (decoding, "mlm_context_rows", span("models.context_rows")),
            (fusion.FusionLayer, "fuse", span(lambda args: f"fusion.{args[0].kind.value}")),
            (decoding, "log_softmax", span("decoding.log_softmax")),
            (decoding, "beam_over", span("decoding.beam", tokens)),
            (evaluation, "bleu_all", span("evaluation.bleu")),
            (evaluation, "rouge_l", span("evaluation.rouge")),
            (evaluation, "cider", span("evaluation.cider")),
            (evaluation, "token_edits", span("evaluation.edits")),
            (evaluation, "edit_histogram", span("evaluation.edits")),
            (data, "generate_dataset", span("data.generate")),
            (data, "build_vocab", span("data.tokenize")),
            (data, "tokenize", span("data.tokenize")),
        ]
        steppers = [c for c in vars(decoding).values()
                    if isinstance(c, type) and c.__module__ == decoding.__name__
                    and any(m in vars(c) for m in STEPPER_METHODS)]
        if not steppers:
            out.append((decoding, "<stepper classes>", None))
        for cls in steppers:
            for method, name in STEPPER_METHODS.items():
                if method in vars(cls):
                    out.append((cls, method, span(name, rows if method == "step" else None)))
        return out

    @contextmanager
    def patch(self):
        """Install every wrapper and the gc callback; restore all on exit."""
        saved = []
        try:
            for owner, attr, factory in self._targets():
                original = vars(owner).get(attr)
                if factory is None or original is None:
                    label = f"{getattr(owner, '__name__', owner)}.{attr}"
                    if label not in self.missing:
                        self.missing.append(label)
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, factory(original))
            gc.callbacks.append(self._on_gc)
            yield self
        finally:
            if self._on_gc in gc.callbacks:
                gc.callbacks.remove(self._on_gc)
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- summary ----------------------------------------------------------------

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer self times and counters; self times plus
        trace.unattributed_s add up to wall_s."""
        selfs = self_times(self.spans)
        out = {}
        for name in SPAN_NAMES:
            key = "decoding.beam_self_s" if name == "decoding.beam" else f"{name}_s"
            out[key] = selfs.get(name, 0.0)
        backward_calls = self.calls("autodiff.backward")
        rows = self.counts.get("decoding.step_rows", 0)
        tokens_out = self.counts.get("decoding.tokens_out", 0)
        out.update({
            "autodiff.graph_nodes": (self.counts.get("autodiff.graph_nodes_total", 0)
                                     / backward_calls if backward_calls else 0.0),
            "autodiff.gc_collected": self.counts.get("autodiff.gc_collected", 0),
            "models.lstm_step_calls": self.calls("models.lstm_step"),
            "models.context_rows_calls": self.calls("models.context_rows"),
            "decoding.step_calls": self.calls("decoding.step"),
            "decoding.step_rows": rows,
            "decoding.tokens_out": tokens_out,
            "decoding.useful_row_ratio": tokens_out / rows if rows else 0.0,
            "trace.wall_s": wall_s,
            "trace.unattributed_s": wall_s - sum(selfs.values()),
        })
        return out
