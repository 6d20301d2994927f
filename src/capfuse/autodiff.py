"""Reverse-mode automatic differentiation over dense float64 tensors.

A Tensor wraps a numpy array and records the operations that produced it;
calling backward() on a scalar output walks the graph in reverse topological
order and accumulates gradients into every tensor that requires them. An op
records a node if and only if one of its parents requires a gradient; no
switch turns recording off, and a caller who wants no graph passes plain
arrays. _record is the one place where a node is made: the Tensor branch of
every op computes its value, defines its backward closure and ends in
`return _record(value, parents, backward)`. The module also provides the
Adam optimizer; the finite-difference gradient checker that tests use as the
independent oracle, grad_check, lives in tests/oracles.py.

A Tensor carries what src calls on it and nothing more: the operator `*`,
elementwise with a Tensor of the same shape; `tensor * 2.0` raises TypeError.
Everything else is a function: `x @ W + b` is affine, one node, max(x, 0) is
relu, and a batch's mean cross-entropy is softmax_xent, one node.

The forward ops affine, concat, dropout, glu, relu, gather_rows, lstm_seq
and softmax_xent take activations as Tensors or as plain arrays,
and weights as Parameters either way. An array activation gives a plain array
and records no graph; a Tensor activation gives a Tensor and records a graph,
so a caller who trains passes Tensors. Both kinds compute the same products in
the same order, bit for bit. Mixing a Tensor and a plain array in one op
raises TypeError, as numpy arithmetic between the two does.

lstm_step(x, h, c, wx, wh, b) is one LSTM cell step and lstm_seq(x, batch,
wx, wh, b, last) one whole layer over a time-major [T*B x E] input; both take
the layer's input and all three of the cell's weights. lstm_seq projects its
input with one [T*B x E] @ Wx, then runs the cell's arithmetic step by step,
each row only up to the last step its caller reads (its `last` argument),
packed like a PyTorch PackedSequence: the rows still stepped at each step are
a prefix of one order, so the state shrinks by slicing. On a Tensor, lstm_seq
records one node for the whole layer, projection included, and
backpropagates through time by hand in its backward, over the same packed
rows, then through the projection to the input and Wx.

Graphs are acyclic: a node refers to its parents and to a backward closure
that holds the parents and saved arrays, never to the node itself; backward()
passes each closure its node's gradient. A graph is therefore freed by
reference counting as soon as its last reference drops, without waiting for
the cyclic garbage collector. backward() does not wait for that: it releases
each node as soon as the node's own backward has run, so the graph is freed
while the walk goes on.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

from .errors import InputError, NumericError, ShapeError, StateError, check_real

# _backward of a node that backward() has freed
_FREED = object()


class Tensor:
    """Dense float64 array with an optional gradient slot."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")
    # None makes `array op tensor` raise TypeError instead of building an
    # object array of Tensors
    __array_ufunc__ = None

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def _accum(self, g: np.ndarray):
        if self.grad is None:
            # g + 0.0 into a fresh array: the bits of zeros + g (-0.0 becomes
            # +0.0), broadcast alike; fresh because an op may pass one g to
            # both of its parents
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += g

    def backward(self):
        """Backpropagate from a scalar output through the recorded graph.

        Every leaf that requires a gradient, Parameters included, adds its
        gradient into .grad. backward() frees the graph as it goes: once a
        node's own backward has run, the node drops its gradient, its
        backward closure (with the arrays that closure saved) and its parent
        links, so reference counting frees each intermediate the caller does
        not hold while the walk goes on. Non-leaf gradients are therefore not
        kept (their .grad is None afterwards), and a second backward() that
        reaches any node of a freed graph raises StateError before any
        gradient moves.
        """
        if self.data.size != 1:
            raise StateError(f"backward() requires a scalar, got shape {self.shape}")
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            if node._backward is _FREED:
                raise StateError("backward() through a graph that an earlier backward() freed")
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        # pop, so that topo holds no reference to a node already walked
        while topo:
            node = topo.pop()
            if node._backward is not None:
                node._backward(node.grad)
                node.grad = None
                node._parents = ()
                node._backward = _FREED

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- elementwise product --------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        if self.data.shape != other.data.shape:
            raise ShapeError(
                f"elementwise product needs identical shapes, got "
                f"{self.data.shape} and {other.data.shape}"
            )

        def back(g, a=self, b=other):
            if a.requires_grad:
                a._accum(g * b.data)
            if b.requires_grad:
                b._accum(g * a.data)
        return _record(self.data * other.data, (self, other), back)


class Parameter(Tensor):
    """Named, trainable tensor; frozen parameters never receive updates."""

    __slots__ = ("name", "frozen")

    def __init__(self, name: str, data):
        super().__init__(data, requires_grad=True)
        self.name = name
        self.frozen = False

    def freeze(self):
        """Stop updates for good. `data` becomes read-only, so an in-place
        write raises ValueError, and rebinding `data` or `frozen` raises
        StateError, so a frozen value never changes. A copy or an unpickled
        parameter comes back frozen, with read-only data."""
        if not self.frozen:
            self.frozen = True
            self.requires_grad = False
            self.grad = None
            self.data.flags.writeable = False

    def __setattr__(self, attr, value):
        # a copy or unpickling restores the slots in the order name, frozen,
        # data, so a frozen parameter may bind data once
        if attr in ("data", "frozen") and getattr(self, "frozen", False):
            if hasattr(self, attr):
                raise StateError(f"parameter {self.name} is frozen; {attr} cannot be rebound")
            value.flags.writeable = False
        object.__setattr__(self, attr, value)

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.shape}, frozen={self.frozen})"


def _record(data: np.ndarray, parents: tuple, backward) -> Tensor:
    """A Tensor over data. It is a graph node, with these parents and the
    closure backward(g), if and only if some parent requires a gradient."""
    track = any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=track)
    if track:
        out._parents = parents
        out._backward = backward
    return out


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid on plain arrays, through tanh, which saturates
    instead of overflowing."""
    return 0.5 * (np.tanh(0.5 * x) + 1.0)


# -- structural operations ------------------------------------------------


def affine(x, w: Tensor, b: Tensor):
    """x @ w + b for a 2D x and a 1-D bias added to every row: a plain array
    from a plain-array x, which records no graph; from a Tensor x, one node
    whose backward gives x g @ w.T, w x.T @ g and b the column sums of g."""
    xd = x.data if isinstance(x, Tensor) else x
    if xd.ndim != 2 or w.data.ndim != 2:
        raise ShapeError(f"affine needs a 2D input and weight, got {xd.shape} and {w.data.shape}")
    if xd.shape[1] != w.data.shape[0]:
        raise ShapeError(f"affine input dim {xd.shape} does not match weight {w.data.shape}")
    if b.data.shape != w.data.shape[1:]:
        raise ShapeError(f"affine bias {b.data.shape} is not the 1-D bias {w.data.shape[1:]} "
                         f"of weight {w.data.shape}")
    out = xd @ w.data + b.data
    if not isinstance(x, Tensor):
        return out

    def back(g, a=x, m=w, c=b):
        if a.requires_grad:
            a._accum(g @ m.data.T)
        if m.requires_grad:
            m._accum(a.data.T @ g)
        if c.requires_grad:
            c._accum(g.sum(axis=0))
    return _record(out, (x, w, b), back)


def relu(x):
    """max(x, 0), with NaN kept: a plain array from a plain array, which
    records no graph; from a Tensor, a node whose gradient is g where x > 0
    and zero elsewhere."""
    if not isinstance(x, Tensor):
        return np.maximum(x, 0.0)

    def back(g, a=x):
        a._accum(g * (a.data > 0.0))
    return _record(np.maximum(x.data, 0.0), (x,), back)


def concat(a, b, axis: int = -1):
    """Concatenate two operands along `axis`; numpy's rules on ranks, axes
    and the other extents raise ShapeError, and so does a zero-sized `axis`.
    The backward pass splits the gradient at a's extent."""
    tensors = isinstance(a, Tensor)
    if tensors != isinstance(b, Tensor):
        raise TypeError("concat takes two Tensors or two plain arrays, not one of each")
    ad, bd = (a.data, b.data) if tensors else (a, b)
    try:
        out = np.concatenate([ad, bd], axis=axis)
    except ValueError as err:  # numpy's AxisError is a ValueError
        raise ShapeError(f"concat of {ad.shape} and {bd.shape} on axis {axis}: {err}") from None
    if ad.shape[axis] == 0 or bd.shape[axis] == 0:
        raise ShapeError(f"concat rejects a zero-sized axis {axis}")
    if not tensors:
        return out

    def back(g, parents=(a, b), n=ad.shape[axis], k=axis):
        for t, part in zip(parents, np.split(g, [n], axis=k)):
            if t.requires_grad:
                t._accum(part)
    return _record(out, (a, b), back)


def glu(x):
    """Gated linear unit: split the last axis in half, return a * sigmoid(b)."""
    xd = x.data if isinstance(x, Tensor) else x
    d = xd.shape[-1]
    if d % 2 != 0:
        raise ShapeError(f"glu needs an even last dimension, got {xd.shape}")
    h = d // 2
    a = xd[..., :h]
    gate = sigmoid(xd[..., h:])
    if not isinstance(x, Tensor):
        return a * gate

    def back(g, t=x, av=a, gv=gate, k=h):
        full = np.empty_like(t.data)
        full[..., :k] = g * gv
        full[..., k:] = g * av * gv * (1.0 - gv)
        t._accum(full)
    return _record(a * gate, (x,), back)


def lstm_step(x: np.ndarray, h: np.ndarray, c: np.ndarray, wx: np.ndarray, wh: np.ndarray,
              b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One LSTM cell step on plain arrays; records no graph.

    z = x @ wx + h @ wh, then z += b, holds the gates in order (input,
    forget, candidate, output); all four come from one in-place tanh, each
    sigmoid as 0.5 * (tanh(z / 2) + 1). Returns (h_new, c_new).
    """
    return _cell_update(_gates(x @ wx, h, wh, b), c)


def _gates(xp, h, wh, b) -> np.ndarray:
    """The activated gates (i, f, g, o) of one step, side by side."""
    z = xp + h @ wh
    z += b
    scale, shift = _gate_scale(h.shape[-1])  # read-only rows
    np.tanh(np.multiply(z, scale, out=z), out=z)
    z *= scale
    z += shift
    return z


@functools.lru_cache(maxsize=None)
def _gate_scale(n: int) -> np.ndarray:
    # rows (scale, shift): tanh(z * scale) * scale + shift is the sigmoid on
    # gates i, f, o and tanh on g; shift = 1 - scale
    rows = np.repeat([[0.5, 0.5, 1.0, 0.5], [0.5, 0.5, 0.0, 0.5]], n, axis=1)
    rows.flags.writeable = False
    return rows


def _cell_update(z, c):
    """(h_new, c_new) from the activated gates z and the cell state c."""
    n = c.shape[-1]
    i, f, g, o = z[:, :n], z[:, n:2 * n], z[:, 2 * n:3 * n], z[:, 3 * n:]
    c_new = f * c + i * g
    return o * np.tanh(c_new), c_new


def lstm_seq(x, batch: int, wx: Tensor, wh: Tensor, b: Tensor, last):
    """One LSTM layer unrolled from a zero state over a time-major input x of
    shape [T*batch x E]; returns the hidden state after every step,
    [T*batch x H], step t in rows t*batch to (t+1)*batch - 1.

    The input is projected by one product xp = x @ wx over every row, padded
    ones too. last[r] is the last step whose state row r's caller reads, -1
    for none. Row r is stepped up to last[r] only, and its rows after that
    are zero: the rows are ordered once by last, descending and stable, so
    each step steps a prefix of that order, and the stepped rows of xp are
    gathered step-major with one index, as a PackedSequence packs them. While
    any row is stepped at least min(2, batch) rows are, since a one-row
    product takes another BLAS kernel; a stepped row gets the bits of the
    all-rows unroll. Each step is lstm_step's arithmetic (_gates, then
    _cell_update) on plain arrays. A plain-array x gives a plain array and
    records no graph. A Tensor x records one node over x, wx, wh and b that
    saves the stepped rows' gates and cell states; its backward is
    backpropagation through time over the same prefixes, one dz @ wh.T per
    step, then one product over all rows for each weight's gradient and one
    dz @ wx.T for the input's. A row that is not stepped gets gradient zero.
    """
    tensor = isinstance(x, Tensor)
    xd = x.data if tensor else x
    hidden = wh.data.shape[0]
    if xd.ndim != 2 or xd.shape[0] % batch or xd.shape[1] != wx.data.shape[0]:
        raise ShapeError(f"lstm_seq input {xd.shape} is not [T*{batch} x {wx.data.shape[0]}]")
    last = np.asarray(last)
    if last.shape != (batch,) or not -1 <= last.min() <= last.max() < len(xd) // batch:
        raise ShapeError(f"lstm_seq last {last} is not one step in -1..T-1 per row of {batch}")
    steps = np.arange(last.max() + 1)
    rows = np.maximum((last >= steps[:, None]).sum(axis=1), min(2, batch))  # per step
    packed = (steps[:, None] * batch + np.argsort(-last, kind="stable"))[
        np.arange(batch) < rows[:, None]]
    xs, hp = (xd @ wx.data)[packed], np.empty((len(packed), hidden))
    h = c = np.zeros((batch, hidden))
    gates, cells, bounds = [], [], [0, *np.cumsum(rows).tolist()]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        z = _gates(xs[lo:hi], h[:hi - lo], wh.data, b.data)
        h, c = _cell_update(z, c[:hi - lo])
        hp[lo:hi] = h
        if tensor:
            gates.append(z)
            cells.append(c)
    hs = np.zeros((len(xd), hidden))
    hs[packed] = hp
    if not tensor:
        return hs
    back = functools.partial(_lstm_seq_backward, x, batch, wx, wh, b, hs, packed, bounds,
                             gates, cells)
    return _record(hs, (x, wx, wh, b), back)


def _lstm_seq_backward(x, batch, wx, wh, b, hs, packed, bounds, gates, cells, g):
    # the first rows of dh and dc carry the gradient of the state entering
    # step t + 1, the rest are zero; dzp holds the stepped rows' gate
    # pre-activation gradients, packed like the forward
    n = hs.shape[1]
    gp, dzp = g[packed], np.empty((len(packed), 4 * n))
    dh, dc = np.zeros((batch, n)), np.zeros((batch, n))
    for t in reversed(range(len(gates))):
        lo, hi = bounds[t], bounds[t + 1]
        m, z, tc = hi - lo, gates[t], np.tanh(cells[t])
        i, f, cand, o = z[:, :n], z[:, n:2 * n], z[:, 2 * n:3 * n], z[:, 3 * n:]
        dht = dh[:m] + gp[lo:hi]
        dct = dc[:m] + dht * o * (1.0 - tc * tc)
        d = dzp[lo:hi]
        d[:, :n] = dct * cand * i * (1.0 - i)
        d[:, n:2 * n] = (dct * cells[t - 1][:m] if t else 0.0) * f * (1.0 - f)
        d[:, 2 * n:3 * n] = dct * i * (1.0 - cand * cand)
        d[:, 3 * n:] = dht * tc * o * (1.0 - o)
        dc[:m] = dct * f
        dh[:m] = d @ wh.data.T
    dz = np.zeros((len(hs), 4 * n))
    dz[packed] = dzp
    if x.requires_grad:
        x._accum(dz @ wx.data.T)
    if wx.requires_grad:
        wx._accum(x.data.T @ dz)
    if wh.requires_grad:
        wh._accum(hs[:-batch].T @ dz[batch:])
    if b.requires_grad:
        b._accum(dz.sum(axis=0))


def log_softmax(x: np.ndarray) -> np.ndarray:
    """Numerically stable log-softmax over the last axis (plain numpy)."""
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax_xent(logits, targets: np.ndarray):
    """Mean cross-entropy of 2D logits against one integer target per row,
    as (-logp[rows, targets]).sum() * (1 / n) over the n rows: a 0-d array
    from plain-array logits, which records no graph; from Tensor logits, one
    scalar node whose backward gives the logits (softmax - onehot) * (g / n)."""
    ld = logits.data if isinstance(logits, Tensor) else logits
    if ld.ndim != 2 or not len(ld):
        raise ShapeError(f"softmax_xent expects 2D logits with rows, got {ld.shape}")
    n, v = ld.shape
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (n,):
        raise ShapeError(f"targets shape {targets.shape} does not match {n} rows")
    if targets.min() < 0 or targets.max() >= v:
        raise InputError(f"target out of range for {v} classes")
    logp = log_softmax(ld)
    rows = np.arange(n)
    loss = np.asarray((-logp[rows, targets]).sum() * (1.0 / n))
    if not isinstance(logits, Tensor):
        return loss

    def back(g, a=logits, lp=logp, t=targets, r=rows, k=1.0 / n):
        d = np.exp(lp)
        d[r, t] -= 1.0
        a._accum(d * (float(g) * k))
    return _record(loss, (logits,), back)


def dropout(x, rate: float, rng: np.random.Generator | None = None):
    """Inverted dropout: a mask drawn from `rng` and rescaled by 1/(1-rate)
    when given an rng (training), the identity without one (inference) or at
    rate 0."""
    check_real("dropout rate", rate, "in [0, 1)", lambda r: 0.0 <= r < 1.0)
    if rng is None or rate == 0.0:
        return x
    xd = x.data if isinstance(x, Tensor) else x
    keep = (rng.random(xd.shape) >= rate) / (1.0 - rate)
    if not isinstance(x, Tensor):
        return xd * keep

    def back(g, a=x, m=keep):
        a._accum(g * m)
    return _record(xd * keep, (x,), back)


def gather_rows(table, ids: np.ndarray):
    """Select rows of a table by id; a negative id selects a zero row. A
    plain-array table gives a plain array and records no graph; a Tensor
    table gives a Tensor, whose backward scatter-adds.

    The backward scatter-adds the gradient rows, in the order the ids come,
    into a zero-filled array of the table's shape and passes it to _accum
    like any other op; a negative id's rows are dropped. A sum that starts
    from +0.0 is never -0.0, so a gradient that backward() accumulates holds
    no -0.0, and the untouched +0.0 rows leave its bits as they were."""
    ids = np.asarray(ids, dtype=np.int64)
    tensor = isinstance(table, Tensor)
    out = (table.data if tensor else table)[ids]
    out[ids < 0] = 0.0
    if not tensor:
        return out

    def back(g, t=table, ix=ids):
        full = np.zeros_like(t.data)
        keep = ix >= 0
        np.add.at(full, ix[keep], g[keep])
        t._accum(full)
    return _record(out, (table,), back)


# -- optimizer -------------------------------------------------------------


class Adam:
    """Bias-corrected Adam over a fixed parameter list.

    Frozen parameters are skipped entirely, so their values stay bit-identical
    across any number of steps. step() clears all gradients afterwards. A
    missing or non-finite gradient raises before the step counter, the moments
    or any parameter changes. The moment rates and eps are fixed at the
    defaults of Kingma and Ba (arXiv:1412.6980).
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params, lr: float = 5e-4):
        check_real("learning rate", lr, "finite and positive", lambda r: 0.0 < r < np.inf)
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        for p in self.params:
            if p.frozen:
                continue
            name = getattr(p, "name", "?")
            if p.grad is None:
                raise StateError(f"parameter {name} has no gradient")
            if not np.isfinite(p.grad).all():
                raise NumericError(f"parameter {name} has a non-finite gradient")
        self.t += 1
        b1t = 1.0 - self.BETA1 ** self.t
        b2t = 1.0 - self.BETA2 ** self.t
        for i, p in enumerate(self.params):
            if p.frozen:
                p.grad = None
                continue
            # in place with two scratch arrays, in the operation order of
            # m = BETA1 * m + (1 - BETA1) * g, v = BETA2 * v + (1 - BETA2) * (g * g),
            # data -= lr * (m / b1t) / (sqrt(v / b2t) + EPS)
            g, m, v = p.grad, self._m[i], self._v[i]
            step = np.multiply(g, 1.0 - self.BETA1)
            m *= self.BETA1
            m += step
            denom = np.multiply(g, g)
            denom *= 1.0 - self.BETA2
            v *= self.BETA2
            v += denom
            np.divide(m, b1t, out=step)
            step *= self.lr
            np.divide(v, b2t, out=denom)
            np.sqrt(denom, out=denom)
            denom += self.EPS
            step /= denom
            p.data -= step
            p.grad = None


def clip_grad_norm(params, max_norm: float):
    """Scale all gradients so their joint L2 norm is at most max_norm, a
    finite positive number, and return the norm before scaling. A norm that
    is not finite raises NumericError before any gradient is scaled."""
    check_real("max_norm", max_norm, "finite and positive", lambda r: 0.0 < r < np.inf)
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = np.sqrt(total)
    if not np.isfinite(norm):
        raise NumericError(f"gradient norm is {norm}")
    if norm > max_norm:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= scale
    return norm


def params_checksum(params) -> str:
    """SHA-256 over sorted parameter names, shapes, flags, and raw bytes."""
    h = hashlib.sha256()
    for p in sorted(params, key=lambda q: q.name):
        h.update(p.name.encode())
        h.update(str(p.shape).encode())
        h.update(b"frozen" if p.frozen else b"live")
        h.update(np.ascontiguousarray(p.data).tobytes())
    return h.hexdigest()
