"""Independent brute-force reimplementations used as test oracles.

These deliberately avoid the data structures and shortcuts of the package
implementations: counting is done by scanning lists, LCS recursively,
edit distance by plain recursion, edit alignments over the full table
without the package's shared-suffix trim, gather gradients as zero-filled
full-size arrays, gradients by central finite differences (from a scalar
such as total, the sum of a tensor's elements), LSTM steps and
the masked-LM loss as step-major graphs of elementary nodes (matrix
products, slices, sigmoid, tanh, elementwise products and broadcast sums),
masked-LM states one masked sequence at a time, one step and one layer at a
time, an LSTM layer's input projection and its gradients over every padded
row as well as the stepped ones, fusion logits from each scheme's equations
in plain numpy, greedy decoding by a plain argmax loop, beam expansion order
by a three-key lexsort, a sequence's log-probability by the beam's own Stepper.step, one token at
a time, against the one teacher-forced pass of decoding.sequence_logprob, and
a caption's scene-graph tuples by a parser of the noun phrases and relation
that data's templates write, against the tuples of the scene itself.
"""

import math
from functools import lru_cache

import numpy as np

from capfuse import autodiff
from capfuse.autodiff import Tensor, _record, gather_rows, softmax_xent
from capfuse.data import COLORS, RELATIONS, SHAPES, SIZES
from capfuse.decoding import EmendStepper, Stepper
from capfuse.errors import InputError, NumericError
from capfuse.models import EOS_ID, MASK_ID, START_ID, _context_steps, _padded_batch


# -- BLEU -----------------------------------------------------------------------


def _ngram_list(tokens, n):
    return [tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]


def _count_occurrences(grams, gram):
    return sum(1 for g in grams if g == gram)


def bleu_brute(hypotheses, references, order):
    """Corpus BLEU for one order via explicit scanning, 0-100 scale."""
    hyp_total = 0
    ref_total = 0
    precisions = []
    for n in range(1, order + 1):
        matched = 0
        total = 0
        for hyp, refs in zip(hypotheses, references):
            hyp_grams = _ngram_list(hyp, n)
            total += len(hyp_grams)
            for gram in set(hyp_grams):
                hyp_count = _count_occurrences(hyp_grams, gram)
                best_ref = 0
                for ref in refs:
                    c = _count_occurrences(_ngram_list(ref, n), gram)
                    if c > best_ref:
                        best_ref = c
                matched += min(hyp_count, best_ref)
        if total == 0 or matched == 0:
            return 0.0
        precisions.append(matched / total)
    for hyp, refs in zip(hypotheses, references):
        hyp_total += len(hyp)
        best = None
        for ref in refs:
            key = (abs(len(ref) - len(hyp)), len(ref))
            if best is None or key < best:
                best = key
        ref_total += best[1]
    if hyp_total == 0:
        return 0.0
    bp = 1.0 if hyp_total >= ref_total else math.exp(1.0 - ref_total / hyp_total)
    product = 1.0
    for p in precisions:
        product *= p
    return 100.0 * bp * product ** (1.0 / order)


# -- ROUGE-L ---------------------------------------------------------------------


def lcs_recursive(a, b):
    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == 0 or j == 0:
            return 0
        if a[i - 1] == b[j - 1]:
            return rec(i - 1, j - 1) + 1
        return max(rec(i - 1, j), rec(i, j - 1))

    return rec(len(a), len(b))


def rouge_brute(hypotheses, references, beta=1.2):
    """Corpus ROUGE-L with a recursive LCS, 0-100 scale."""
    scores = []
    for hyp, refs in zip(hypotheses, references):
        best = 0.0
        for ref in refs:
            lcs = lcs_recursive(tuple(hyp), tuple(ref))
            if lcs == 0:
                continue
            p = lcs / len(hyp)
            r = lcs / len(ref)
            f = (1 + beta * beta) * p * r / (r + beta * beta * p)
            best = max(best, f)
        scores.append(100.0 * best)
    total = 0.0
    for score in scores:  # in sequence: builtin sum is compensated from Python 3.12 on
        total += score
    return total / len(scores)


# -- CIDEr-D ---------------------------------------------------------------------


def cider_brute(hypotheses, references, max_n=4, sigma=6.0):
    """CIDEr-D on the 0-10 scale via explicit per-ngram loops."""
    n_docs = len(references)
    doc_freq = {}
    for refs in references:
        grams_here = set()
        for ref in refs:
            for n in range(1, max_n + 1):
                grams_here.update(_ngram_list(ref, n))
        for g in grams_here:
            doc_freq[g] = doc_freq.get(g, 0) + 1

    def weight(tokens, gram):
        tf = _count_occurrences(_ngram_list(tokens, len(gram)), gram)
        idf = math.log(n_docs) - math.log(max(1.0, doc_freq.get(gram, 0)))
        return tf * idf

    total_score = 0.0
    for hyp, refs in zip(hypotheses, references):
        per_ref = 0.0
        for ref in refs:
            delta = len(hyp) - len(ref)
            penalty = math.exp(-(delta * delta) / (2.0 * sigma * sigma))
            sim = 0.0
            for n in range(1, max_n + 1):
                h_grams = sorted(set(_ngram_list(hyp, n)))
                r_grams = sorted(set(_ngram_list(ref, n)))
                h_norm = math.sqrt(sum(weight(hyp, g) ** 2 for g in h_grams))
                r_norm = math.sqrt(sum(weight(ref, g) ** 2 for g in r_grams))
                if h_norm == 0.0 or r_norm == 0.0:
                    continue
                dot = 0.0
                for g in h_grams:
                    dot += min(weight(hyp, g), weight(ref, g)) * weight(ref, g)
                sim += penalty * dot / (h_norm * r_norm)
            per_ref += sim / max_n
        total_score += 10.0 * per_ref / len(refs)
    return total_score / len(hypotheses)


# -- edit distance ------------------------------------------------------------------


def edit_distance_recursive(a, b):
    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        if a[i - 1] == b[j - 1]:
            return rec(i - 1, j - 1)
        return 1 + min(rec(i - 1, j - 1), rec(i - 1, j), rec(i, j - 1))

    return rec(len(a), len(b))


def token_edits_table(draft, emended):
    """Levenshtein alignment over the full (m+1) x (n+1) table, with the
    backtrace preferring a match, then a substitution, a delete, an insert.

    Returns the distance and the ops as (kind, pos, old, new) tuples, in
    draft order, with draft-side positions.
    """
    m, n = len(draft), len(emended)
    dist = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        dist[i][0] = i
    for j in range(n + 1):
        dist[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            if draft[i - 1] == emended[j - 1]:
                dist[i][j] = dist[i - 1][j - 1]
            else:
                dist[i][j] = 1 + min(dist[i - 1][j - 1], dist[i - 1][j], dist[i][j - 1])
    ops = []
    i, j = m, n
    while i > 0 or j > 0:
        if i > 0 and j > 0 and draft[i - 1] == emended[j - 1] \
                and dist[i][j] == dist[i - 1][j - 1]:
            i, j = i - 1, j - 1
        elif i > 0 and j > 0 and dist[i][j] == dist[i - 1][j - 1] + 1:
            ops.append(("sub", i - 1, draft[i - 1], emended[j - 1]))
            i, j = i - 1, j - 1
        elif i > 0 and dist[i][j] == dist[i - 1][j] + 1:
            ops.append(("del", i - 1, draft[i - 1], None))
            i -= 1
        else:
            ops.append(("ins", i, None, emended[j - 1]))
            j -= 1
    ops.reverse()
    return dist[m][n], ops


def all_sequences(alphabet, max_len):
    out = [[]]
    frontier = [[]]
    for _ in range(max_len):
        frontier = [seq + [tok] for seq in frontier for tok in alphabet]
        out.extend(frontier)
    return out


# -- autodiff -------------------------------------------------------------------------


def gather_rows_grad_full(shape, ids, g):
    """One gather_rows backward as a zero-filled array of the table's full
    shape, with g scatter-added at the row ids."""
    full = np.zeros(shape)
    np.add.at(full, ids, g)
    return full


# Round-off in a central difference: f(x+step) and f(x-step) are each trusted
# to this many ulps of |f|, which puts up to FD_ROUNDOFF_ULPS * |f| * eps / step
# of error into (hi - lo) / (2 step). Where the gradient is near zero (a tanh
# saturated to 1e-8 with |f| about 3), that error alone can exceed a 1e-4
# relative bound, so it is forgiven before the relative error is taken.
FD_ROUNDOFF_ULPS = 2.0
_EPS = float(np.finfo(np.float64).eps)


def grad_check(f, inputs, step: float = 1e-5) -> float:
    """Compare autodiff gradients of f(*inputs) against central differences.

    Returns the maximum over all input coordinates of
    max(0, |g_ad - g_fd| - roundoff) / max(1e-8, |g_ad| + |g_fd|), where
    roundoff = FD_ROUNDOFF_ULPS * max(|f(x+step)|, |f(x-step)|) * eps / step.
    """
    out = f(*inputs)
    if not np.isfinite(out.data).all():
        raise NumericError("function value is not finite at the given inputs")
    for t in inputs:
        t.grad = None
    out.backward()
    analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
                for t in inputs]
    worst = 0.0
    for t, g_ad in zip(inputs, analytic):
        flat = t.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = f(*inputs).item()
            flat[i] = orig - step
            lo = f(*inputs).item()
            flat[i] = orig
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise NumericError("function value is not finite during perturbation")
            g_fd = (hi - lo) / (2.0 * step)
            g_a = g_ad.reshape(-1)[i]
            roundoff = FD_ROUNDOFF_ULPS * max(abs(hi), abs(lo)) * _EPS / step
            rel = max(0.0, abs(g_a - g_fd) - roundoff) / max(1e-8, abs(g_a) + abs(g_fd))
            worst = max(worst, rel)
    return worst


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum a gradient over axes that numpy broadcasting expanded."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b of two 2D Tensors; a's gradient is g @ b.T and b's is a.T @ g."""
    def back(g, x=a, y=b):
        if x.requires_grad:
            x._accum(g @ y.data.T)
        if y.requires_grad:
            y._accum(x.data.T @ g)
    return _record(a.data @ b.data, (a, b), back)


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b with numpy broadcasting; each parent's gradient is summed over
    the axes that broadcasting expanded."""
    def back(g, x=a, y=b):
        if x.requires_grad:
            x._accum(_unbroadcast(g, x.data.shape))
        if y.requires_grad:
            y._accum(_unbroadcast(g, y.data.shape))
    return _record(a.data + b.data, (a, b), back)


def total(x: Tensor) -> Tensor:
    """The sum of every element of x, a scalar node: the scalar output that a
    gradient check or a backward() needs; each element's gradient is g."""
    def back(g, a=x):
        a._accum(np.full_like(a.data, float(g)))
    return _record(np.asarray(x.data.sum()), (x,), back)


def sigmoid(x: Tensor) -> Tensor:
    """Logistic sigmoid node, through autodiff.sigmoid's tanh form."""
    s = autodiff.sigmoid(x.data)

    def back(g, a=x, v=s):
        a._accum(g * v * (1.0 - v))
    return _record(s, (x,), back)


def tanh(x: Tensor) -> Tensor:
    t = np.tanh(x.data)

    def back(g, a=x, v=t):
        a._accum(g * (1.0 - v * v))
    return _record(t, (x,), back)


def slice_last(x: Tensor, start: int, stop: int) -> Tensor:
    """x restricted to [start, stop) on the last axis."""
    def back(g, a=x, s=start, e=stop):
        full = np.zeros_like(a.data)
        full[..., s:e] = g
        a._accum(full)
    return _record(x.data[..., start:stop], (x,), back)


def lstm_step_graph(cell, x: Tensor, h: Tensor, c: Tensor):
    """One LSTM cell step as a graph of elementary nodes, with the
    arithmetic of autodiff.lstm_step: z = x @ Wx + h @ Wh, then + b."""
    z = add(add(matmul(x, cell.wx), matmul(h, cell.wh)), cell.b)
    n = cell.wh.shape[0]
    i = sigmoid(slice_last(z, 0, n))
    f = sigmoid(slice_last(z, n, 2 * n))
    g = tanh(slice_last(z, 2 * n, 3 * n))
    o = sigmoid(slice_last(z, 3 * n, 4 * n))
    c_new = add(f * c, i * g)
    return o * tanh(c_new), c_new


def stack_step_graph(cells, x: Tensor, state):
    """One step of stacked cells; returns the top hidden state and the new
    per-layer (h, c) states."""
    new_state = []
    for cell, (h, c) in zip(cells, state):
        x, c = lstm_step_graph(cell, x, h, c)
        new_state.append((x, c))
    return x, new_state


def lstm_seq_all_rows(x, batch: int, wx, wh, b, last):
    """autodiff.lstm_seq as it was before it projected only the rows it
    steps: the same packed steps, but x @ wx over every row, padded ones too,
    and a backward through a zero-filled [T*batch x 4H] gate gradient dz,
    with dz @ wx.T, x.T @ dz, hs[:-batch].T @ dz[batch:] and dz.sum(0) over
    every row. Its forward rows are lstm_seq's bits wherever a product's rows
    do not depend on its row count; its gradients sum in another order."""
    tensor = isinstance(x, Tensor)
    xd, last, hidden = x.data if tensor else x, np.asarray(last), wh.data.shape[0]
    steps = np.arange(last.max() + 1)
    rows = np.maximum((last >= steps[:, None]).sum(axis=1), min(2, batch))
    packed = (steps[:, None] * batch + np.argsort(-last, kind="stable"))[
        np.arange(batch) < rows[:, None]]
    xs, hp = (xd @ wx.data)[packed], np.empty((len(packed), hidden))
    h = c = np.zeros((batch, hidden))
    gates, cells, bounds = [], [], [0, *np.cumsum(rows).tolist()]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        z = autodiff._gates(xs[lo:hi], h[:hi - lo], wh.data, b.data)
        h, c = autodiff._cell_update(z, c[:hi - lo])
        hp[lo:hi] = h
        gates.append(z)
        cells.append(c)
    hs = np.zeros((len(xd), hidden))
    hs[packed] = hp
    if not tensor:
        return hs

    def back(g, n=hidden):
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
            wx._accum(xd.T @ dz)
        if wh.requires_grad:
            wh._accum(hs[:-batch].T @ dz[batch:])
        if b.requires_grad:
            b._accum(dz.sum(axis=0))

    return _record(hs, (x, wx, wh, b), back)


def masked_batch_loss_graph(mlm, seqs, positions) -> Tensor:
    """Mean cross-entropy at one mask position per sequence, step-major:
    each direction steps every layer one token at a time from Tensor zeros,
    and each sequence's context state is the sum over steps of the top state
    times a 0/1 indicator of the chosen step (step -1 chooses none)."""
    toks, rev, lens = _padded_batch(seqs)
    batch, steps = toks.shape
    ctx = []
    for cells, matrix, idx in zip((mlm.fwd, mlm.bwd), (toks, rev),
                                  _context_steps(positions, lens)):
        zeros = Tensor(np.zeros((batch, mlm.cfg.hidden_dim)))
        state = [(zeros, zeros)] * len(cells)
        chosen = zeros
        for t in range(steps):
            top, state = stack_step_graph(cells, gather_rows(mlm.embed, matrix[:, t]), state)
            mask = np.repeat((idx == t).astype(np.float64)[:, None], top.shape[1], axis=1)
            chosen = add(chosen, top * Tensor(mask))
        ctx.append(chosen)
    logits = mlm.head_logits(mlm.combine(*ctx))
    targets = toks[np.arange(batch), positions]
    return softmax_xent(logits, targets)


# -- masked LM and decoding -----------------------------------------------------------


def _unroll(cells, embed, tokens):
    """Top-layer hidden state after the last token, one step and one layer at
    a time in plain numpy, with the logistic sigmoid as exp(-log(1 + e^-z))."""
    state = [(np.zeros(cell.wh.shape[0]), np.zeros(cell.wh.shape[0])) for cell in cells]
    for tok in tokens:
        x = embed.data[tok]
        for k, cell in enumerate(cells):
            h, c = state[k]
            z = x @ cell.wx.data + h @ cell.wh.data + cell.b.data
            i, f, g, o = np.split(z, 4)
            c = np.exp(-np.logaddexp(0.0, -f)) * c + np.exp(-np.logaddexp(0.0, -i)) * np.tanh(g)
            h = np.exp(-np.logaddexp(0.0, -o)) * np.tanh(c)
            state[k] = (h, c)
            x = h
    return state[-1][0]


def encode_masked(mlm, tokens) -> Tensor:
    """Masked-LM state at the single [MASK] position of one token sequence,
    from the forward encoder over the tokens left of it and the backward
    encoder over the tokens right of it; an empty side contributes zeros."""
    tokens = list(tokens)
    positions = [i for i, t in enumerate(tokens) if t == MASK_ID]
    if len(positions) != 1:
        raise InputError(f"expected exactly one mask token, found {len(positions)}")
    p = positions[0]
    prefix, suffix = tokens[:p], tokens[p + 1:]
    zeros = np.zeros(mlm.cfg.hidden_dim)
    fwd_ctx = _unroll(mlm.fwd, mlm.embed, prefix) if prefix else zeros
    bwd_ctx = _unroll(mlm.bwd, mlm.embed, suffix[::-1]) if suffix else zeros
    return mlm.combine(Tensor(fwd_ctx[None]), Tensor(bwd_ctx[None]))


def fusion_features(layer, h_lstm, h_mlm):
    """Features of a FusionLayer from its scheme's equations, on plain arrays:
    relu gates, [a; b] as np.hstack, the GLU's sigmoid as 1 / (1 + e^-z)."""
    def lin(x, w, b):
        return x @ w.data + b.data

    def relu(x):
        return np.maximum(x, 0.0)

    def glu(x):
        a, g = np.split(x, 2, axis=-1)
        return a / (1.0 + np.exp(-g))

    if layer.kind.value == "simple":
        return relu(lin(np.hstack([h_lstm, h_mlm]), layer.gate_w, layer.gate_b))
    if layer.kind.value == "cold":
        h_lm = relu(lin(h_mlm, layer.lm_w, layer.lm_b))
        gate = relu(lin(np.hstack([h_lstm, h_lm]), layer.gate_w, layer.gate_b))
        return relu(lin(np.hstack([h_lstm, gate * h_lm]), layer.merge_w, layer.merge_b))
    # hierarchical: the LM state comes first
    h_c = np.hstack([h_mlm, h_lstm])
    left = relu(lin(h_c, layer.left_w, layer.left_b)) * h_c
    right = relu(lin(h_c, layer.right_w, layer.right_b)) * h_c
    return glu(lin(glu(np.hstack([left, right])), layer.expand_w, layer.expand_b))


def greedy_oracle(stepper, max_len):
    """Argmax decoding of one hypothesis; returns (tokens, summed log-prob).
    The output ends with <eos> or has length max_len; ties go to the smaller id."""
    state = stepper.start()
    tokens = []
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


def stepped_logprob(model, features, tokens, mlm=None, draft=None) -> float:
    """Log-probability of a token sequence as the beam scores it: the
    decoding stepper (an EmendStepper against a draft) fed <start> and then
    each token in turn, one Stepper.step per token, the log-probabilities
    summed in a Python float."""
    stepper = (Stepper(model, features) if draft is None
               else EmendStepper(model, mlm, features, draft))
    state = stepper.start()
    total = 0.0
    current = START_ID
    for tok in tokens:
        state, logprobs = stepper.step(state, np.array([current]))
        total += float(logprobs[0][tok])
        current = tok
    return total


def lexsort_cells(total, k):
    """(parent, token) pairs of the k highest cells of a [hypotheses x vocab]
    score matrix, best first, ranked by np.lexsort on explicit keys: score
    descending, then token id, then parent, each ascending."""
    hyps, vocab = total.shape
    flat = total.reshape(-1)
    tokens_key = np.tile(np.arange(vocab), hyps)
    parents_key = np.repeat(np.arange(hyps), vocab)
    order = np.lexsort((parents_key, tokens_key, -flat))[:k]
    return [(int(parents_key[i]), int(tokens_key[i])) for i in order]


# -- scene-graph tuples -----------------------------------------------------------

# the determiner of a noun phrase and the count it states
DETERMINERS = {"a": 1, "one": 1, "two": 2, "three": 3}


def scene_tuples(scene) -> set:
    """A scene's graph as tuples: (count, size, colour, shape) of each object,
    and (relation, 0, 1) when the scene relates its first object to its
    second. The relation names the objects by position, so one wrong
    attribute is one wrong tuple; a caption that swaps the first two
    objects still states it, and only the order of noun_phrases shows the
    swap."""
    tuples = {(o.count, o.size, o.color, o.shape) for o in scene.objects}
    if scene.relation is not None:
        tuples.add((scene.relation, 0, 1))
    return tuples


def _noun_phrase(words, i):
    """(count, size, colour, shape) of "determiner size colour shape[s]" at
    words[i:i + 4], with a plural s if and only if the count exceeds 1, or
    None."""
    if i + 4 > len(words) or words[i] not in DETERMINERS:
        return None
    count = DETERMINERS[words[i]]
    size, colour, noun = words[i + 1:i + 4]
    plural = noun.endswith("s")
    shape = noun[:-1] if plural else noun
    if plural == (count > 1) and size in SIZES and colour in COLORS and shape in SHAPES:
        return (count, size, colour, shape)
    return None


def noun_phrases(words) -> list:
    """(position, (count, size, colour, shape)) of each noun phrase of a
    caption, in order, read left to right; words outside a phrase are
    skipped."""
    found, i = [], 0
    while i < len(words):
        phrase = _noun_phrase(words, i)
        if phrase is None:
            i += 1
        else:
            found.append((i, phrase))
            i += 4
    return found


def caption_tuples(words) -> set:
    """The scene_tuples that a caption's words state: each noun phrase
    "determiner size colour shape[s]", and (relation, 0, 1) for a one- or
    two-word RELATIONS phrase that comes directly after the first noun
    phrase and directly before the second. Every other word is skipped, so
    a caption off the grammar gives only the tuples it spells out."""
    words = list(words)
    phrases = noun_phrases(words)
    tuples = {t for _, t in phrases}
    if len(phrases) >= 2:
        (first, _), (second, _) = phrases[:2]
        relation = " ".join(words[first + 4:second])
        if relation in RELATIONS:
            tuples.add((relation, 0, 1))
    return tuples
