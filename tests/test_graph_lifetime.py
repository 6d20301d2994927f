"""Autodiff graphs hold no reference cycles, so reference counting frees a
graph as soon as its last reference drops, with the cyclic collector off;
backward() frees the graph as it walks it, so the caller's loss holds
nothing afterwards."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from capfuse import data
from capfuse.autodiff import Tensor, lstm_seq
from capfuse.models import MaskedLM, MlmConfig, _context_steps, _masked_batch_loss
from oracles import total

# deeper than the interpreter's recursion limit, so neither the topological
# walk nor the release of the chain may recurse per node
CHAIN_DEPTH = 50_000


def chain():
    """(build, leaves): build() makes a deep chain from the leaf x."""
    x, one = Tensor(np.array(1.0), requires_grad=True), Tensor(np.array(1.0))

    def build():
        y = x
        for _ in range(CHAIN_DEPTH):
            y = y * one
        return y

    return build, [x]


def masked_batch():
    """(build, leaves): build() makes a small masked-LM batch loss."""
    mlm = MaskedLM(MlmConfig(vocab_size=12, embed_dim=6, hidden_dim=7),
                   np.random.default_rng(0))
    seqs = [[1, 5, 6, 7, 2], [1, 8, 9, 2], [1, 10, 2]]
    positions = np.array([2, 1, 1])
    return lambda: _masked_batch_loss(mlm, mlm.embed, seqs, positions), mlm.parameters()


def tensors():
    return [o for o in gc.get_objects() if isinstance(o, Tensor)]


@pytest.fixture
def collector_off():
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("backprop", [True, False], ids=["backward", "no_backward"])
@pytest.mark.parametrize("graph", [chain, masked_batch])
def test_dropping_the_loss_frees_its_graph_without_the_collector(graph, backprop,
                                                                 collector_off):
    build, _ = graph()
    before = {id(o) for o in tensors()}
    loss = build()
    assert len(tensors()) > len(before)
    if backprop:
        loss.backward()
    del loss
    assert [o for o in tensors() if id(o) not in before] == []
    gc.set_debug(gc.DEBUG_SAVEALL)
    gc.collect()
    assert [o for o in gc.garbage if isinstance(o, Tensor)] == []


@pytest.mark.parametrize("graph", [chain, masked_batch])
def test_backward_frees_the_graph_while_the_caller_holds_the_loss(graph, collector_off):
    build, leaves = graph()
    before = {id(o) for o in tensors()}
    loss = build()
    created = [o for o in tensors() if id(o) not in before]
    kept = next(o for o in created if o._parents and o is not loss)
    del created
    loss.backward()
    alive = [o for o in tensors() if id(o) not in before]
    assert sorted(map(id, alive)) == sorted([id(loss), id(kept)])
    assert all(p.grad is not None for p in leaves)
    assert kept.grad is None and loss.grad is None
    assert kept._parents == () and loss._parents == ()


def batch_of_32():
    """A 32-caption masked-LM batch on the default MlmConfig."""
    examples = data.generate_dataset(5, 20)
    train = [e for e in examples if e.split == "train"]
    vocab = data.build_vocab(train)
    seqs = [data.tokenize(r, vocab) for e in train for r in e.references][:32]
    assert len(seqs) == 32
    rng = np.random.default_rng(0)
    positions = np.array([int(rng.integers(1, len(s))) for s in seqs])
    return MaskedLM(MlmConfig(len(vocab)), rng), seqs, positions


def test_backward_peak_stays_near_the_forward_graph_and_leaves_only_gradients(collector_off):
    mlm, seqs, positions = batch_of_32()
    _masked_batch_loss(mlm, mlm.embed, seqs, positions).backward()  # warm every cache first
    params = mlm.parameters()
    for p in params:
        p.grad = None
    grad_bytes = sum(p.data.nbytes for p in params)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = _masked_batch_loss(mlm, mlm.embed, seqs, positions)
        graph = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        loss.backward()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the graph holds at least the gates and cell state of every row that
    # lstm_seq steps, in each layer of each direction, and those alone
    # outweigh the weights; a row is stepped up to its direction's context
    # step, with at least two rows stepped per step
    lens = np.array([len(s) for s in seqs])
    stepped = sum(max((last >= t).sum(), 2) for last in _context_steps(positions, lens)
                  for t in range(last.max() + 1))
    assert graph > mlm.LAYERS * stepped * 5 * mlm.cfg.hidden_dim * 8 > grad_bytes
    # the walk adds to the forward graph no more than the parameter gradients,
    # one lstm_seq backward's [T*B x 4H] gate gradient and the [T*B x H]
    # gradient of the upper layer's input, the widest input of a layer
    rows = max(len(s) for s in seqs) * len(seqs)
    dz_bytes = rows * 4 * mlm.cfg.hidden_dim * 8
    input_bytes = rows * max(mlm.cfg.embed_dim, mlm.cfg.hidden_dim) * 8
    assert peak - base <= graph + grad_bytes + dz_bytes + input_bytes
    assert after - base <= grad_bytes + 0.5e6
    assert all(p.grad is not None for p in params)


def graph_nodes(root) -> list[Tensor]:
    """Every node reachable from root through _parents, root included."""
    seen, stack = {id(root): root}, [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen[id(p)] = p
                stack.append(p)
    return list(seen.values())


def test_a_pretraining_loss_has_the_same_few_nodes_for_any_caption_length():
    mlm = MaskedLM(MlmConfig(vocab_size=30, embed_dim=6, hidden_dim=7),
                   np.random.default_rng(0))
    counts = []
    for words in (1, 18):  # captions of 3 and of 20 tokens
        seqs = [[1] + [5 + (i + k) % 25 for i in range(words)] + [2] for k in range(4)]
        positions = np.array([1, words + 1, 2, words])
        counts.append(len(graph_nodes(_masked_batch_loss(mlm, mlm.embed, seqs, positions))))
    # 17 parameters; per direction one embedding gather, one lstm_seq per
    # layer and one context gather; then concat, combine, head and the mean
    # cross-entropy
    assert counts == [29, 29]


def test_an_lstm_seq_node_holds_no_saved_arrays_after_backward():
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(6, 5)), requires_grad=True)
    wx, wh, b = (Tensor(rng.normal(size=s), requires_grad=True) for s in ((5, 8), (2, 8), (8,)))
    hs = lstm_seq(x, 2, wx, wh, b, np.array([2, 2]))
    arrays = [weakref.ref(a) for arg in hs._backward.args
              for a in (arg if isinstance(arg, list) else [arg]) if isinstance(a, np.ndarray)]
    # the states and the packed row index, then each step's gates and cell
    # state; the input's projection is not kept, and the input is a parent
    assert len(arrays) == 1 + 1 + 3 + 3
    total(hs * Tensor(rng.normal(size=(6, 2)))).backward()
    assert hs._parents == () and hs.grad is None
    assert [r for r in arrays if r() is not None and r() is not hs.data] == []
    assert [o for o in gc.get_referents(hs) if isinstance(o, np.ndarray)] == [hs.data]
