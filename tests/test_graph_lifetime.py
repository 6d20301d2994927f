"""Autodiff graphs hold no reference cycles, so reference counting frees a
graph as soon as its last reference drops, with the cyclic collector off;
backward() frees the graph as it walks it, so the caller's loss holds
nothing afterwards."""

import gc
import tracemalloc

import numpy as np
import pytest

from capfuse import data
from capfuse.autodiff import Tensor
from capfuse.models import MaskedLM, MlmConfig, _masked_batch_loss

# deeper than the interpreter's recursion limit, so neither the topological
# walk nor the release of the chain may recurse per node
CHAIN_DEPTH = 50_000


def chain():
    """(build, leaves): build() makes a deep chain from the leaf x."""
    x = Tensor(np.array(1.0), requires_grad=True)

    def build():
        y = x
        for _ in range(CHAIN_DEPTH):
            y = y + 0.0
        return y

    return build, [x]


def masked_batch():
    """(build, leaves): build() makes a small masked-LM batch loss."""
    mlm = MaskedLM(MlmConfig(vocab_size=12, embed_dim=6, hidden_dim=7),
                   np.random.default_rng(0))
    seqs = [[1, 5, 6, 7, 2], [1, 8, 9, 2], [1, 10, 2]]
    positions = np.array([2, 1, 1])
    return lambda: _masked_batch_loss(mlm, seqs, positions), mlm.parameters()


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
    _masked_batch_loss(mlm, seqs, positions).backward()  # warm every cache first
    params = mlm.parameters()
    for p in params:
        p.grad = None
    grad_bytes = sum(p.data.nbytes for p in params)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = _masked_batch_loss(mlm, seqs, positions)
        graph = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        loss.backward()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert graph > 10 * grad_bytes  # the graph, not the weights, dominates
    assert peak - base <= 1.1 * graph
    assert after - base <= grad_bytes + 0.5e6
    assert all(p.grad is not None for p in params)
