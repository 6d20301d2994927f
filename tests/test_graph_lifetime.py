"""Autodiff graphs hold no reference cycles, so reference counting frees a
graph as soon as its last reference drops, with the cyclic collector off."""

import gc

import numpy as np
import pytest

from capfuse.autodiff import Tensor
from capfuse.models import MaskedLM, MlmConfig, _masked_batch_loss

# deeper than the interpreter's recursion limit, so neither the topological
# walk nor the release of the chain may recurse per node
CHAIN_DEPTH = 50_000


def chain():
    x = Tensor(np.array(1.0), requires_grad=True)

    def build():
        y = x
        for _ in range(CHAIN_DEPTH):
            y = y + 0.0
        return y

    return build


def masked_batch():
    mlm = MaskedLM(MlmConfig(vocab_size=12, embed_dim=6, hidden_dim=7),
                   np.random.default_rng(0))
    seqs = [[1, 5, 6, 7, 2], [1, 8, 9, 2], [1, 10, 2]]
    positions = np.array([2, 1, 1])
    return lambda: _masked_batch_loss(mlm, seqs, positions)


def tensors():
    return [o for o in gc.get_objects() if isinstance(o, Tensor)]


@pytest.mark.parametrize("backprop", [True, False], ids=["backward", "no_backward"])
@pytest.mark.parametrize("graph", [chain, masked_batch])
def test_dropping_the_loss_frees_its_graph_without_the_collector(graph, backprop):
    build = graph()
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
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
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
