"""Paper-scale identity cell for the preprocessing fast path.

Full-scale HD (1,984,484 V, 14,869,484 E) through graph build, DBG and
the U280 scheduler.  The pinned digests and the pipeline -> partition
assignment were recorded with the original lexsort edge sort and the
dense Eq. 4 cost formulas; the packed-key sort, the block-change-only
Big cost and the shared Little cost pass must reproduce them exactly.
About 10 s and 1.2 GB peak, so it runs in the slow suite.
"""

import hashlib

import numpy as np
import pytest

from repro.core.framework import ReGraph
from repro.graph.datasets import load_dataset

pytestmark = pytest.mark.slow

LOADED_EDGES_SHA256 = (
    "f7a3c5551247ef5a5ef83804250d02a7a48734c3e2b10764b9c628f2d6651d55"
)
DBG_EDGES_SHA256 = (
    "c3b5117cf0018900fb371c81542c04ef96fb78fdd3990938c22f257ca408210a"
)
ASSIGNMENT = (
    [[f"little[{i}]", [0]] for i in range(13)]
    + [["big[0]", list(range(lo, min(lo + 8, 31)))] for lo in (1, 9, 17, 25)]
)


def _edges_sha256(graph) -> str:
    h = hashlib.sha256()
    for arr in (graph.src, graph.dst):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def test_full_hd_preprocess_is_bit_identical():
    graph = load_dataset("HD", 1.0, 1)
    assert (graph.num_vertices, graph.num_edges) == (1_984_484, 14_869_484)
    assert _edges_sha256(graph) == LOADED_EDGES_SHA256

    pre = ReGraph("U280").preprocess(graph)
    del graph
    assert _edges_sha256(pre.graph) == DBG_EDGES_SHA256
    assert pre.plan.accelerator.label == "13L1B"
    assignment = [
        [pipe, list(task.partition_indices)]
        for pipe, task in pre.plan.iter_tasks()
    ]
    assert assignment == ASSIGNMENT
