"""Paper-scale cell for the vectorised WCC and BFS references.

Full-scale HD (1,984,484 V, 14,869,484 E) and RMAT-20 (2^20 V, edge
factor 16): ``wcc_reference`` on the symmetrized graph must equal
scipy's weak components labelled by min vertex ID, and ``bfs_reference``
from the highest out-degree vertex must equal scipy's unweighted hop
counts.  About 9 s (HD) and 18 s (RMAT-20) with a 2.3 GB peak, so it
runs in the slow suite.
"""

import numpy as np
import pytest

from repro.apps.reference import bfs_reference, wcc_reference
from repro.apps.wcc import symmetrized
from repro.graph.datasets import load_dataset
from repro.graph.generators import rmat_graph

from tests.test_apps_reference import scipy_levels, scipy_min_id_components

pytestmark = pytest.mark.slow

GRAPHS = {
    "HD": lambda: load_dataset("HD", 1.0, 1),
    "RMAT-20": lambda: rmat_graph(20, seed=1),
}


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_references_match_scipy(name):
    graph = GRAPHS[name]()
    assert graph.num_vertices >= 2**20

    root = int(np.argmax(graph.out_degrees()))
    levels = bfs_reference(graph, root)
    assert np.array_equal(levels, scipy_levels(graph, root))
    assert 0 < levels[levels < 2**31 - 1].max()
    del levels

    # Weak components of a graph are those of its symmetrization.
    expected = scipy_min_id_components(graph)
    sym = symmetrized(graph)
    del graph
    labels = wcc_reference(sym)
    del sym
    assert np.array_equal(labels, expected)
    assert np.unique(labels).size > 1
