"""Inter-cluster task scheduling (Sec. IV-B, Fig. 7a).

Step one marks each partition dense or sparse: *"a partition is marked as
a sparse partition if the estimated execution time on the Big pipeline is
shorter than that on the Little pipeline, otherwise marked as a dense
partition"*.  Step two picks the pipeline split (M Little, N Big) with
``M + N = N_pip`` minimising the imbalance between the two clusters'
total estimated times.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.partition import Partition
from repro.model.perf import PerformanceModel


def classify_partitions(
    partitions: Sequence[Partition],
    model: PerformanceModel,
    little_costs: Optional[Sequence[np.ndarray]] = None,
) -> Tuple[List[int], List[int], List[float], List[float]]:
    """Split partitions into dense and sparse sets by modelled time.

    Two phases:

    1. per-partition comparison: sparse if the Big estimate (with the
       gather bound amortised over a balanced ``N_gpe`` group) beats the
       Little estimate;
    2. group refinement: sparse partitions will execute as merged
       ``N_gpe`` groups, so each prospective group is re-estimated as a
       group.  A group whose Big time exceeds the Little alternative is
       dominated by a too-heavy partition (its Gather PE serialises);
       that partition is evicted to the dense set and grouping repeats.

    ``little_costs`` are the partitions' per-edge Little costs
    (``model.edge_costs_little(p.src)``), computed here when not given;
    :func:`~repro.sched.scheduler.build_schedule` passes the arrays it
    also cuts the dense cluster's windows from.

    Returns ``(dense_idx, sparse_idx, t_little, t_big)`` where the index
    lists refer to positions in ``partitions``.
    """
    if little_costs is None:
        little_costs = [model.edge_costs_little(p.src) for p in partitions]
    dense, sparse = [], []
    t_little, t_big = [], []
    for i, partition in enumerate(partitions):
        tl = model.little_cycles(little_costs[i])
        tb = model.estimate_partition(partition, "big")
        t_little.append(tl)
        t_big.append(tb)
        if tb < tl:
            sparse.append(i)
        else:
            dense.append(i)

    n_gpe = model.config.n_gpe
    while sparse:
        evicted = None
        for lo in range(0, len(sparse), n_gpe):
            group = sparse[lo : lo + n_gpe]
            group_big = model.estimate_big_group(
                [partitions[i].src for i in group]
            )
            group_little = sum(t_little[i] for i in group)
            if group_little < group_big:
                evicted = max(group, key=lambda i: partitions[i].num_edges)
                break
        if evicted is None:
            break
        sparse.remove(evicted)
        dense.append(evicted)
    dense.sort()
    return dense, sparse, t_little, t_big


def choose_pipeline_combination(
    dense_time: float,
    sparse_time: float,
    num_pipelines: int,
) -> Tuple[int, int]:
    """Pick (M, N) minimising ``|dense_time / M - sparse_time / N|``.

    Each cluster with work gets at least one pipeline; a cluster with no
    work gets zero.  Ties break toward more Big pipelines (sparse
    partitions are the long tail on real graphs).
    """
    if num_pipelines < 1:
        raise ValueError("need at least one pipeline")
    if dense_time <= 0 and sparse_time <= 0:
        return num_pipelines, 0
    if dense_time <= 0:
        return 0, num_pipelines
    if sparse_time <= 0:
        return num_pipelines, 0
    if num_pipelines == 1:
        # One pipeline cannot host two clusters; give it to the bigger load.
        return (1, 0) if dense_time >= sparse_time else (0, 1)

    best = None
    for m in range(1, num_pipelines):
        n = num_pipelines - m
        gap = abs(dense_time / m - sparse_time / n)
        if best is None or gap < best[0]:
            best = (gap, m, n)
    return best[1], best[2]
