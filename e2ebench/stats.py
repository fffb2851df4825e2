"""Small statistics and process helpers shared by the workloads."""

from __future__ import annotations

import hashlib
import json
import os
import resource
from typing import Iterable, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)


def peak_rss_mb(pid: int = 0) -> float:
    """Peak resident set size in MiB (this process, or ``pid``'s)."""
    if pid == 0:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_seconds(pid: int) -> float:
    """User + system CPU time a live process has used."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def sha256_json(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def sha256_arrays(arrays: Iterable) -> str:
    import numpy as np

    h = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        h.update(f"{array.dtype}{array.shape}".encode())
        h.update(memoryview(array).cast("B"))
    return h.hexdigest()

