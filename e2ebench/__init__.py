"""Wall-clock end-to-end benchmark of the ReGraph reproduction.

Run ``python3 e2ebench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; see ``e2ebench/README.md``.
"""
