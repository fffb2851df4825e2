"""Kept for ``e2ebench/fleet_soak.py:195``, which clears it before each soak."""


class _NoCache:
    def clear(self) -> None:
        """Nothing to clear: the plan's compiled engine is the timing memo."""


def get_cache() -> _NoCache:
    return _NoCache()
