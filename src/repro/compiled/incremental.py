"""Kept for ``e2ebench/tracing.py:72``, which wraps ``compile_plan`` here."""

from repro.compiled.lower import compile_plan  # noqa: F401
