"""Shared fixtures."""

import itertools
import types

import pytest


@pytest.fixture
def stalled_clock(monkeypatch):
    """Replace the named module's `time` with a clock that reads 0 for the
    deadline and the root read, then 10: with budget=1 a search runs on past
    its root and times out at its first periodic read."""
    def install(module: str):
        reads = itertools.count()
        monkeypatch.setattr(f"{module}.time", types.SimpleNamespace(
            monotonic=lambda: 0.0 if next(reads) < 2 else 10.0))
    return install
