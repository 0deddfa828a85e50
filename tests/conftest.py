"""Shared fixtures."""

import itertools
import types

import pytest


@pytest.fixture
def stalled_clock(monkeypatch):
    """Replace the named module's `time` with a clock that reads 0 for its
    first `reads` reads, then 10.  With the default 2, the deadline and the
    root read: with budget=1 a search runs on past its root and times out at
    its first periodic read; each further read moves the timeout one
    periodic read later."""
    def install(module: str, reads: int = 2):
        count = itertools.count()
        monkeypatch.setattr(f"{module}.time", types.SimpleNamespace(
            monotonic=lambda: 0.0 if next(count) < reads else 10.0))
    return install
