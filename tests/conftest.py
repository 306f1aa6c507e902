"""Shared test setup."""

import pytest

from dynheights.dynamics import DynSystem


@pytest.fixture(autouse=True)
def _fresh_map_systems():
    # DynSystem.from_expr keeps one system per map text for the process;
    # each test starts without them, so a test that counts parses,
    # resultants or factorizations sees its own, whatever ran before it
    DynSystem.from_expr.cache_clear()
    yield
