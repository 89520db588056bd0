"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.ring import arrayops
from repro.ring.configs import random_configuration
from repro.ring.state import RingState


@pytest.fixture
def small_ring() -> RingState:
    """A 7-agent ring with mixed chiralities, fixed seed."""
    return random_configuration(n=7, seed=42, common_sense=False)


@pytest.fixture
def even_ring() -> RingState:
    """An 8-agent ring with mixed chiralities, fixed seed."""
    return random_configuration(n=8, seed=7, common_sense=False)


@pytest.fixture(params=["numpy", "no-numpy"])
def numpy_axis(request, monkeypatch):
    """Run the test with numpy, then with numpy's import failing."""
    if request.param == "numpy":
        if arrayops.get_numpy() is None:
            pytest.skip("numpy is not installed")
    else:
        import builtins

        real_import = builtins.__import__

        def no_numpy(name, *args, **kwargs):
            if name == "numpy":
                raise ImportError("numpy disabled for this test")
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", no_numpy)
    arrayops.reset_numpy_cache()
    yield request.param
    monkeypatch.undo()
    arrayops.reset_numpy_cache()
