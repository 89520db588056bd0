"""The end-to-end benchmark's tracer still binds to the program.

``perfbench/tracing.py`` wraps public methods for one traced run and
looks each one up by name in its class's own ``__dict__``
(``Scheduler.skip_restoring`` and ``RingSimulator.apply_restoring_span``
among them), so renaming or deleting any of them makes
``perfbench/run.py --trace 1`` fail with ``KeyError``.  This test
installs the tracer from the ``perfbench`` directory as it is, without
writing anything there, and checks the round trip.
"""

import importlib
import os
import sys

import pytest

from repro.api import RingSession

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(PERFBENCH)
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    yield importlib.import_module("tracing")
    sys.modules.pop("tracing", None)


def test_tracer_installs_runs_and_restores(tracing):
    tracer = tracing.Tracer()
    tracer.install()
    patched = list(tracer._patches)
    try:
        session = RingSession(n=9, model="perceptive", seed=4)
        session.start("location-discovery")
        while session.pending_phases:
            session.step()
        result = session.resume()
    finally:
        tracer.uninstall()
    names = {(owner.__name__, attr) for owner, attr, _ in patched}
    assert {
        ("Scheduler", "skip_restoring"),
        ("RingSimulator", "apply_restoring_span"),
    } <= names
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr}"
    metrics = tracer.metrics()
    assert metrics["scheduler.skipped_restore_rounds"] == 0
    assert sum(
        metrics[f"api.phase.{phase}.rounds"] for phase in tracing.PHASES
    ) == result.rounds
