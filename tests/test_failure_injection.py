"""Failure injection across the whole registry: every protocol, under
every fault family, on every model and backend, degrades gracefully.

This replaces the original hand-picked corruption pipelines with a
sweep in the style of ``test_fraction_hygiene.py``: for each
``(protocol, model, backend, fault family)`` combination a seeded
:class:`~repro.faults.plan.FaultPlan` is injected and the run is
placed in the graceful-degradation trichotomy by
:func:`repro.faults.report.classify_spec` -- it must either

* **survive** (complete with a payload byte-identical to the
  fault-free twin's),
* **detect** (raise a :class:`~repro.exceptions.ReproError`), or
* **report** (complete with a visibly different, partial payload).

What the sweep rules out is the fourth outcome: an uncontrolled
non-Repro exception, a hang past the plan's round budget, or a silent
wrong answer indistinguishable from a healthy one.  The old white-box
checks (corrupted leader flags, scrambled frames, inconsistent
equation harvests) are subsumed: the Byzantine ``scramble`` mode
performs exactly those memory corruptions mid-run, for every protocol
at once.
"""

import json

import pytest

from repro.api import RingSession
from repro.api.fleet import SessionSpec
from repro.api.registry import list_protocols
from repro.faults.report import OUTCOMES, classify_spec

MODELS = ("perceptive", "lazy", "basic")
BACKENDS = ("fraction", "array")

#: One representative seeded plan per fault family.  Slots are chosen
#: inside every swept ring size; rounds hit each protocol mid-pipeline.
FAULT_FAMILIES = {
    "crash": '{"seed":11,"crashes":{"2":1}}',
    "crash-late": '{"seed":12,"crashes":{"0":6}}',
    "byz-flip": '{"seed":13,"byzantine":{"4":{"round":0,"mode":"flip"}}}',
    "byz-random": '{"seed":14,"byzantine":{"4":{"round":2,"mode":"random"}}}',
    "byz-scramble": '{"seed":15,"byzantine":{"3":{"round":3,"mode":"scramble"}}}',
    "delay": '{"seed":16,"delays":{"5":1}}',
    "budget": '{"seed":17,"max_rounds":12}',
}

#: Infeasible by the paper's impossibility result (Table I).
INFEASIBLE = {("location-discovery", "basic", True)}


def _ring_size(protocol: str, model: str) -> int:
    """n=8 everywhere except combinations infeasible on even rings."""
    return 9 if (protocol, model, True) in INFEASIBLE else 8


def _cases():
    for spec in list_protocols():
        for model in MODELS:
            for family, plan in sorted(FAULT_FAMILIES.items()):
                yield pytest.param(
                    spec.name, model, plan,
                    id=f"{spec.name}-{model}-{family}",
                )


def _backend_cases():
    for spec in list_protocols():
        for backend in BACKENDS:
            yield pytest.param(
                spec.name, backend, id=f"{spec.name}-{backend}"
            )


class TestTrichotomySweep:
    @pytest.mark.parametrize("protocol,model,plan", _cases())
    def test_every_fault_family_degrades_gracefully(
        self, protocol, model, plan
    ):
        spec = SessionSpec(
            n=_ring_size(protocol, model),
            protocol=protocol,
            model=model,
            seed=3,
            faults=plan,
        )
        classification = classify_spec(spec)
        assert classification.outcome in OUTCOMES
        if classification.outcome == "detect":
            assert classification.error_type
            assert classification.result is None
        else:
            assert classification.error_type is None
            assert classification.result is not None
            same = json.dumps(
                classification.result, sort_keys=True
            ) == json.dumps(classification.baseline, sort_keys=True)
            assert same == (classification.outcome == "survive")

    @pytest.mark.parametrize("protocol,backend", _backend_cases())
    def test_classification_is_backend_independent(self, protocol, backend):
        """The trichotomy is a property of the *spec*, not the backend:
        faulted runs execute the same scalar rounds everywhere, so each
        backend lands every scenario in the same bucket with the same
        payload (or the same error type)."""
        spec = SessionSpec(
            n=8,
            protocol=protocol,
            model="perceptive",
            backend=backend,
            seed=5,
            faults=FAULT_FAMILIES["crash"],
        )
        reference = classify_spec(
            SessionSpec(
                n=8, protocol=protocol, model="perceptive", seed=5,
                faults=FAULT_FAMILIES["crash"],
            )
        )
        classification = classify_spec(spec)
        assert classification.outcome == reference.outcome
        assert classification.error_type == reference.error_type
        assert json.dumps(classification.result, sort_keys=True) == (
            json.dumps(reference.result, sort_keys=True)
        )


class TestRoundBudget:
    def test_budget_bounds_every_faulted_run(self):
        """A fault plan cannot make any protocol spin forever: the
        round budget converts a hang into FaultBudgetError."""
        from repro.exceptions import FaultBudgetError

        session = RingSession(
            n=8, model="perceptive", seed=3,
            faults='{"seed":1,"max_rounds":3}',
        )
        with pytest.raises(FaultBudgetError):
            session.run("location-discovery")

    def test_jammed_channel_trips_slot_budget(self):
        """A persistent Byzantine jammer cannot wedge the backoff
        channel: the slot budget trips ProtocolError (detect)."""
        spec = SessionSpec(
            n=8, protocol="contention-backoff", seed=7,
            faults='{"seed":1,"byzantine":{"2":{"round":0,"mode":"flip"}}}',
        )
        classification = classify_spec(spec)
        assert classification.outcome == "detect"
        assert classification.error_type == "ProtocolError"
        assert "budget" in (classification.error_message or "")


class TestPartialResults:
    def test_crashed_transmitter_is_reported_not_hidden(self):
        """A crashed agent's message must surface in ``undelivered`` --
        the partial-result side of the graceful-degradation contract."""
        spec = SessionSpec(
            n=8, protocol="contention-backoff", seed=7,
            faults='{"seed":1,"crashes":{"3":0}}',
        )
        classification = classify_spec(spec)
        assert classification.outcome == "report"
        assert classification.result is not None
        assert classification.result["undelivered"] == [3]
        assert classification.baseline is not None
        assert classification.baseline["undelivered"] == []

    def test_scrambled_channel_mirror_is_detected(self):
        """Byzantine memory corruption of an agent's delivery mirror is
        caught by the end-of-run consensus check, never silently
        folded into the summary."""
        spec = SessionSpec(
            n=8, protocol="contention-aloha", seed=7,
            faults='{"seed":1,"byzantine":{"1":{"round":4,"mode":"scramble"}}}',
        )
        classification = classify_spec(spec)
        assert classification.outcome == "detect"
        assert classification.error_type == "ProtocolError"
