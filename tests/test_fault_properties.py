"""Property-based scenario fuzzer for the adversarial execution models.

Hypothesis draws whole scenarios -- a registry protocol, a model, a
backend, a ring size and a seeded :class:`~repro.faults.plan.FaultPlan`
-- and asserts the fault layer's contracts over the joint space:

* **Trichotomy.**  Every faulted run must *survive* (byte-identical
  payload to the fault-free twin), *detect* (a
  :class:`~repro.exceptions.ReproError`), or *report* (a visibly
  different payload).  Uncontrolled exceptions and silent wrong
  answers are the bugs this fuzzer hunts.
* **Null-plan equivalence.**  ``FaultPlan.none()`` threads through the
  whole stack (session, scheduler, fleet row) as structural ``None``:
  its result payload is byte-identical to a plain run's, on every
  backend.
* **Determinism.**  Classifying the same scenario twice gives the
  same outcome, error type and payload -- the precondition for the
  regression corpus being replayable at all.
* **Plan round-trips.**  ``FaultPlan`` survives dict / canonical-JSON /
  coerce round-trips unchanged.

When a draw violates a property, the scenario is recorded into
``tests/regression_corpus/`` (content-addressed, so shrink re-runs
overwrite rather than accumulate) and the failure message carries the
``tools/record_regression.py`` command that reproduces it.  The suite
runs with ``derandomize=True``: CI failures are reproducible by
construction, and the corpus -- not hypothesis' example database -- is
the cross-run memory.
"""

import json

import pytest

hypothesis = pytest.importorskip(
    "hypothesis", reason="the scenario fuzzer needs hypothesis"
)

from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.api import RingSession  # noqa: E402
from repro.api.fleet import SessionSpec  # noqa: E402
from repro.api.registry import list_protocols  # noqa: E402
from repro.faults.corpus import record_scenario  # noqa: E402
from repro.faults.plan import BYZANTINE_MODES, FaultPlan  # noqa: E402
from repro.faults.report import OUTCOMES, classify_spec  # noqa: E402

PROTOCOLS = tuple(spec.name for spec in list_protocols())
MODELS = ("perceptive", "lazy", "basic")
BACKENDS = ("fraction", "array")

#: Infeasible by the paper's impossibility result (Table I).
INFEASIBLE = {("location-discovery", "basic", True)}

#: One fixed profile for every property: derandomized (CI failures
#: reproduce by construction), no deadline (the jammed-channel worst
#: case is slow on purpose), modest example counts (the parametrized
#: sweep in test_failure_injection.py covers breadth; the fuzzer
#: covers the cross-product corners those grids miss).
FUZZ = settings(
    derandomize=True,
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def plan_documents(n: int) -> st.SearchStrategy:
    """Fault-plan documents valid for an ``n``-agent ring."""
    slots = st.integers(min_value=0, max_value=n - 1)
    rounds = st.integers(min_value=0, max_value=12)
    return st.fixed_dictionaries({
        "seed": st.integers(min_value=0, max_value=2 ** 16),
        "crashes": st.dictionaries(slots, rounds, max_size=2),
        "byzantine": st.dictionaries(
            slots,
            st.fixed_dictionaries({
                "round": rounds,
                "mode": st.sampled_from(BYZANTINE_MODES),
            }),
            max_size=2,
        ),
        "delays": st.dictionaries(
            slots, st.integers(min_value=1, max_value=3), max_size=2
        ),
        "max_rounds": st.one_of(
            st.none(), st.integers(min_value=15, max_value=400)
        ),
    })


def _spec(protocol, model, n, seed, plan_doc):
    return SessionSpec(
        n=n, protocol=protocol, model=model, seed=seed,
        faults=None if plan_doc is None else FaultPlan.from_dict(
            plan_doc
        ).canonical(),
    )


def _reproduce_hint(spec: SessionSpec) -> str:
    return (
        "reproduce/pin with: python tools/record_regression.py "
        f"--protocol {spec.protocol} --n {spec.n} --model {spec.model} "
        f"--seed {spec.seed} --faults '{spec.faults}'"
    )


class TestTrichotomy:
    @FUZZ
    @given(
        protocol=st.sampled_from(PROTOCOLS),
        model=st.sampled_from(MODELS),
        n=st.sampled_from((8, 9)),
        seed=st.integers(min_value=0, max_value=31),
        data=st.data(),
    )
    def test_fuzzed_scenario_obeys_trichotomy(
        self, protocol, model, n, seed, data
    ):
        assume((protocol, model, n % 2 == 0) not in INFEASIBLE)
        plan_doc = data.draw(plan_documents(n), label="fault plan")
        spec = _spec(protocol, model, n, seed, plan_doc)
        try:
            classification = classify_spec(spec)
            assert classification.outcome in OUTCOMES
            if classification.outcome == "detect":
                assert classification.error_type
            else:
                assert classification.result is not None
        except Exception as error:  # noqa: BLE001 -- record, then re-raise
            if spec.faults is not None:
                try:
                    record_scenario(
                        spec, note=f"fuzzer find: {type(error).__name__}"
                    )
                except Exception:  # noqa: BLE001 -- scenario unrecordable
                    pass  # the hint below is the fallback
            raise AssertionError(
                f"trichotomy violation for {spec!r}: "
                f"{type(error).__name__}: {error}\n{_reproduce_hint(spec)}"
            ) from error

    @FUZZ
    @given(
        protocol=st.sampled_from(PROTOCOLS),
        model=st.sampled_from(MODELS),
        n=st.sampled_from((8, 9)),
        seed=st.integers(min_value=0, max_value=31),
        data=st.data(),
    )
    def test_classification_is_deterministic(
        self, protocol, model, n, seed, data
    ):
        assume((protocol, model, n % 2 == 0) not in INFEASIBLE)
        plan_doc = data.draw(plan_documents(n), label="fault plan")
        spec = _spec(protocol, model, n, seed, plan_doc)
        first = classify_spec(spec)
        second = classify_spec(spec)
        assert first.outcome == second.outcome, _reproduce_hint(spec)
        assert first.error_type == second.error_type
        assert json.dumps(first.result, sort_keys=True) == json.dumps(
            second.result, sort_keys=True
        )


class TestNullPlanEquivalence:
    @FUZZ
    @given(
        protocol=st.sampled_from(PROTOCOLS),
        model=st.sampled_from(MODELS),
        n=st.sampled_from((8, 9)),
        seed=st.integers(min_value=0, max_value=31),
    )
    def test_none_plan_is_byte_identical_on_every_backend(
        self, protocol, model, n, seed
    ):
        """``FaultPlan.none()`` must be invisible: same payload bytes
        as no plan at all, on every backend (so the fault axis can ride
        every session without perturbing a single existing digest)."""
        assume((protocol, model, n % 2 == 0) not in INFEASIBLE)
        payloads = set()
        for backend in BACKENDS:
            for faults in (None, FaultPlan.none()):
                session = RingSession(
                    n=n, model=model, backend=backend, seed=seed,
                    faults=faults,
                )
                assert session.faults is None
                result = session.run(protocol)
                payloads.add(json.dumps(result.to_dict(), sort_keys=True))
        assert len(payloads) == 1


class TestPlanRoundTrips:
    @FUZZ
    @given(data=st.data())
    def test_plan_survives_dict_and_json_round_trips(self, data):
        plan_doc = data.draw(plan_documents(10), label="fault plan")
        plan = FaultPlan.from_dict(plan_doc)
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        assert FaultPlan.from_json(plan.canonical()) == plan
        assert FaultPlan.coerce(plan.canonical()) == (
            None if plan.is_none() else plan
        )
        # Canonical JSON is a fixed point: reserialising the parsed
        # form reproduces the exact bytes (the store key relies on it).
        assert FaultPlan.from_json(plan.canonical()).canonical() == (
            plan.canonical()
        )

    @FUZZ
    @given(seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_empty_plans_coerce_to_none(self, seed):
        assert FaultPlan.coerce({"seed": seed}) is None
        assert FaultPlan(seed=seed).is_none()
        assert FaultPlan.coerce(None) is None
