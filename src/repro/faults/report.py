"""Outcome classification: the graceful-degradation trichotomy.

Every fault-injected run lands in exactly one of three buckets, and
this module is the single place that decides which:

* ``"survive"`` -- the faulted run completed and its result payload is
  byte-identical to the fault-free twin's (the faults were absorbed:
  e.g. a delayed agent on a protocol whose adjudication never reads
  positions);
* ``"detect"`` -- the run raised a :class:`~repro.exceptions.ReproError`
  (``ProtocolError``, ``ModelViolationError``,
  ``FaultBudgetError``, ...): the protocol noticed the adversary and
  refused to emit a wrong answer;
* ``"report"`` -- the run completed but its payload differs from the
  twin's: a *partial* result, with the damage visible in the payload
  itself (e.g. a crashed transmitter surfacing in
  ``ContentionResult.undelivered``).

The classification is computed by actually running both executions --
the faulted spec and its fault-free twin -- so it is exactly as
deterministic as the runs themselves, and a recorded classification
can be replayed bit-for-bit later (see :mod:`repro.faults.corpus`).

What is *not* an acceptable outcome is a silent wrong answer that the
payload does not distinguish from a healthy one; the property suite
(``tests/test_fault_properties.py``) pins every registry protocol to
this trichotomy.
"""

from __future__ import annotations

import dataclasses
import json
from typing import TYPE_CHECKING, Dict, Optional

from repro.exceptions import ReproError

if TYPE_CHECKING:  # circular only at type-check time
    from repro.api.fleet import SessionSpec

#: The three graceful-degradation outcomes, in canonical order.
OUTCOMES = ("survive", "detect", "report")


@dataclasses.dataclass(frozen=True)
class Classification:
    """Where one faulted spec landed in the trichotomy.

    Attributes:
        outcome: ``"survive"``, ``"detect"`` or ``"report"``.
        error_type: Exception class name for ``"detect"``, else None.
        error_message: Exception text for ``"detect"``, else None.
            Recorded for humans; replay asserts the type, not the
            message, so error wording can improve without invalidating
            the corpus.
        result: The faulted run's result payload (``to_dict()``) for
            ``"survive"``/``"report"``, else None.
        baseline: The fault-free twin's result payload, for context.
    """

    outcome: str
    error_type: Optional[str] = None
    error_message: Optional[str] = None
    result: Optional[Dict[str, object]] = None
    baseline: Optional[Dict[str, object]] = None


def _run_result(spec: "SessionSpec") -> Dict[str, object]:
    """Run one spec in-process and return its result payload."""
    from repro.api.session import RingSession
    from repro.types import Model

    session = RingSession(
        n=spec.n,
        model=Model(spec.model),
        backend=spec.backend,
        seed=spec.seed,
        common_sense=spec.common_sense,
        id_bound=spec.id_bound,
        config=spec.config,
        driver=spec.driver,
        faults=spec.faults,
    )
    result = session.run(spec.protocol)
    return result.to_dict()  # type: ignore[attr-defined, no-any-return]


def classify_spec(spec: "SessionSpec") -> Classification:
    """Run ``spec`` and its fault-free twin; place it in the trichotomy.

    The twin shares every axis except the fault plan, so any payload
    difference is attributable to the faults alone.  Raises whatever
    the *twin* raises -- a spec whose fault-free execution fails is
    misconfigured, not gracefully degraded -- while faulted-run
    failures of the :class:`~repro.exceptions.ReproError` family are
    the ``"detect"`` outcome.  (Non-Repro exceptions from the faulted
    run propagate: an adversary must never be able to produce an
    uncontrolled crash.)
    """
    twin = dataclasses.replace(spec, faults=None)
    baseline = _run_result(twin)
    try:
        faulted = _run_result(spec)
    except ReproError as error:
        return Classification(
            outcome="detect",
            error_type=type(error).__name__,
            error_message=str(error),
            baseline=baseline,
        )
    same = json.dumps(faulted, sort_keys=True) == json.dumps(
        baseline, sort_keys=True
    )
    return Classification(
        outcome="survive" if same else "report",
        result=faulted,
        baseline=baseline,
    )
