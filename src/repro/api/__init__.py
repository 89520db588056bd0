"""The public API surface: sessions, policies, the protocol registry and
fleet execution.

This package is the one entry point the CLI, the experiment drivers and
downstream users build on:

* :class:`~repro.api.policy.Policy` -- whole-population decisions (one
  vectorised ``decide(views)`` call per round);
* :class:`~repro.api.session.RingSession` -- builder bundling state,
  scheduler, backend and protocol execution (plan / step / resume);
* the protocol registry -- named, declarative phase pipelines
  (:func:`~repro.api.registry.get_protocol`,
  :func:`~repro.api.registry.list_protocols`);
* :class:`~repro.api.fleet.Fleet` -- many sessions across a worker
  pool, reported as structured JSON.
"""

from repro.api.policy import (
    ChoiceFn,
    FixedPolicy,
    FunctionPolicy,
    PerAgentPolicy,
    Policy,
    SpeculativeStretch,
    Stretch,
    VectorPolicy,
    as_policy,
)
from repro.api.registry import (
    DEFAULT_DRIVER,
    DRIVER_NAMES,
    Phase,
    ProtocolSpec,
    get_protocol,
    list_protocols,
    register,
)
from repro.api.session import RingSession
from repro.api.fleet import (
    Fleet,
    RunReport,
    SessionSpec,
    run_session_spec,
    sweep,
)

# The contention-channel protocols live under repro.faults (they model
# the adversarial medium) but are ordinary registry entries; they are
# registered here -- not at channels import time -- so the registry is
# fully populated exactly when the API package is, with no import-order
# sensitivity between repro.faults and repro.api.
from repro.faults.channels import register_protocols as _register_contention

_register_contention()

__all__ = [
    "ChoiceFn",
    "DEFAULT_DRIVER",
    "DRIVER_NAMES",
    "FixedPolicy",
    "Fleet",
    "FunctionPolicy",
    "PerAgentPolicy",
    "Phase",
    "Policy",
    "ProtocolSpec",
    "RingSession",
    "RunReport",
    "SessionSpec",
    "SpeculativeStretch",
    "Stretch",
    "VectorPolicy",
    "as_policy",
    "get_protocol",
    "list_protocols",
    "register",
    "run_session_spec",
    "sweep",
]
