"""repro — reproduction of "Deterministic Symmetry Breaking in Ring Networks".

An exact simulator for synchronous bouncing agents on a unit circle plus
the paper's complete protocol suite.  See README.md for a tour.
"""

from repro.types import Chirality, LocalDirection, Model, Observation
from repro.exceptions import (
    ConfigurationError,
    InfeasibleProblemError,
    ModelViolationError,
    ProtocolError,
    ReproError,
    SimulationError,
    SingularSystemError,
)
from repro.ring.state import RingState
from repro.ring.backends import (
    DEFAULT_BACKEND,
    FractionBackend,
    KinematicsBackend,
    LatticeBackend,
    make_backend,
)
from repro.ring.simulator import RingSimulator
from repro.ring.configs import (
    clustered_configuration,
    explicit_configuration,
    jittered_equidistant_configuration,
    random_configuration,
)
from repro.core.scheduler import Scheduler
from repro.protocols.base import CoordinationResult, LocationDiscoveryResult
from repro.api import (
    FixedPolicy,
    Fleet,
    FunctionPolicy,
    PerAgentPolicy,
    Phase,
    Policy,
    ProtocolSpec,
    RingSession,
    RunReport,
    SessionSpec,
    as_policy,
    get_protocol,
    list_protocols,
    register,
    sweep,
)
from repro.protocols.ring_size import discover_ring_size
from repro.protocols.randomized import (
    anonymous_configuration,
    randomized_location_discovery,
)

__version__ = "1.0.0"

__all__ = [
    "RingSession",
    "Policy",
    "PerAgentPolicy",
    "FixedPolicy",
    "FunctionPolicy",
    "as_policy",
    "Phase",
    "ProtocolSpec",
    "get_protocol",
    "list_protocols",
    "register",
    "Fleet",
    "SessionSpec",
    "RunReport",
    "sweep",
    "discover_ring_size",
    "randomized_location_discovery",
    "anonymous_configuration",
    "CoordinationResult",
    "LocationDiscoveryResult",
    "Chirality",
    "LocalDirection",
    "Model",
    "Observation",
    "RingState",
    "RingSimulator",
    "Scheduler",
    "DEFAULT_BACKEND",
    "KinematicsBackend",
    "FractionBackend",
    "LatticeBackend",
    "make_backend",
    "random_configuration",
    "jittered_equidistant_configuration",
    "clustered_configuration",
    "explicit_configuration",
    "ReproError",
    "ConfigurationError",
    "ModelViolationError",
    "ProtocolError",
    "InfeasibleProblemError",
    "SimulationError",
    "SingularSystemError",
]
