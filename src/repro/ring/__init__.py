"""The bouncing-agent ring world: state, kinematics, exact simulation.

Round arithmetic is pluggable (see :mod:`repro.ring.backends`): the
``fraction`` backend is the exact-rational reference, and the ``array``
backend (the default) runs each round in integer arithmetic over one
shared denominator and whole fused stretches as columns (numpy when
available, stdlib ``array`` otherwise); the two produce bit-identical
outcomes.
"""

from repro.ring.state import RingState
from repro.ring.kinematics import (
    rotation_index,
    closed_form_round,
    first_collisions_basic,
    hops_to_opposite,
)
from repro.ring.collisions import (
    simulate_collisions,
    simulate_collisions_ticks,
    AgentTrace,
    TickTrace,
    position_at,
)
from repro.ring.backends import (
    ArrayBackend,
    BACKEND_NAMES,
    DEFAULT_BACKEND,
    FractionBackend,
    KinematicsBackend,
    make_backend,
)
from repro.ring.stretch import MaterialisedStretch, Stretch
from repro.ring.simulator import RingSimulator
from repro.ring.configs import (
    random_configuration,
    jittered_equidistant_configuration,
    clustered_configuration,
)

__all__ = [
    "RingState",
    "rotation_index",
    "closed_form_round",
    "first_collisions_basic",
    "hops_to_opposite",
    "simulate_collisions",
    "simulate_collisions_ticks",
    "AgentTrace",
    "TickTrace",
    "position_at",
    "ArrayBackend",
    "BACKEND_NAMES",
    "DEFAULT_BACKEND",
    "KinematicsBackend",
    "FractionBackend",
    "MaterialisedStretch",
    "Stretch",
    "make_backend",
    "RingSimulator",
    "random_configuration",
    "jittered_equidistant_configuration",
    "clustered_configuration",
]
