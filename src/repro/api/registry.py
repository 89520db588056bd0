"""Protocol registry: named end-to-end pipelines as declarative phases.

Each end-to-end pipeline is expressed here as data: a registered
:class:`ProtocolSpec` plans a list of named :class:`Phase` steps for a
concrete setting (model, parity, common sense) and collects the final
result from the scheduler.  Planning is separated from execution, so
per-phase round counts, phase listing and stepwise execution/resume
(see :class:`~repro.api.session.RingSession`) need no
protocol-specific code.

Every phase exists in two interchangeable implementations, selected by
the ``driver`` planning argument:

* ``"native"`` (the default): the whole-population policies of
  :mod:`repro.protocols.policies` -- one ``decide`` per round over
  columnar state, zero per-agent dispatch;
* ``"callback"``: the legacy per-agent drivers, kept as the executable
  reference specification.

The two are bit-exact (property-tested in
``tests/test_native_policies.py``).  Routing follows Table I / Table II
of the paper:

===========================  =========================================
Setting                      Pipeline
===========================  =========================================
odd n (any model)            DirAgr (Prop 17, O(1)) -> leader via
                             emptiness bisection (O(log N)) -> NMove
                             from leader (O(1))
even n, basic/lazy           NMove via the published distinguisher
                             sequence (Thm 27) -> DirAgr (Alg 1) ->
                             leader (Alg 2)
even n, perceptive           NMoveS (Alg 4, O(√n log N)) -> DirAgr ->
                             leader (Alg 2)
common chirality declared    leader via emptiness bisection (Lemma 13)
                             -> NMove from leader
===========================  =========================================

Location discovery then runs the best discovery phase for the model:
rotation-1 sweep (lazy, n rounds), rotation-2 sweep (basic, odd n only
-- Lemma 5 forbids even n), or neighbor discovery + RingDist + ring-size
broadcast + Distances (perceptive, even n, n/2 + o(n)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core.scheduler import Scheduler
from repro.exceptions import InfeasibleProblemError, ProtocolError
from repro.protocols.base import (
    CoordinationResult,
    KEY_LD_GAPS,
    LocationDiscoveryResult,
)
from repro.types import Model

#: Driver used when a plan is requested without an explicit choice.
DEFAULT_DRIVER = "native"

DRIVER_NAMES = ("native", "callback")


def resolve_driver(driver: Optional[str]) -> str:
    """Normalise a driver name (None means the default)."""
    if driver is None:
        return DEFAULT_DRIVER
    if driver not in DRIVER_NAMES:
        known = ", ".join(DRIVER_NAMES)
        raise ProtocolError(f"unknown driver {driver!r}; known: {known}")
    return driver


@dataclass(frozen=True)
class Phase:
    """One named step of a protocol pipeline.

    Attributes:
        name: Phase label, the key under which its round count is
            reported (``rounds_by_phase``).
        run: Executes the phase against a scheduler; any return value is
            ignored (phases communicate through agent memory).
        driver: Which implementation ``run`` uses: ``"native"`` (a
            whole-population policy) or ``"callback"`` (the per-agent
            reference driver).
    """

    name: str
    run: Callable[[Scheduler], object]
    driver: str = DEFAULT_DRIVER


@dataclass(frozen=True)
class ProtocolSpec:
    """A registered end-to-end protocol.

    Attributes:
        name: Registry key (e.g. ``"location-discovery"``).
        description: One-line human description for listings.
        plan: Maps ``(scheduler, common_sense, driver)`` to the concrete
            phase list for that setting.  Raises
            :class:`~repro.exceptions.InfeasibleProblemError` for
            settings the paper proves unsolvable, before any round runs.
        collect: Builds the result object from the scheduler and the
            recorded per-phase round counts once every phase has run.
    """

    name: str
    description: str
    plan: Callable[[Scheduler, bool, str], List[Phase]]
    collect: Callable[[Scheduler, Dict[str, int]], object]


_REGISTRY: Dict[str, ProtocolSpec] = {}


def register(spec: ProtocolSpec) -> ProtocolSpec:
    """Add a protocol to the registry (last registration wins)."""
    _REGISTRY[spec.name] = spec
    return spec


def get_protocol(name: str) -> ProtocolSpec:
    """Look up a registered protocol by name."""
    spec = _REGISTRY.get(name)
    if spec is None:
        known = ", ".join(sorted(_REGISTRY))
        raise ProtocolError(f"unknown protocol {name!r}; registered: {known}")
    return spec


def list_protocols() -> List[ProtocolSpec]:
    """All registered protocols, sorted by name."""
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def _coordination_phases_native(sched: Scheduler, common_sense: bool):
    from repro.protocols.policies import direction_agreement as da
    from repro.protocols.policies import leader_election as le
    from repro.protocols.policies import nmove_perceptive as nps
    from repro.protocols.policies import nontrivial_move as nm

    return {
        "assume_common_frame": da.assume_common_frame,
        "agree_direction_odd": da.agree_direction_odd,
        "agree_from_nmove": da.agree_direction_from_nontrivial_move,
        "elect_common_sense": le.elect_leader_common_sense,
        "elect_with_nmove": le.elect_leader_with_nontrivial_move,
        "nmove_from_leader": nm.nmove_from_leader,
        "nmove_seeded_family": nm.nmove_seeded_family,
        "nmove_perceptive": nps.nmove_perceptive,
    }


def _coordination_phases_callback(sched: Scheduler, common_sense: bool):
    from repro.protocols.direction_agreement import (
        agree_direction_from_nontrivial_move,
        agree_direction_odd,
        assume_common_frame,
    )
    from repro.protocols.leader_election import (
        elect_leader_common_sense,
        elect_leader_with_nontrivial_move,
    )
    from repro.protocols.nmove_perceptive import nmove_perceptive
    from repro.protocols.nontrivial_move import (
        nmove_from_leader,
        nmove_seeded_family,
    )

    return {
        "assume_common_frame": assume_common_frame,
        "agree_direction_odd": agree_direction_odd,
        "agree_from_nmove": agree_direction_from_nontrivial_move,
        "elect_common_sense": elect_leader_common_sense,
        "elect_with_nmove": elect_leader_with_nontrivial_move,
        "nmove_from_leader": nmove_from_leader,
        "nmove_seeded_family": nmove_seeded_family,
        "nmove_perceptive": nmove_perceptive,
    }


def _coordination_plan(
    sched: Scheduler, common_sense: bool, driver: Optional[str] = None
) -> List[Phase]:
    """Table I / Table II routing for the coordination problems."""
    driver = resolve_driver(driver)
    impl = (
        _coordination_phases_native
        if driver == "native"
        else _coordination_phases_callback
    )(sched, common_sense)

    def phase(name: str, key: str) -> Phase:
        return Phase(name, impl[key], driver)

    if common_sense:
        return [
            phase("direction_agreement", "assume_common_frame"),
            phase("leader_election", "elect_common_sense"),
            phase("nontrivial_move", "nmove_from_leader"),
        ]
    if not sched.state.parity_even:
        return [
            phase("direction_agreement", "agree_direction_odd"),
            phase("leader_election", "elect_common_sense"),
            phase("nontrivial_move", "nmove_from_leader"),
        ]
    nmove_key = (
        "nmove_perceptive"
        if sched.model is Model.PERCEPTIVE
        else "nmove_seeded_family"
    )
    return [
        phase("nontrivial_move", nmove_key),
        phase("direction_agreement", "agree_from_nmove"),
        phase("leader_election", "elect_with_nmove"),
    ]


def _collect_coordination(
    sched: Scheduler, rounds_by_phase: Dict[str, int]
) -> CoordinationResult:
    from repro.protocols.leader_election import leader_id

    return CoordinationResult(
        rounds=sched.rounds,
        leader_id=leader_id(sched),
        rounds_by_phase=rounds_by_phase,
    )


def _discovery_plan(
    sched: Scheduler, driver: Optional[str] = None
) -> List[Phase]:
    """The best discovery phase sequence for the scheduler's setting."""
    driver = resolve_driver(driver)
    if driver == "native":
        from repro.protocols.policies.distances import discover_distances
        from repro.protocols.policies.location_discovery import (
            sweep_rotation_one,
            sweep_rotation_two,
        )
        from repro.protocols.policies.neighbor_discovery import (
            discover_neighbors,
        )
        from repro.protocols.policies.ring_distance import (
            publish_ring_size,
            ring_distances,
        )
    else:
        from repro.protocols.distances import discover_distances
        from repro.protocols.location_discovery import (
            sweep_rotation_one,
            sweep_rotation_two,
        )
        from repro.protocols.neighbor_discovery import discover_neighbors
        from repro.protocols.ring_distance import (
            publish_ring_size,
            ring_distances,
        )

    def ensure_neighbors(sched: Scheduler) -> None:
        from repro.protocols.neighbor_discovery import KEY_GAP_RIGHT

        # NMoveS may already have run neighbor discovery (it skips it
        # only when its first probe succeeds).  Every view's memory is
        # a slot of the shared columnar store, so the column test is
        # the per-view test.
        if not sched.population.all_set(KEY_GAP_RIGHT):
            discover_neighbors(sched)

    model = sched.model
    if model is Model.LAZY:
        return [Phase("discovery", sweep_rotation_one, driver)]
    if model is Model.BASIC:
        return [Phase("discovery", sweep_rotation_two, driver)]
    if not sched.state.parity_even:
        # Odd n: the rotation-2 sweep is already optimal up to O(log N)
        # (Table I's odd row); Algorithm 6's alternating pairing needs
        # even n.
        return [Phase("discovery", sweep_rotation_two, driver)]

    return [
        Phase("neighbor_discovery", ensure_neighbors, driver),
        Phase("ring_distances", ring_distances, driver),
        Phase("ring_size_broadcast", publish_ring_size, driver),
        Phase("discovery", discover_distances, driver),
    ]


def _location_discovery_plan(
    sched: Scheduler, common_sense: bool, driver: Optional[str] = None
) -> List[Phase]:
    if sched.model is Model.BASIC and sched.state.parity_even:
        raise InfeasibleProblemError(
            "location discovery in the basic model with even n is "
            "impossible (Lemma 5): every rotation index is even, so an "
            "agent can never visit odd-ring-distance positions"
        )
    return _coordination_plan(sched, common_sense, driver) + _discovery_plan(
        sched, driver
    )


def _collect_location_discovery(
    sched: Scheduler, rounds_by_phase: Dict[str, int]
) -> LocationDiscoveryResult:
    from repro.protocols.policies.location_discovery import (
        collect_gap_rows,
    )

    cells = []
    for view in sched.views:
        if KEY_LD_GAPS not in view.memory:
            raise ProtocolError("an agent ended without a gap vector: bug")
        cells.append(view.memory[KEY_LD_GAPS])
    return LocationDiscoveryResult(
        rounds=sched.rounds,
        rounds_by_phase=rounds_by_phase,
        gaps_by_agent=collect_gap_rows(cells),
    )


COORDINATION = register(ProtocolSpec(
    name="coordination",
    description="direction agreement + leader election + nontrivial "
    "move, routed per Table I/II",
    plan=_coordination_plan,
    collect=_collect_coordination,
))

LOCATION_DISCOVERY = register(ProtocolSpec(
    name="location-discovery",
    description="full location discovery from a cold start "
    "(coordination phases + the optimal discovery sweep)",
    plan=_location_discovery_plan,
    collect=_collect_location_discovery,
))
