"""Shared experiment utilities: rows and rendering for the table and
figure drivers, and the shootouts behind ``python -m repro bench NAME``
and the benchmark suite (:data:`SHOOTOUTS`, :func:`shootout`)."""

from __future__ import annotations

import json
import os
import platform
import random
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.exceptions import ConfigurationError, SimulationError
from repro.ring.backends import (
    ArrayBackend,
    FractionBackend,
    KinematicsBackend,
    LatticeBackend,
)


@dataclass
class ExperimentRow:
    """One measured configuration of one experiment.

    Attributes:
        label: Human-readable setting (e.g. "basic, even n").
        params: Input parameters (n, N, seed, ...).
        measured: Measured quantities (round counts, sizes, ...).
        reference: The paper's bound evaluated at the same parameters.
    """

    label: str
    params: Dict[str, object] = field(default_factory=dict)
    measured: Dict[str, object] = field(default_factory=dict)
    reference: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready payload (the CLI ``--json`` row format).

        Exact rationals become ``"p/q"`` strings; everything else JSON
        already understands is passed through.
        """
        return {
            "label": self.label,
            "params": {k: _jsonable(v) for k, v in self.params.items()},
            "measured": {k: _jsonable(v) for k, v in self.measured.items()},
            "reference": {
                k: _jsonable(v) for k, v in self.reference.items()
            },
        }


def _numpy_version() -> Optional[str]:
    """numpy's version string via the optional-dependency gate."""
    from repro.ring.arrayops import get_numpy

    np = get_numpy()
    return None if np is None else str(np.__version__)


def _jsonable(value: object) -> object:
    from fractions import Fraction

    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def render_table(rows: Sequence[ExperimentRow], title: str = "") -> str:
    """Render rows as an aligned text table (the bench output format)."""
    if not rows:
        return f"{title}\n(empty)"
    param_keys = sorted({k for r in rows for k in r.params})
    measured_keys = sorted({k for r in rows for k in r.measured})
    reference_keys = sorted({k for r in rows for k in r.reference})
    headers = (
        ["setting"]
        + param_keys
        + [f"meas:{k}" for k in measured_keys]
        + [f"ref:{k}" for k in reference_keys]
    )
    body: List[List[str]] = []
    for r in rows:
        body.append(
            [r.label]
            + [_fmt(r.params.get(k)) for k in param_keys]
            + [_fmt(r.measured.get(k)) for k in measured_keys]
            + [_fmt(r.reference.get(k)) for k in reference_keys]
        )
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in body))
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.1f}"
    return str(value)


# -- shootouts ----------------------------------------------------------
#
# Every speedup the repo reports is a shootout: a fast path timed against
# its executable spec on the identical workload -- but only after the two
# are proven bit-exact on it, so a benchmark can never report a speedup
# for code that changed behaviour.

#: A JSON-ready shootout report (one ``BENCH_*.json`` payload).
Report = Dict[str, object]


def _environment() -> Dict[str, object]:
    """The host block every report ends with."""
    return {
        "numpy": _numpy_version(),
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def _report(
    benchmark: str, workload: Dict[str, object], **body: object
) -> Report:
    """A bit-exact report: name, workload block, ``body``, host block."""
    return {
        "benchmark": benchmark,
        "workload": workload,
        "bit_exact": True,
        **body,
        **_environment(),
    }


def report_json(report: Report) -> str:
    """A report's bytes: indented JSON plus a trailing newline."""
    return json.dumps(report, indent=2) + "\n"


def write_report(report: Report, path: Union[str, "os.PathLike[str]"]) -> None:
    """Write ``report`` to ``path`` as :func:`report_json` bytes -- the
    writer behind ``bench --out`` and the benchmark suite."""
    Path(path).write_text(report_json(report))


@dataclass(frozen=True)
class Contender:
    """One labelled setting of a shootout workload: the kinematics
    backend class (each run builds one instance), the phase driver and
    the equation engine it runs under."""

    label: str
    backend: Callable[[], KinematicsBackend]
    driver: str = "native"
    engine: Optional[str] = None


#: ``workload(contender, n, collect) -> (seconds, rounds, fingerprint)``.
#: ``seconds`` covers the measured phases only; the fingerprint is
#: assembled on collecting runs only (``None`` otherwise), so
#: fingerprinting never lands in a timing.
Workload = Callable[[Contender, int, bool], Tuple[float, int, object]]

#: Ring seed of every pairwise workload: all contenders at a size start
#: from the identical configuration.
_SEED = 11


@dataclass(frozen=True)
class Pairwise:
    """A pairwise shootout: one workload under labelled contenders.

    ``contenders`` is ``(baseline, candidate, *references)``.  The
    references are executable specs -- the Fraction backend, the
    callback drivers -- checked at the smallest size only, where their
    cost stays affordable; tier-1's property tests hold every backend
    and both drivers bit-exact at the sizes they sweep.
    """

    workload: Workload
    contenders: Tuple[Contender, ...]
    sizes: Tuple[int, ...]
    repeats: int

    def rows(self, sizes: Sequence[int]) -> List[Dict[str, object]]:
        """The bit-exact-then-time core.

        First one collecting run per contender and size: the
        candidate's fingerprint must equal the baseline's at every
        size, and each reference's at the smallest size; a mismatch
        raises :class:`SimulationError` naming both labels and ``n``
        before any timed run.  Then baseline and candidate are timed
        at every size, best of ``repeats`` non-collecting runs each.
        Returns one row ``{n, rounds, seconds,
        speedup_<candidate>_over_<baseline>}`` per size.
        """
        baseline, candidate = self.contenders[:2]
        smallest = min(sizes)
        rounds: Dict[int, int] = {}
        for n in sizes:
            _, rounds[n], expected = self.workload(baseline, n, True)
            others = self.contenders[1:] if n == smallest else (candidate,)
            for other in others:
                _, _, fingerprint = self.workload(other, n, True)
                # An explicit raise, not an assert: the emitted bit_exact
                # must stay trustworthy under ``python -O`` too.
                if fingerprint != expected:
                    raise SimulationError(
                        f"{other.label} and {baseline.label} disagree "
                        f"at n={n}"
                    )
        rows: List[Dict[str, object]] = []
        for n in sizes:
            seconds = {
                c.label: min(
                    self.workload(c, n, False)[0] for _ in range(self.repeats)
                )
                for c in (baseline, candidate)
            }
            rows.append({
                "n": n,
                "rounds": rounds[n],
                "seconds": {k: round(v, 6) for k, v in seconds.items()},
                f"speedup_{candidate.label}_over_{baseline.label}": round(
                    seconds[baseline.label] / seconds[candidate.label], 2
                ),
            })
        return rows

    def sweep_report(
        self, benchmark: str, sizes: Optional[Sequence[int]],
        **about: object,
    ) -> Report:
        """The report of one core row per size under ``sweep``; the
        workload block records which reference checks ran where."""
        sizes = self.sizes if sizes is None else sizes
        rows = self.rows(sizes)
        workload = {**about, "seed": _SEED, "repeats": self.repeats}
        for reference in self.contenders[2:]:
            workload[f"{reference.label}_checked_at"] = min(sizes)
        return _report(benchmark, workload, sweep=rows)


def _one_size(
    name: str, sizes: Optional[Sequence[int]], default: Tuple[int, ...]
) -> int:
    """The ring size of a shootout that measures exactly one."""
    sizes = default if sizes is None else tuple(sizes)
    if len(sizes) != 1:
        raise ConfigurationError(
            f"shootout {name!r} measures one ring size; got {len(sizes)}"
        )
    return sizes[0]


_FRACTION = Contender("fraction", FractionBackend)
#: The scalar integer baseline: array's base class, without the fused
#: stretches (not a user-facing backend).
_LATTICE = Contender("lattice", LatticeBackend)
_ARRAY = Contender("array", ArrayBackend)
_CALLBACK = Contender("callback", LatticeBackend, driver="callback")

#: Length of the simulator shootout's direction sequence.
_SIMULATOR_ROUNDS = 256


def _simulator_workload(
    contender: Contender, n: int, collect: bool
) -> Tuple[float, int, object]:
    """A deterministic perceptive-model round sequence executed straight
    on the kinematics backend.  Roughly half the rounds repeat the
    previous direction vector (protocols run long homogeneous
    probe/restore stretches, which exercises the integer backend's
    memoised pattern tables) and half draw fresh per-agent directions
    (exercising the derivation path).  The fingerprint is every round's
    outcome -- observations, rotation index, collision-event count --
    and the final positions."""
    from repro.core.scheduler import Scheduler
    from repro.ring.configs import random_configuration
    from repro.types import LocalDirection, Model

    rng = random.Random(_SEED)
    choices = (LocalDirection.RIGHT, LocalDirection.LEFT)
    sequence: List[list] = []
    for _ in range(_SIMULATOR_ROUNDS):
        if not sequence or rng.random() >= 0.5:
            sequence.append([rng.choice(choices) for _ in range(n)])
        else:
            sequence.append(sequence[-1])
    state = random_configuration(n, seed=_SEED, common_sense=False)
    sched = Scheduler(state, Model.PERCEPTIVE, backend=contender.backend())
    sim = sched.simulator
    outcomes = []
    start = time.perf_counter()
    for directions in sequence:
        outcome = sim.execute(directions)
        if collect:
            outcomes.append(outcome)
    elapsed = time.perf_counter() - start
    fingerprint = (outcomes, list(state.positions)) if collect else None
    return elapsed, len(sequence), fingerprint


def _simulator(sizes: Optional[Sequence[int]] = None) -> Report:
    """Scalar integer (:class:`LatticeBackend`) vs Fraction kinematics on
    the direction sequence of :func:`_simulator_workload` at one ring
    size (default 64 agents).

    Returns the ``BENCH_simulator.json`` payload.
    """
    entry = Pairwise(_simulator_workload, (_FRACTION, _LATTICE),
                     sizes=(64,), repeats=3)
    n = _one_size("simulator", sizes, entry.sizes)
    (row,) = entry.rows((n,))
    seconds = row["seconds"]
    return _report(
        "backend_shootout",
        {
            "n": n,
            "rounds": _SIMULATOR_ROUNDS,
            "model": "perceptive",
            "seed": _SEED,
            "repeats": entry.repeats,
        },
        seconds=seconds,
        rounds_per_second={
            k: round(_SIMULATOR_ROUNDS / v, 1) for k, v in seconds.items()
        },
        speedup_lattice_over_fraction=row["speedup_lattice_over_fraction"],
    )


def _flood_workload(
    contender: Contender, n: int, collect: bool,
    probes: int = 0, distance: int = 4, logged: Optional[int] = None,
) -> Tuple[float, int, object]:
    """The paper's hot probe/communication phases, perceptive model:
    ``probes`` deterministic rotation probes, then neighbor discovery,
    then a relay flood of ``distance`` hops from every agent whose ID
    is 1 mod 16 -- the probe/restore pairs and bit-exchange frames that
    the array backend fuses into whole-column stretches.  The
    fingerprint is the round count, final positions, all protocol
    memory and the observation logs of the first ``logged`` agents
    (default all)."""
    from repro.core.agent import id_bits
    from repro.core.scheduler import Scheduler
    from repro.ring.configs import random_configuration
    from repro.types import Model

    if contender.driver == "native":
        from repro.protocols.policies.bitcomm import relay_flood
        from repro.protocols.policies.neighbor_discovery import (
            discover_neighbors,
        )
        from repro.protocols.policies.rotation_probe import ri_is_zero
    else:
        from repro.protocols.bitcomm import relay_flood
        from repro.protocols.neighbor_discovery import discover_neighbors
        from repro.protocols.rotation_probe import ri_is_zero

    state = random_configuration(n, seed=_SEED, common_sense=False)
    sched = Scheduler(state, Model.PERCEPTIVE, backend=contender.backend())
    ids = sched.population.ids
    width = id_bits(sched.population.id_bound)
    start = time.perf_counter()
    for bit in range(probes):
        ri_is_zero(
            sched, {agent_id for agent_id in ids if (agent_id >> bit) & 1}
        )
    discover_neighbors(sched)
    if contender.driver == "native":
        sources = [
            agent_id if agent_id % 16 == 1 else None for agent_id in ids
        ]
    else:
        def sources(view):
            return view.agent_id if view.agent_id % 16 == 1 else None
    relay_flood(sched, sources, distance=distance, width=width)
    elapsed = time.perf_counter() - start
    fingerprint = None
    if collect:
        fingerprint = (
            sched.rounds,
            state.snapshot(),
            [dict(view.memory) for view in sched.views],
            [list(view.log) for view in sched.views[:logged]],
        )
    return elapsed, sched.rounds, fingerprint


def _policies(sizes: Optional[Sequence[int]] = None) -> Report:
    """Native whole-population phase drivers vs the legacy per-agent
    callback drivers on :func:`_flood_workload` (neighbor discovery +
    relay flood, scalar ``LatticeBackend``; default n = 64, 256, 1024).

    Returns the ``BENCH_policies.json`` payload.
    """
    return Pairwise(
        _flood_workload, (_CALLBACK, Contender("native", LatticeBackend)),
        sizes=(64, 256, 1024), repeats=3,
    ).sweep_report(
        "policy_shootout", sizes,
        phases=["neighbor_discovery", "relay_flood(d=4)"],
        model="perceptive",
        backend="lattice",
    )


def _array(sizes: Optional[Sequence[int]] = None) -> Report:
    """The array backend's fused stretches vs its scalar base class
    (:class:`LatticeBackend`) on large rings: :func:`_flood_workload`
    with 6 rotation probes and a 2-hop flood, native drivers (default
    n = 1024, 4096, 16384), checked against the exact Fraction backend
    at the smallest size (``fraction_checked_at``).

    Returns the ``BENCH_array.json`` payload.
    """
    return Pairwise(
        partial(_flood_workload, probes=6, distance=2, logged=64),
        (_LATTICE, _ARRAY, _FRACTION),
        sizes=(1024, 4096, 16384), repeats=2,
    ).sweep_report(
        "array_shootout", sizes,
        phases=[
            "rotation_probes(6)",
            "neighbor_discovery",
            "relay_flood(d=2)",
        ],
        model="perceptive",
        driver="native",
    )


def _speculative_preset(sched, leader: bool = True, labels: bool = False):
    """Stage the sweep/distances preconditions directly in the columns.

    A harness shortcut (it reads chiralities from the world state,
    which protocol code must never do): the common frame is pinned to
    the objective clockwise direction, the max-ID agent leads, and for
    Distances the 1..n labels follow the ring order -- exactly the
    state the coordination phases would have established, minus their
    rounds.  Works identically for the native (column) and callback
    (per-agent memory) drivers because views are slots of the same
    store.
    """
    from repro.protocols.base import (
        KEY_FRAME_FLIP,
        KEY_LABEL,
        KEY_LEADER,
        KEY_RING_SIZE,
    )
    from repro.types import Chirality

    population = sched.population
    chir = sched.state.chiralities
    population.set_column(
        KEY_FRAME_FLIP, [c is not Chirality.CLOCKWISE for c in chir]
    )
    if leader:
        lead = max(range(population.n), key=lambda i: population.ids[i])
        population.set_column(
            KEY_LEADER, [i == lead for i in range(population.n)]
        )
    if labels:
        population.set_column(
            KEY_LABEL, list(range(1, population.n + 1))
        )
        population.fill(KEY_RING_SIZE, population.n)


def _ld_workload(
    contender: Contender, n: int, collect: bool,
    sweeps: bool = True, distances: bool = True,
    distances_n: Optional[int] = None,
) -> Tuple[float, int, object]:
    """The data-dependent location-discovery phases, each on a fresh
    ring staged by :func:`_speculative_preset`: the rotation-1 sweep at
    ``n`` (lazy model) and the rotation-2 sweep at the nearest odd
    ``n // 2 + 1`` (basic model) unless not ``sweeps``, then Algorithm 6
    (perceptive model) at ``distances_n`` -- default ``n`` -- unless
    not ``distances``.  Seconds and rounds are summed over the phases.
    The fingerprint holds per phase the round count, final positions,
    every agent's gap vector as plain Fractions and the observation
    logs of the first 64 agents."""
    from repro.core.scheduler import Scheduler
    from repro.protocols.base import KEY_LD_GAPS
    from repro.ring.configs import random_configuration
    from repro.types import Model

    if contender.driver == "native":
        from repro.protocols.policies.distances import discover_distances
        from repro.protocols.policies.location_discovery import (
            sweep_rotation_one,
            sweep_rotation_two,
        )

        options = {"engine": contender.engine}
    else:
        from repro.protocols.distances import discover_distances
        from repro.protocols.location_discovery import (
            sweep_rotation_one,
            sweep_rotation_two,
        )

        options = {}
    n_odd = n // 2 + 1
    if n_odd % 2 == 0:
        n_odd += 1
    phases = []
    if sweeps:
        phases += [
            (sweep_rotation_one, n, Model.LAZY, False),
            (sweep_rotation_two, n_odd, Model.BASIC, False),
        ]
    if distances:
        phases.append(
            (discover_distances, distances_n or n, Model.PERCEPTIVE, True)
        )
    elapsed = 0.0
    rounds = 0
    fingerprint = [] if collect else None
    for run_phase, size, model, labels in phases:
        state = random_configuration(size, seed=_SEED, common_sense=False)
        sched = Scheduler(state, model, backend=contender.backend())
        _speculative_preset(sched, leader=not labels, labels=labels)
        start = time.perf_counter()
        run_phase(sched, **options)
        elapsed += time.perf_counter() - start
        rounds += sched.rounds
        if collect:
            fingerprint.append((
                sched.rounds,
                state.snapshot(),
                [
                    list(gaps)
                    for gaps in sched.population.get_column(KEY_LD_GAPS)
                ],
                [list(view.log) for view in sched.views[:64]],
            ))
    return elapsed, rounds, fingerprint


#: Algorithm 6's fixed ring size inside the speculative shootout: small,
#: so its backend-independent equation solve keeps the simulation layer
#: under test visible in the ratio.
_SPECULATIVE_DISTANCES_N = 48


def _speculative(sizes: Optional[Sequence[int]] = None) -> Report:
    """The array backend's speculative fused stretches vs its scalar
    base class on the data-dependent phases: :func:`_ld_workload` with
    Algorithm 6 at n = 48 (default n = 256, 1024), checked against the
    callback drivers and the exact Fraction backend at the smallest
    size (``callback_checked_at`` / ``fraction_checked_at``).

    Returns the ``BENCH_speculative.json`` payload.
    """
    return Pairwise(
        partial(_ld_workload, distances_n=_SPECULATIVE_DISTANCES_N),
        (_LATTICE, _ARRAY, _CALLBACK, _FRACTION),
        sizes=(256, 1024), repeats=2,
    ).sweep_report(
        "speculative_shootout", sizes,
        phases=[
            "sweep_rotation_one(lazy)",
            "sweep_rotation_two(basic, odd n//2+1)",
            f"discover_distances(perceptive, n={_SPECULATIVE_DISTANCES_N})",
        ],
        driver="native",
        distances_n=_SPECULATIVE_DISTANCES_N,
    )


def _equations(sizes: Optional[Sequence[int]] = None) -> Report:
    """The fraction-free equation engine vs the exact-Fraction spec on
    the native array backend (``engine="int"`` vs ``"fraction"``), in
    two tables of :func:`_ld_workload`: Algorithm 6 alone at n = 24,
    48, 96 (``IntEquationSystem`` vs ``EquationSystem``) and the two LD
    sweeps alone at n = 256, 1024 (the lazy columnar gap harvest vs the
    eager Fraction list).  ``sizes`` replaces both ladders; the engines
    are checked bit-exact at every size (``bit_exact_checked_at``).

    Returns the ``BENCH_equations.json`` payload.
    """
    engines = (
        Contender("fraction", ArrayBackend, engine="fraction"),
        Contender("int", ArrayBackend, engine="int"),
    )
    distances = Pairwise(partial(_ld_workload, sweeps=False), engines,
                         sizes=(24, 48, 96), repeats=2)
    sweeps = Pairwise(partial(_ld_workload, distances=False), engines,
                      sizes=(256, 1024), repeats=2)
    distances_sizes = list(distances.sizes if sizes is None else sizes)
    sweep_sizes = list(sweeps.sizes if sizes is None else sizes)
    return _report(
        "equations_shootout",
        {
            "backend": "array",
            "driver": "native",
            "phases": [
                "discover_distances(perceptive, int vs fraction engine)",
                "sweep_rotation_one(lazy) + sweep_rotation_two"
                "(basic, odd n//2+1), columnar vs fraction harvest",
            ],
            "seed": _SEED,
            "repeats": distances.repeats,
            "distances_sizes": distances_sizes,
            "sweep_sizes": sweep_sizes,
            "bit_exact_checked_at": {
                "distances": distances_sizes,
                "sweeps": sweep_sizes,
            },
        },
        distances=distances.rows(distances_sizes),
        sweeps=sweeps.rows(sweep_sizes),
    )


def _best_seconds(
    make_fleet: Callable[[], object], repeats: int,
    check: Callable[[object], None] = lambda report: None,
) -> float:
    """Best ``seconds_total`` over ``repeats`` runs of the fleet
    ``make_fleet()`` returns, each run's report passed to ``check``."""
    best = None
    for _ in range(repeats):
        report = make_fleet().run()
        check(report)
        if best is None or report.seconds_total < best:
            best = report.seconds_total
    return best


def _fleet_specs(n: int, sessions: int, **variant: object) -> list:
    """The fleet and cache shootouts' specs: ``sessions`` perceptive
    location-discovery rings of size ``n`` with seeds 0, 1, ...;
    ``variant`` overrides the default backend and driver."""
    from repro.api.fleet import sweep

    return sweep(
        protocol="location-discovery",
        sizes=(n,),
        seeds=range(sessions),
        models=("perceptive",),
        **variant,
    )


#: The fleet shootout's scaling curve: warm-pool worker counts.
_FLEET_WORKERS = (1, 2, 4)


def _fleet(sizes: Optional[Sequence[int]] = None) -> Report:
    """A fleet sweep serially vs. across warm process pools.

    The same 16-ring location-discovery sweep (one seed per ring, ring
    size from ``sizes``, default 24) runs on the serial executor and on
    the persistent warm pools of :mod:`repro.parallel` at every worker
    count of the scaling curve ``1, 2, 4``.  Each pool is warmed
    (workers spawned, session stack imported) *before* its timed
    repeats, so pool spin-up never lands in a timed region.  Every run
    must produce bit-identical result payloads (a mismatch raises
    ``SimulationError``).  Timings are the best of 3 runs per executor.

    The reported ``parallel_speedup`` is serial wall-clock over the
    best pool wall-clock across the scaling curve -- the pool's best
    configuration; ``scaling`` holds the whole per-worker-count curve.
    On multicore the best point is the full 4-worker pool and the
    headline approaches ``min(4, cpus)``; on a single-CPU host every
    pool size hovers around 1.0x (cooperative overhead only -- the warm
    pool removes the historic spin-up penalty) and the curve degrades
    slightly with worker count, so the best point is the honest
    headline.  ``cpu_count`` is recorded so the numbers read in context.

    Returns the ``BENCH_fleet.json`` payload.
    """
    from repro.api.fleet import Fleet

    n = _one_size("fleet", sizes, (24,))
    sessions, repeats = 16, 3
    specs = _fleet_specs(n, sessions)
    reference: List[object] = []

    def same_payloads(report) -> None:
        if not reference:
            reference.append(report.payloads())
        elif report.payloads() != reference[0]:
            raise SimulationError(
                "fleet results differ across executors/runs "
                f"({report.executor}, {report.workers} workers)"
            )

    serial = Fleet(specs, executor="serial")
    serial_best = _best_seconds(lambda: serial, repeats, same_payloads)
    scaling: List[Dict[str, object]] = []
    pool_best = None
    for count in _FLEET_WORKERS:
        fleet = Fleet(specs, workers=count, executor="process")
        fleet.warm()  # spin-up excluded from the timed repeats
        best = _best_seconds(lambda: fleet, repeats, same_payloads)
        scaling.append({
            "workers": count,
            "seconds": round(best, 6),
            "speedup": round(serial_best / best, 2),
            # Each row carries the host CPU count so a single row
            # pasted out of context still reads honestly (a 4-worker
            # 1.0x on a 1-CPU host is expected, not a regression).
            "cpu_count": os.cpu_count() or 1,
        })
        if pool_best is None or best < pool_best:
            pool_best = best
    return {
        "benchmark": "fleet_shootout",
        "workload": {
            "sessions": sessions,
            "n": n,
            "model": "perceptive",
            "protocol": "location-discovery",
            "seed": 0,
            "workers": _FLEET_WORKERS[-1],
            "repeats": repeats,
        },
        "deterministic_across_executors": True,
        "warm_pool": True,
        "seconds": {
            "serial": round(serial_best, 6),
            "process_pool": round(pool_best, 6),
        },
        "scaling": scaling,
        "parallel_speedup": round(serial_best / pool_best, 2),
        **_environment(),
    }


def _cache(sizes: Optional[Sequence[int]] = None) -> Report:
    """Run-store warm fetches and sweep dedup against recompute.

    Two measurements over location-discovery sweeps on the default
    backend (ring size from ``sizes``, default 16; every store
    interaction through the public Fleet path):

    * **warm**: an 8-spec sweep whose results are already stored runs
      with the cache on (every spec a hit) against the same sweep
      recomputed serially.  This is the steady-state payoff of the
      store: a rerun of yesterday's sweep.
    * **dedup**: a sweep of 4 distinct specs, each repeated 4 times,
      runs against a *fresh empty store each repeat* -- so the win is
      purely intra-sweep deduplication (each distinct key computed
      once, duplicates fanned out), not warm hits.

    Bit-exactness is enforced **before** any timing: fetched payloads
    must equal the serially recomputed reference, a backend/driver
    variant sweep (fraction backend, callback driver) must be served
    by the same entries -- that is the key's backend-independence --
    and a sampled variant is recomputed uncached and compared against
    the fetched payload.  Any mismatch raises ``SimulationError``.
    Timings are best of 3.

    Returns the ``BENCH_cache.json`` payload.
    """
    import shutil
    import tempfile

    from repro.api.fleet import Fleet, run_session_spec
    from repro.store.service import reset_stores

    n = _one_size("cache", sizes, (16,))
    sessions, dupes, repeats = 8, 4, 3
    specs = _fleet_specs(n, sessions)
    variant_specs = _fleet_specs(
        n, sessions, backends=("fraction",), driver="callback"
    )
    scratch: List[str] = []

    def fresh_dir() -> str:
        path = tempfile.mkdtemp(prefix="repro-cache-shootout-")
        scratch.append(path)
        return path

    try:
        # -- bit-exactness first, timing only afterwards -------------
        reference = [run_session_spec(spec)["result"] for spec in specs]
        warm_dir = fresh_dir()
        populate = Fleet(
            specs, executor="serial", cache=True, cache_dir=warm_dir,
        ).run()
        if [row["result"] for row in populate.results] != reference:
            raise SimulationError("cached compute differs from recompute")
        fetched = Fleet(
            specs, executor="serial", cache=True, cache_dir=warm_dir,
        ).run()
        if fetched.cache["hits"] != len(specs):  # type: ignore[index]
            raise SimulationError("warm sweep was not served by fetches")
        if [row["result"] for row in fetched.results] != reference:
            raise SimulationError("fetched results differ from recompute")
        variant = Fleet(
            variant_specs, executor="serial", cache=True,
            cache_dir=warm_dir,
        ).run()
        if variant.cache["hits"] != len(variant_specs):  # type: ignore[index]
            raise SimulationError(
                "backend/driver variant missed entries keyed "
                "backend-independently"
            )
        if [row["result"] for row in variant.results] != reference:
            raise SimulationError("variant fetch differs from recompute")
        sampled = run_session_spec(variant_specs[0])["result"]
        if sampled != reference[0]:
            raise SimulationError(
                "sampled variant recompute differs from reference"
            )

        # -- warm: all-hit sweep vs serial recompute -----------------
        recompute_best = _best_seconds(
            lambda: Fleet(specs, executor="serial", cache=False), repeats
        )
        warm_best = _best_seconds(
            lambda: Fleet(
                specs, executor="serial", cache=True, cache_dir=warm_dir,
            ),
            repeats,
        )

        # -- dedup: duplicated sweep against a fresh store each time -
        dup_specs = [
            spec for spec in specs[:dupes] for _ in range(dupes)
        ]

        def computed_once(report) -> None:
            summary = report.cache or {}
            if summary.get("misses") != dupes or (
                summary.get("deduped") != len(dup_specs) - dupes
            ):
                raise SimulationError(
                    "dedup sweep did not compute each distinct key "
                    f"exactly once: {summary}"
                )

        dup_uncached_best = _best_seconds(
            lambda: Fleet(dup_specs, executor="serial", cache=False),
            repeats,
        )
        dup_best = _best_seconds(
            lambda: Fleet(
                dup_specs, executor="serial", cache=True,
                cache_dir=fresh_dir(),
            ),
            repeats,
            computed_once,
        )
    finally:
        reset_stores()
        for path in scratch:
            shutil.rmtree(path, ignore_errors=True)

    return _report(
        "cache_shootout",
        {
            "sessions": sessions,
            "n": n,
            "dupes": dupes,
            "model": "perceptive",
            "protocol": "location-discovery",
            "backend": specs[0].backend,
            "variant_backend": "fraction",
            "variant_driver": "callback",
            "seed": 0,
            "repeats": repeats,
        },
        seconds={
            "recompute": round(recompute_best, 6),
            "warm_fetch": round(warm_best, 6),
            "dup_sweep_uncached": round(dup_uncached_best, 6),
            "dup_sweep_deduped": round(dup_best, 6),
        },
        warm_speedup=round(recompute_best / warm_best, 2),
        dedup_speedup=round(dup_uncached_best / dup_best, 2),
        entries=len(specs),
    )


#: The shootouts, keyed by report name: entry ``x`` writes
#: ``BENCH_x.json``.  Each maps an optional ``sizes`` override to its
#: JSON-ready report; seeds, repeats and secondary sizes are fixed per
#: entry so a report is comparable across machines and PRs.
SHOOTOUTS: Dict[str, Callable[[Optional[Sequence[int]]], Report]] = {
    "simulator": _simulator,
    "policies": _policies,
    "array": _array,
    "speculative": _speculative,
    "equations": _equations,
    "fleet": _fleet,
    "cache": _cache,
}


def shootout(name: str, sizes: Optional[Sequence[int]] = None) -> Report:
    """Run the :data:`SHOOTOUTS` entry ``name`` and return its report.

    ``sizes`` replaces the entry's default ring sizes -- the only knob.
    ``simulator``, ``fleet`` and ``cache`` measure exactly one size;
    ``equations`` applies ``sizes`` to both its Algorithm 6 and its
    sweep ladders.  An unknown name or an unusable size list raises
    :class:`ConfigurationError`; a fingerprint mismatch raises
    :class:`SimulationError` before any timed run.
    """
    if name not in SHOOTOUTS:
        raise ConfigurationError(
            f"unknown shootout {name!r} (choose from "
            f"{', '.join(SHOOTOUTS)})"
        )
    if sizes is not None and not sizes:
        raise ConfigurationError(f"shootout {name!r} needs a ring size")
    return SHOOTOUTS[name](sizes)
