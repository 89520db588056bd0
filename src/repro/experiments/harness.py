"""Shared experiment utilities: rows, rendering, size sweeps, and the
kinematics-backend shootout used by ``python -m repro bench`` and the
benchmark suite."""

from __future__ import annotations

import platform
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


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


def geometric_sizes(start: int, stop: int, factor: int = 2) -> List[int]:
    """Sizes start, start*factor, ... up to stop (inclusive if hit)."""
    sizes = []
    size = start
    while size <= stop:
        sizes.append(size)
        size *= factor
    return sizes


def _shootout_directions(n: int, rounds: int, seed: int) -> List[list]:
    """Deterministic per-round direction vectors for the shootout.

    Roughly half the rounds repeat the previous vector (protocols run
    long homogeneous probe/restore stretches, which exercises the
    lattice backend's memoised pattern tables) and half draw fresh
    per-agent directions (exercising the derivation path).
    """
    from repro.types import LocalDirection

    rng = random.Random(seed)
    choices = (LocalDirection.RIGHT, LocalDirection.LEFT)
    sequence: List[list] = []
    prev: Optional[list] = None
    for _ in range(rounds):
        if prev is None or rng.random() >= 0.5:
            prev = [rng.choice(choices) for _ in range(n)]
        sequence.append(prev)
    return sequence


def _shootout_run(backend: str, n: int, seed: int, sequence, collect: bool):
    """Run the shootout round sequence on a fresh state; optionally
    collect outcomes and the final positions for the agreement check."""
    from repro.core.scheduler import Scheduler
    from repro.ring.configs import random_configuration
    from repro.types import Model

    state = random_configuration(n, seed=seed, common_sense=False)
    sched = Scheduler(state, Model.PERCEPTIVE, backend=backend)
    sim = sched.simulator
    outcomes = [] if collect else None
    start = time.perf_counter()
    for directions in sequence:
        outcome = sim.execute(directions)
        if collect:
            outcomes.append(outcome)
    elapsed = time.perf_counter() - start
    return elapsed, outcomes, list(state.positions)


def backend_shootout(
    n: int = 64, rounds: int = 256, seed: int = 11, repeats: int = 3
) -> Dict[str, object]:
    """Time the lattice backend against the Fraction backend.

    Both backends execute the identical perceptive-model round sequence
    on identical initial configurations.  Before timing, one collecting
    run per backend verifies bit-exact agreement of every observation,
    rotation index, collision-event count and the final positions; a
    mismatch raises ``AssertionError``.  Timings are the best of
    ``repeats`` runs.

    Returns a JSON-ready report (the ``BENCH_simulator.json`` payload).
    """
    from repro.exceptions import SimulationError

    sequence = _shootout_directions(n, rounds, seed)

    _, frac_outcomes, frac_pos = _shootout_run(
        "fraction", n, seed, sequence, collect=True
    )
    _, latt_outcomes, latt_pos = _shootout_run(
        "lattice", n, seed, sequence, collect=True
    )
    # Explicit raises, not asserts: the emitted bit_exact field must
    # stay trustworthy under `python -O` too.
    if frac_pos != latt_pos:
        raise SimulationError("backends disagree on final positions")
    for k, (a, b) in enumerate(zip(frac_outcomes, latt_outcomes)):
        if (
            a.rotation_index != b.rotation_index
            or a.collision_events != b.collision_events
            or a.observations != b.observations
        ):
            raise SimulationError(f"backends disagree on round {k}")

    timings: Dict[str, float] = {}
    for backend in ("fraction", "lattice"):
        best = min(
            _shootout_run(backend, n, seed, sequence, collect=False)[0]
            for _ in range(max(1, repeats))
        )
        timings[backend] = best

    speedup = timings["fraction"] / timings["lattice"]
    return {
        "benchmark": "backend_shootout",
        "workload": {
            "n": n,
            "rounds": rounds,
            "model": "perceptive",
            "seed": seed,
            "repeats": repeats,
        },
        "bit_exact": True,
        "seconds": {k: round(v, 6) for k, v in timings.items()},
        "rounds_per_second": {
            k: round(rounds / v, 1) for k, v in timings.items()
        },
        "speedup_lattice_over_fraction": round(speedup, 2),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def _policy_workload(n: int, seed: int, driver: str):
    """One phase-driver workload run: neighbor discovery plus a sparse
    relay flood -- the paper's hot communication drivers -- at size
    ``n`` on the lattice backend.  Returns a comparable fingerprint."""
    from repro.core.agent import id_bits
    from repro.core.scheduler import Scheduler
    from repro.ring.configs import random_configuration
    from repro.types import Model

    state = random_configuration(n, seed=seed, common_sense=False)
    sched = Scheduler(state, Model.PERCEPTIVE, backend="lattice")
    width = id_bits(sched.population.id_bound)
    start = time.perf_counter()
    if driver == "native":
        from repro.protocols.policies.bitcomm import relay_flood
        from repro.protocols.policies.neighbor_discovery import (
            discover_neighbors,
        )

        discover_neighbors(sched)
        relay_flood(
            sched,
            [
                agent_id if agent_id % 16 == 1 else None
                for agent_id in sched.population.ids
            ],
            distance=4,
            width=width,
        )
    else:
        from repro.protocols.bitcomm import relay_flood
        from repro.protocols.neighbor_discovery import discover_neighbors

        discover_neighbors(sched)
        relay_flood(
            sched,
            lambda view: (
                view.agent_id if view.agent_id % 16 == 1 else None
            ),
            distance=4,
            width=width,
        )
    elapsed = time.perf_counter() - start
    fingerprint = (
        sched.rounds,
        state.snapshot(),
        [list(v.log) for v in sched.views],
        [dict(v.memory) for v in sched.views],
    )
    return elapsed, fingerprint


def policy_shootout(
    sizes: Sequence[int] = (64, 256, 1024),
    seed: int = 11,
    repeats: int = 3,
) -> Dict[str, object]:
    """Time the native whole-population phase drivers against the legacy
    per-agent callback drivers.

    Both drivers execute the identical workload (neighbor discovery +
    sparse relay flood, perceptive model, lattice backend) from
    identical initial configurations at each size.  One collecting run
    per driver first verifies bit-exact agreement of round counts,
    final positions, every observation and the final protocol memory; a
    mismatch raises ``SimulationError``.  Timings are the best of
    ``repeats`` runs.

    Returns a JSON-ready report (the ``BENCH_policies.json`` payload).
    """
    import os

    from repro.exceptions import SimulationError

    rows = []
    for n in sizes:
        _, native_fp = _policy_workload(n, seed, "native")
        _, callback_fp = _policy_workload(n, seed, "callback")
        if native_fp != callback_fp:
            raise SimulationError(
                f"native and callback drivers disagree at n={n}"
            )
        timings: Dict[str, float] = {}
        for driver in ("native", "callback"):
            timings[driver] = min(
                _policy_workload(n, seed, driver)[0]
                for _ in range(max(1, repeats))
            )
        rows.append({
            "n": n,
            "rounds": native_fp[0],
            "seconds": {k: round(v, 6) for k, v in timings.items()},
            "speedup_native_over_callback": round(
                timings["callback"] / timings["native"], 2
            ),
        })
    return {
        "benchmark": "policy_shootout",
        "workload": {
            "phases": ["neighbor_discovery", "relay_flood(d=4)"],
            "model": "perceptive",
            "backend": "lattice",
            "seed": seed,
            "repeats": repeats,
        },
        "bit_exact": True,
        "sweep": rows,
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def _array_workload(backend: str, n: int, seed: int, collect: bool):
    """One large-ring workload run: deterministic rotation probes, then
    neighbor discovery, then a sparse relay flood -- the probe/restore
    pairs and bit-exchange frames that the array backend fuses into
    whole-column stretches.  Returns ``(seconds, fingerprint)``; the
    fingerprint (rounds, final positions, all protocol memory, sampled
    agent logs) is only assembled on collecting runs."""
    from repro.core.agent import id_bits
    from repro.core.scheduler import Scheduler
    from repro.protocols.policies.bitcomm import relay_flood
    from repro.protocols.policies.neighbor_discovery import (
        discover_neighbors,
    )
    from repro.protocols.policies.rotation_probe import ri_is_zero
    from repro.ring.configs import random_configuration
    from repro.types import Model

    state = random_configuration(n, seed=seed, common_sense=False)
    sched = Scheduler(state, Model.PERCEPTIVE, backend=backend)
    ids = sched.population.ids
    width = id_bits(sched.population.id_bound)
    start = time.perf_counter()
    for bit in range(6):
        ri_is_zero(
            sched, {agent_id for agent_id in ids if (agent_id >> bit) & 1}
        )
    discover_neighbors(sched)
    relay_flood(
        sched,
        [
            agent_id if agent_id % 16 == 1 else None
            for agent_id in ids
        ],
        distance=2,
        width=width,
    )
    elapsed = time.perf_counter() - start
    fingerprint = None
    if collect:
        sample = min(n, 64)
        fingerprint = (
            sched.rounds,
            state.snapshot(),
            [dict(view.memory) for view in sched.views],
            [list(view.log) for view in sched.views[:sample]],
        )
    return elapsed, fingerprint


def array_shootout(
    sizes: Sequence[int] = (1024, 4096, 16384),
    seed: int = 11,
    repeats: int = 2,
    fraction_check_at: Optional[int] = None,
) -> Dict[str, object]:
    """Time the array backend against the lattice backend on large rings.

    Both backends execute the identical rotation-probe + relay-flood
    workload (perceptive model, native drivers) from identical initial
    configurations at each size.  Before any timing, collecting runs
    verify bit-exact agreement of round counts, final positions, every
    agent's protocol memory and the sampled observation logs -- at
    every size between array and lattice, and additionally against the
    exact :class:`~repro.ring.backends.FractionBackend` at
    ``fraction_check_at``, defaulting to the smallest swept size (the
    Fraction run is the executable spec; checking it at the smallest
    size keeps the sweep affordable, and the lattice backend is itself
    property-tested bit-exact against it at every size in tier-1).
    The report's ``fraction_checked_at`` records the size actually
    checked -- ``None`` when ``fraction_check_at`` was pinned to a
    size outside the sweep, so the report never claims a verification
    that did not run.  Timings are the best of ``repeats`` runs for
    n <= 4096 and a single run above (the big rings dominate wall
    clock and their ratios are stable).

    Returns a JSON-ready report (the ``BENCH_array.json`` payload).
    """
    import os

    from repro.exceptions import SimulationError

    sizes = tuple(sizes)
    if fraction_check_at is None and sizes:
        fraction_check_at = min(sizes)
    fraction_checked = (
        fraction_check_at if fraction_check_at in sizes else None
    )
    rows = []
    for n in sizes:
        _, latt_fp = _array_workload("lattice", n, seed, collect=True)
        _, arr_fp = _array_workload("array", n, seed, collect=True)
        if latt_fp != arr_fp:
            raise SimulationError(
                f"array and lattice backends disagree at n={n}"
            )
        if n == fraction_check_at:
            _, frac_fp = _array_workload("fraction", n, seed, collect=True)
            if frac_fp != arr_fp:
                raise SimulationError(
                    f"array and Fraction backends disagree at n={n}"
                )
        runs = max(1, repeats) if n <= 4096 else 1
        timings: Dict[str, float] = {}
        for backend in ("lattice", "array"):
            timings[backend] = min(
                _array_workload(backend, n, seed, collect=False)[0]
                for _ in range(runs)
            )
        rows.append({
            "n": n,
            "rounds": latt_fp[0],
            "seconds": {k: round(v, 6) for k, v in timings.items()},
            "speedup_array_over_lattice": round(
                timings["lattice"] / timings["array"], 2
            ),
        })

    numpy_version = _numpy_version()
    return {
        "benchmark": "array_shootout",
        "workload": {
            "phases": [
                "rotation_probes(6)",
                "neighbor_discovery",
                "relay_flood(d=2)",
            ],
            "model": "perceptive",
            "driver": "native",
            "seed": seed,
            "repeats": repeats,
            "fraction_checked_at": fraction_checked,
        },
        "bit_exact": True,
        "sweep": rows,
        "numpy": numpy_version,
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


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


def _speculative_workload(
    backend: str, n: int, distances_n: int, seed: int, driver: str,
    collect: bool,
):
    """One data-dependent-phase workload run: the rotation-1 sweep at
    ``n`` (lazy model), the rotation-2 sweep at the nearest odd
    ``n // 2 + 1`` (basic model) and Algorithm 6 at ``distances_n``
    (perceptive model, equation-solve bound -- held small so the
    simulation layer under test stays visible in the ratio).  Returns
    ``(seconds, fingerprint)``; the fingerprint (rounds, final
    positions, every agent's ``ld.gaps``, sampled logs) is only
    assembled on collecting runs.
    """
    from repro.core.scheduler import Scheduler
    from repro.protocols.base import KEY_LD_GAPS
    from repro.ring.configs import random_configuration
    from repro.types import Model

    if driver == "native":
        from repro.protocols.policies.distances import discover_distances
        from repro.protocols.policies.location_discovery import (
            sweep_rotation_one,
            sweep_rotation_two,
        )
    else:
        from repro.protocols.distances import discover_distances
        from repro.protocols.location_discovery import (
            sweep_rotation_one,
            sweep_rotation_two,
        )

    n_odd = n // 2 + 1
    if n_odd % 2 == 0:
        n_odd += 1
    phases = (
        (sweep_rotation_one, n, Model.LAZY, False),
        (sweep_rotation_two, n_odd, Model.BASIC, False),
        (discover_distances, distances_n, Model.PERCEPTIVE, True),
    )
    elapsed = 0.0
    fingerprint = [] if collect else None
    for run_phase, size, model, labels in phases:
        state = random_configuration(size, seed=seed, common_sense=False)
        sched = Scheduler(state, model, backend=backend)
        _speculative_preset(sched, leader=not labels, labels=labels)
        start = time.perf_counter()
        run_phase(sched)
        elapsed += time.perf_counter() - start
        if collect:
            sample = min(size, 64)
            fingerprint.append((
                sched.rounds,
                state.snapshot(),
                sched.population.get_column(KEY_LD_GAPS),
                [list(view.log) for view in sched.views[:sample]],
            ))
    return elapsed, fingerprint


def speculative_shootout(
    sizes: Sequence[int] = (256, 1024),
    distances_n: int = 48,
    seed: int = 11,
    repeats: int = 2,
) -> Dict[str, object]:
    """Time the array backend against the lattice backend on the
    *data-dependent* phases (speculative fused stretches).

    Both backends execute the identical sweep + Distances workload with
    the native drivers from identical initial configurations at each
    size.  Before any timing, collecting runs verify bit-exact
    agreement of round counts, final positions, every agent's gap
    vector and the sampled observation logs -- between array and
    lattice at every size, and additionally against the legacy
    per-agent callback drivers and the exact Fraction backend at the
    smallest swept size (``callback_checked_at`` /
    ``fraction_checked_at`` record what actually ran; the native
    drivers and all three backends are property-tested bit-exact at
    every size in tier-1).  Timings are the best of ``repeats`` runs
    for the smaller sizes and a single run at the largest.

    Returns a JSON-ready report (the ``BENCH_speculative.json``
    payload).
    """
    import os

    from repro.exceptions import SimulationError

    sizes = tuple(sizes)
    check_at = min(sizes) if sizes else None
    rows = []
    for n in sizes:
        _, latt_fp = _speculative_workload(
            "lattice", n, distances_n, seed, "native", collect=True
        )
        _, arr_fp = _speculative_workload(
            "array", n, distances_n, seed, "native", collect=True
        )
        if latt_fp != arr_fp:
            raise SimulationError(
                f"array and lattice backends disagree at n={n}"
            )
        if n == check_at:
            _, cb_fp = _speculative_workload(
                "lattice", n, distances_n, seed, "callback", collect=True
            )
            if cb_fp != latt_fp:
                raise SimulationError(
                    f"native and callback drivers disagree at n={n}"
                )
            _, frac_fp = _speculative_workload(
                "fraction", n, distances_n, seed, "native", collect=True
            )
            if frac_fp != arr_fp:
                raise SimulationError(
                    f"array and Fraction backends disagree at n={n}"
                )
        runs = max(1, repeats) if n < max(sizes) else 1
        timings: Dict[str, float] = {}
        for backend in ("lattice", "array"):
            timings[backend] = min(
                _speculative_workload(
                    backend, n, distances_n, seed, "native", collect=False
                )[0]
                for _ in range(runs)
            )
        rows.append({
            "n": n,
            "rounds": sum(phase[0] for phase in latt_fp),
            "seconds": {k: round(v, 6) for k, v in timings.items()},
            "speedup_array_over_lattice": round(
                timings["lattice"] / timings["array"], 2
            ),
        })

    numpy_version = _numpy_version()
    return {
        "benchmark": "speculative_shootout",
        "workload": {
            "phases": [
                "sweep_rotation_one(lazy)",
                "sweep_rotation_two(basic, odd n//2+1)",
                f"discover_distances(perceptive, n={distances_n})",
            ],
            "driver": "native",
            "seed": seed,
            "repeats": repeats,
            "distances_n": distances_n,
            "callback_checked_at": check_at,
            "fraction_checked_at": check_at,
        },
        "bit_exact": True,
        "sweep": rows,
        "numpy": numpy_version,
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def _equations_distances_run(
    n: int, seed: int, engine: str, collect: bool
):
    """One native array-backend Algorithm 6 run under ``engine``.

    Returns ``(seconds, fingerprint)``; the fingerprint (rounds, final
    positions, every agent's gap vector materialised to plain Fraction
    lists) is only assembled on collecting runs, so timed runs measure
    the phase alone.
    """
    from repro.core.scheduler import Scheduler
    from repro.protocols.base import KEY_LD_GAPS
    from repro.protocols.policies.distances import discover_distances
    from repro.ring.configs import random_configuration
    from repro.types import Model

    state = random_configuration(n, seed=seed, common_sense=False)
    sched = Scheduler(state, Model.PERCEPTIVE, backend="array")
    _speculative_preset(sched, leader=False, labels=True)
    start = time.perf_counter()
    discover_distances(sched, engine=engine)
    elapsed = time.perf_counter() - start
    fingerprint = None
    if collect:
        fingerprint = (
            sched.rounds,
            state.snapshot(),
            [
                list(column)
                for column in sched.population.get_column(KEY_LD_GAPS)
            ],
        )
    return elapsed, fingerprint


def _equations_sweeps_run(n: int, seed: int, engine: str, collect: bool):
    """The two LD sweeps (rotation 1 at ``n``, rotation 2 at the
    nearest odd ``n // 2 + 1``) under ``engine`` on the array backend;
    same contract as :func:`_equations_distances_run`."""
    from repro.core.scheduler import Scheduler
    from repro.protocols.base import KEY_LD_GAPS
    from repro.protocols.policies.location_discovery import (
        sweep_rotation_one,
        sweep_rotation_two,
    )
    from repro.ring.configs import random_configuration
    from repro.types import Model

    n_odd = n // 2 + 1
    if n_odd % 2 == 0:
        n_odd += 1
    elapsed = 0.0
    fingerprint = [] if collect else None
    rounds = 0
    for run_phase, size, model in (
        (sweep_rotation_one, n, Model.LAZY),
        (sweep_rotation_two, n_odd, Model.BASIC),
    ):
        state = random_configuration(size, seed=seed, common_sense=False)
        sched = Scheduler(state, model, backend="array")
        _speculative_preset(sched, leader=True, labels=False)
        start = time.perf_counter()
        run_phase(sched, engine=engine)
        elapsed += time.perf_counter() - start
        rounds += sched.rounds
        if collect:
            fingerprint.append((
                sched.rounds,
                state.snapshot(),
                [
                    list(column)
                    for column in sched.population.get_column(KEY_LD_GAPS)
                ],
            ))
    return elapsed, fingerprint, rounds


def equations_shootout(
    distances_sizes: Sequence[int] = (24, 48, 96),
    sweep_sizes: Sequence[int] = (256, 1024),
    seed: int = 11,
    repeats: int = 2,
) -> Dict[str, object]:
    """Time the fraction-free equation engine against the Fraction spec
    on the data-dependent analysis hot paths (native array backend).

    Two workloads: Algorithm 6 (``discover_distances``) across
    ``distances_sizes`` -- integer-column harvests into
    ``IntEquationSystem`` vs the exact-`Fraction` ``EquationSystem``
    spec -- and the two LD sweeps across ``sweep_sizes`` -- the lazy
    columnar ``_GapHarvest`` vs the eager Fraction-list harvest.  At
    *every* size, before any timing, collecting runs under both engines
    must agree bit-exactly on round counts, final positions and every
    agent's gap vector (exact ``Fraction`` equality; a mismatch raises
    ``SimulationError``).  Timings are the best of ``repeats`` runs for
    the smaller sizes and a single run at the largest of each sweep.

    Returns a JSON-ready report (the ``BENCH_equations.json`` payload).
    """
    import os

    from repro.exceptions import SimulationError

    distances_sizes = tuple(distances_sizes)
    sweep_sizes = tuple(sweep_sizes)

    distances_rows = []
    for n in distances_sizes:
        _, int_fp = _equations_distances_run(n, seed, "int", collect=True)
        _, frac_fp = _equations_distances_run(
            n, seed, "fraction", collect=True
        )
        if int_fp != frac_fp:
            raise SimulationError(
                f"int and Fraction equation engines disagree on "
                f"distances at n={n}"
            )
        runs = max(1, repeats) if n < max(distances_sizes) else 1
        timings: Dict[str, float] = {}
        for engine in ("int", "fraction"):
            timings[engine] = min(
                _equations_distances_run(n, seed, engine, collect=False)[0]
                for _ in range(runs)
            )
        distances_rows.append({
            "n": n,
            "rounds": int_fp[0],
            "seconds": {k: round(v, 6) for k, v in timings.items()},
            "speedup_int_over_fraction": round(
                timings["fraction"] / timings["int"], 2
            ),
        })

    sweep_rows = []
    for n in sweep_sizes:
        _, int_fp, rounds = _equations_sweeps_run(
            n, seed, "int", collect=True
        )
        _, frac_fp, _ = _equations_sweeps_run(
            n, seed, "fraction", collect=True
        )
        if int_fp != frac_fp:
            raise SimulationError(
                f"columnar and Fraction harvests disagree on the LD "
                f"sweeps at n={n}"
            )
        runs = max(1, repeats) if n < max(sweep_sizes) else 1
        timings = {}
        for engine in ("int", "fraction"):
            timings[engine] = min(
                _equations_sweeps_run(n, seed, engine, collect=False)[0]
                for _ in range(runs)
            )
        sweep_rows.append({
            "n": n,
            "rounds": rounds,
            "seconds": {k: round(v, 6) for k, v in timings.items()},
            "speedup_int_over_fraction": round(
                timings["fraction"] / timings["int"], 2
            ),
        })

    numpy_version = _numpy_version()
    return {
        "benchmark": "equations_shootout",
        "workload": {
            "backend": "array",
            "driver": "native",
            "phases": [
                "discover_distances(perceptive, int vs fraction engine)",
                "sweep_rotation_one(lazy) + sweep_rotation_two"
                "(basic, odd n//2+1), columnar vs fraction harvest",
            ],
            "seed": seed,
            "repeats": repeats,
            "distances_sizes": list(distances_sizes),
            "sweep_sizes": list(sweep_sizes),
            "bit_exact_checked_at": {
                "distances": list(distances_sizes),
                "sweeps": list(sweep_sizes),
            },
        },
        "bit_exact": True,
        "distances": distances_rows,
        "sweeps": sweep_rows,
        "numpy": numpy_version,
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def _worker_counts(workers: int) -> List[int]:
    """The scaling-curve worker counts: 1, 2, 4, ... capped at workers."""
    counts = []
    w = 1
    while w < workers:
        counts.append(w)
        w *= 2
    counts.append(workers)
    return counts


def fleet_shootout(
    sessions: int = 16,
    n: int = 24,
    workers: int = 4,
    seed: int = 0,
    model: str = "perceptive",
    repeats: int = 3,
) -> Dict[str, object]:
    """Time a fleet sweep serially vs. across warm process pools.

    The same ``sessions``-ring sweep (one seed per ring, identical
    specs) runs on the serial executor and on the persistent warm
    pools of :mod:`repro.parallel` at every worker count of the
    doubling curve ``1, 2, 4, ... workers``.  Each pool is warmed
    (workers spawned, session stack imported) *before* its timed
    repeats, so pool spin-up never lands in a timed region; spec and
    result payloads travel through shared-memory slots, not pickles.
    Every run must produce bit-identical result payloads (a mismatch
    raises ``SimulationError``).  Timings are the best of ``repeats``
    runs per executor.

    The reported ``parallel_speedup`` is serial wall-clock over the
    best pool wall-clock across the scaling curve -- the pool's best
    configuration; ``scaling`` holds the whole per-worker-count curve.
    On multicore the best point is the full-``workers`` pool and the
    headline approaches ``min(workers, cpus)``; on a single-CPU host
    every pool size hovers around 1.0x (cooperative overhead only --
    the warm pool removes the historic spin-up penalty) and the curve
    degrades slightly with worker count, so the best point is the
    honest headline.  ``cpu_count`` is recorded so the numbers read in
    context.

    Returns a JSON-ready report (the ``BENCH_fleet.json`` payload).
    """
    import os

    from repro.api.fleet import Fleet, sweep
    from repro.exceptions import SimulationError

    specs = sweep(
        protocol="location-discovery",
        sizes=(n,),
        seeds=range(seed, seed + sessions),
        models=(model,),
        backends=("lattice",),
    )
    repeats = max(1, repeats)
    reference = None

    def timed_runs(fleet: Fleet, label: str) -> float:
        nonlocal reference
        best = None
        for _ in range(repeats):
            report = fleet.run()
            if reference is None:
                reference = report.payloads()
            elif report.payloads() != reference:
                raise SimulationError(
                    "fleet results differ across executors/runs "
                    f"({label})"
                )
            if best is None or report.seconds_total < best:
                best = report.seconds_total
        return best

    serial_best = timed_runs(Fleet(specs, executor="serial"), "serial")
    scaling: List[Dict[str, object]] = []
    pool_best = None
    for count in _worker_counts(workers):
        fleet = Fleet(specs, workers=count, executor="process")
        fleet.warm()  # spin-up excluded from the timed repeats
        best = timed_runs(fleet, f"process_pool[{count}]")
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
    speedup = serial_best / pool_best
    return {
        "benchmark": "fleet_shootout",
        "workload": {
            "sessions": sessions,
            "n": n,
            "model": model,
            "protocol": "location-discovery",
            "seed": seed,
            "workers": workers,
            "repeats": repeats,
        },
        "deterministic_across_executors": True,
        "warm_pool": True,
        "seconds": {
            "serial": round(serial_best, 6),
            "process_pool": round(pool_best, 6),
        },
        "scaling": scaling,
        "parallel_speedup": round(speedup, 2),
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def cache_shootout(
    sessions: int = 8,
    n: int = 16,
    dupes: int = 4,
    seed: int = 0,
    model: str = "perceptive",
    repeats: int = 3,
) -> Dict[str, object]:
    """Time run-store warm fetches and sweep dedup against recompute.

    Two measurements over location-discovery sweeps on the lattice
    backend (every store interaction through the public Fleet path):

    * **warm**: a ``sessions``-spec sweep whose results are already
      stored runs with the cache on (every spec a hit) against the
      same sweep recomputed serially.  This is the steady-state payoff
      of the store: a rerun of yesterday's sweep.
    * **dedup**: a sweep of ``dupes`` distinct specs, each repeated
      ``dupes`` times, runs against a *fresh empty store each repeat*
      -- so the win is purely intra-sweep deduplication (each distinct
      key computed once, duplicates fanned out), not warm hits.

    Bit-exactness is enforced **before** any timing: fetched payloads
    must equal the serially recomputed reference, a backend/driver
    variant sweep (fraction backend, callback driver) must be served
    by the same entries -- that is the key's backend-independence --
    and a sampled variant is recomputed uncached and compared against
    the fetched payload.  Any mismatch raises ``SimulationError``.
    Timings are best-of-``repeats``.

    Returns a JSON-ready report (the ``BENCH_cache.json`` payload).
    """
    import os
    import shutil
    import tempfile

    from repro.api.fleet import Fleet, run_session_spec, sweep
    from repro.exceptions import SimulationError
    from repro.store.service import reset_stores

    repeats = max(1, repeats)
    specs = sweep(
        protocol="location-discovery",
        sizes=(n,),
        seeds=range(seed, seed + sessions),
        models=(model,),
        backends=("lattice",),
    )
    variant_specs = sweep(
        protocol="location-discovery",
        sizes=(n,),
        seeds=range(seed, seed + sessions),
        models=(model,),
        backends=("fraction",),
        driver="callback",
    )
    scratch: List[str] = []

    def fresh_dir() -> str:
        path = tempfile.mkdtemp(prefix="repro-bench-cache-")
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
        def best_of(make_fleet) -> float:
            best = None
            for _ in range(repeats):
                report = make_fleet().run()
                if best is None or report.seconds_total < best:
                    best = report.seconds_total
            return best

        recompute_best = best_of(
            lambda: Fleet(specs, executor="serial", cache=False)
        )
        warm_best = best_of(
            lambda: Fleet(
                specs, executor="serial", cache=True, cache_dir=warm_dir,
            )
        )

        # -- dedup: duplicated sweep against a fresh store each time -
        dup_specs = [
            spec for spec in specs[:dupes] for _ in range(dupes)
        ]
        dup_uncached_best = best_of(
            lambda: Fleet(dup_specs, executor="serial", cache=False)
        )
        dup_best = None
        for _ in range(repeats):
            report = Fleet(
                dup_specs, executor="serial", cache=True,
                cache_dir=fresh_dir(),
            ).run()
            summary = report.cache or {}
            if summary.get("misses") != dupes or (
                summary.get("deduped") != len(dup_specs) - dupes
            ):
                raise SimulationError(
                    "dedup sweep did not compute each distinct key "
                    f"exactly once: {summary}"
                )
            if dup_best is None or report.seconds_total < dup_best:
                dup_best = report.seconds_total
    finally:
        reset_stores()
        for path in scratch:
            shutil.rmtree(path, ignore_errors=True)

    return {
        "benchmark": "cache_shootout",
        "workload": {
            "sessions": sessions,
            "n": n,
            "dupes": dupes,
            "model": model,
            "protocol": "location-discovery",
            "backend": "lattice",
            "variant_backend": "fraction",
            "variant_driver": "callback",
            "seed": seed,
            "repeats": repeats,
        },
        "bit_exact": True,
        "seconds": {
            "recompute": round(recompute_best, 6),
            "warm_fetch": round(warm_best, 6),
            "dup_sweep_uncached": round(dup_uncached_best, 6),
            "dup_sweep_deduped": round(dup_best, 6),
        },
        "warm_speedup": round(recompute_best / warm_best, 2),
        "dedup_speedup": round(dup_uncached_best / dup_best, 2),
        "entries": len(specs),
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
