"""E12: simulator validation and throughput (Lemma 1 / Prop 4 substrate).

Not a paper table, but the substrate every experiment stands on: the
closed-form kinematics (rotation index, first-collision cascades) must
agree with the exact event-driven simulation, and the closed form must
be fast enough to carry the protocol suite.

This module also runs the kinematics-backend shootout (integer lattice
vs. exact Fractions, identical 64-agent perceptive workloads) and
writes the machine-readable ``BENCH_simulator.json`` report to the repo
root, so successive PRs can track the performance trajectory.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from repro.ring.collisions import (
    simulate_collisions,
    simulate_collisions_ticks,
)
from repro.ring.configs import random_configuration
from repro.ring.kinematics import (
    closed_form_round,
    first_collisions_basic,
)


def _random_round(n: int, seed: int):
    rng = random.Random(seed)
    denom = 1 << 16
    ticks = sorted(rng.sample(range(denom), n))
    positions = [Fraction(t, denom) for t in ticks]
    velocities = [rng.choice((-1, 1)) for _ in range(n)]
    return positions, velocities


def test_event_sim_cross_validation(once):
    """Exhaustive agreement between both engines on random rounds."""

    def validate():
        checked = 0
        for seed in range(40):
            n = 4 + (seed % 12)
            pos, vel = _random_round(n, seed)
            traces, _ = simulate_collisions(pos, vel)
            closed = first_collisions_basic(pos, vel)
            assert [t.coll_distance for t in traces] == closed
            final, r = closed_form_round(pos, vel)
            assert [t.final_position for t in traces] == final
            checked += 1
        return checked

    checked = once(validate)
    print(f"\ncross-validated {checked} random rounds (coll + rotation)")
    assert checked == 40


def test_closed_form_throughput(benchmark):
    """Throughput of the per-round closed form at n = 256."""
    pos, vel = _random_round(256, seed=1)

    def run():
        return first_collisions_basic(pos, vel)

    result = benchmark(run)
    assert len(result) == 256


def test_event_sim_throughput(benchmark):
    """Throughput of the exact event simulation at n = 64 (the engine
    behind lazy rounds and cross-validation)."""
    pos, vel = _random_round(64, seed=2)

    def run():
        return simulate_collisions(pos, vel)

    traces, events = benchmark(run)
    assert len(traces) == 64
    assert events > 0


def test_event_sim_ticks_throughput(benchmark):
    """Throughput of the integer tick-space event engine on the same
    round as :func:`test_event_sim_throughput`, with an agreement check
    against the Fraction engine."""
    pos, vel = _random_round(64, seed=2)
    denom = 1 << 16
    ring_ticks = 4 * denom
    coords = [int(p * ring_ticks) for p in pos]

    def run():
        return simulate_collisions_ticks(coords, vel, ring_ticks)

    traces, events = benchmark(run)
    ref_traces, ref_events = simulate_collisions(pos, vel)
    assert events == ref_events
    assert [Fraction(t.final_coord, ring_ticks) for t in traces] == [
        t.final_position for t in ref_traces
    ]
    assert [
        None if t.coll_ticks is None else Fraction(t.coll_ticks, ring_ticks)
        for t in traces
    ] == [t.coll_distance for t in ref_traces]


def test_backend_shootout_perceptive_64(shootout_report):
    """The PR-gating perf target: the integer-lattice backend must beat
    the Fraction backend >= 5x on a 64-agent perceptive workload, with
    bit-exact agreement (checked inside the shootout).  Writes the
    machine-readable report to BENCH_simulator.json."""
    report = shootout_report("simulator")
    print("\nbackend shootout:", json.dumps(report["seconds"]),
          f"speedup={report['speedup_lattice_over_fraction']}x")
    assert report["bit_exact"] is True
    assert report["speedup_lattice_over_fraction"] >= 5.0


def test_full_pipeline_throughput(benchmark):
    """Wall-clock of a complete perceptive LD solve at n = 32."""
    from repro.api.session import RingSession
    from repro.types import Model

    def run():
        state = random_configuration(32, seed=7, common_sense=False)
        return RingSession.from_state(state, model=Model.PERCEPTIVE).run(
            "location-discovery"
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    assert result.rounds_by_phase["discovery"] == 19
