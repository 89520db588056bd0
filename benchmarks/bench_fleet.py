"""Fleet execution benchmark: warm process pools vs. serial.

The Fleet runner executes independent sessions across the persistent
warm pools of :mod:`repro.parallel`: pools are spawned once and reused,
specs and result rows travel on the pool's own pickle channel, and
:meth:`~repro.api.fleet.Fleet.warm` runs before the timed repeats so
pool spin-up never lands in a timed region (the historic
``BENCH_fleet.json`` regression -- 0.83x "speedup" -- was exactly that
spin-up being timed).  This module runs the fleet shootout -- a 16-ring
location-discovery sweep, serial vs. the warm pools along a
per-worker-count scaling curve, bit-identical results enforced -- and
writes the machine-readable ``BENCH_fleet.json`` report to the repo
root so successive PRs can track the scaling trajectory next to
``BENCH_simulator.json``.

The speedup gate is honest about hardware: with 2+ CPUs the warm pool
must deliver real parallel speedup (>= 1.5x); on a single-CPU host it
only has to stay at least even with serial (>= 0.95x -- the pool adds
nothing but must no longer cost anything either).  ``cpu_count`` is
recorded in the report either way.
"""

from __future__ import annotations

import json
import os


def test_fleet_shootout_16_rings(shootout_report):
    """16 rings, warm pools at 1/2/4 workers: determinism is a hard
    gate everywhere; the parallel-speedup gate applies where the
    hardware can express it."""
    report = shootout_report("fleet")
    print("\nfleet shootout:", json.dumps(report["seconds"]),
          f"speedup={report['parallel_speedup']}x "
          f"(cpus={report['cpu_count']})")
    print("scaling:", json.dumps(report["scaling"]))
    assert report["deterministic_across_executors"] is True
    assert report["warm_pool"] is True
    assert [row["workers"] for row in report["scaling"]] == [1, 2, 4]
    # Every scaling row records the host CPU count so a single row
    # quoted out of context still reads honestly.
    assert all(row["cpu_count"] == (os.cpu_count() or 1)
               for row in report["scaling"])
    cpus = os.cpu_count() or 1
    if cpus >= 2:
        # Warm pools must deliver real parallel speedup on multicore.
        assert report["parallel_speedup"] >= 1.5
    else:
        # Single CPU: the pool cannot win, but with spin-up excluded
        # it must at least break even.
        assert report["parallel_speedup"] >= 0.95
