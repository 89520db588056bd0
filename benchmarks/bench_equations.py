"""Fraction-free equation engine shootout on the analysis hot paths.

The data-dependent phases spend their time in exact linear algebra:
Algorithm 6 feeds every round's dist/coll observations into per-agent
equation systems, and the LD sweeps accumulate per-round gap columns.
The spec engines materialise a ``Fraction`` per cell and eliminate over
the field.  ``IntEquationSystem`` instead treats each window equation
as an edge between two prefix sums and keeps a weighted union-find over
integer numerators on the backends' shared denominator, and the
columnar ``_GapHarvest`` keeps the sweep harvest as an int matrix with
Fractions materialised only on read.

This module times ``engine="int"`` (the default auto path) against
``engine="fraction"`` (the untouched spec engines) on the identical
native array-backend workload, with bit-exact agreement -- exact
``Fraction`` equality on every agent's gap vector -- enforced at every
size before any timing, and writes the machine-readable
``BENCH_equations.json`` report to the repo root.

Runs in the ``--bench-fast`` smoke suite (not ``bench_heavy``).
"""

from __future__ import annotations

import json

#: Floor for the headline int-over-Fraction speedup on Algorithm 6 at
#: the largest benched n.  The spec engine's time grows ~n^3 over a
#: discovery while the union-find's grows ~n^2 (n agents, O(n)
#: near-constant adds each), so the ratio widens with n; 10x at n=96
#: sits well under the measured margin and still fails if the engine
#: falls back to elimination.
MIN_DISTANCES_SPEEDUP_AT_LARGEST = 10.0

#: Smaller distances sizes still beat the spec engine, but the shared
#: schedule/simulation work dilutes the ratio.
MIN_DISTANCES_SPEEDUP_FLOOR = 1.2

#: The sweeps' harvest is a smaller slice of each round, so the floor
#: only gates "the columnar harvest never loses".
MIN_SWEEPS_SPEEDUP_FLOOR = 1.0

#: Without numpy both engines run over stdlib buffers; int arithmetic
#: still wins but the margin narrows, so the fallback axis only gates
#: "no regression" (bit-exactness stays a hard gate on both axes).
MIN_SPEEDUP_FALLBACK = 0.8


def test_equations_shootout(shootout_report):
    """Distances at 24/48/96 + sweeps at 256/1024: bit-exact agreement
    between the int and Fraction engines is a hard gate at every size;
    the speedup gates apply when numpy is available (the committed
    report is generated with numpy)."""
    report = shootout_report("equations")
    for kind in ("distances", "sweeps"):
        for row in report[kind]:
            print(
                f"\nequations shootout {kind} n={row['n']}: "
                f"{json.dumps(row['seconds'])} "
                f"speedup={row['speedup_int_over_fraction']}x"
            )
    assert report["bit_exact"] is True
    # The cross-engine fingerprint checks really ran at every size.
    checked = report["workload"]["bit_exact_checked_at"]
    assert checked["distances"] == [24, 48, 96]
    assert checked["sweeps"] == [256, 1024]
    dist_by_n = {row["n"]: row for row in report["distances"]}
    sweep_by_n = {row["n"]: row for row in report["sweeps"]}
    assert set(dist_by_n) == {24, 48, 96}
    assert set(sweep_by_n) == {256, 1024}
    if report["numpy"] is not None:
        assert (
            dist_by_n[96]["speedup_int_over_fraction"]
            >= MIN_DISTANCES_SPEEDUP_AT_LARGEST
        )
        dist_floor = MIN_DISTANCES_SPEEDUP_FLOOR
        sweep_floor = MIN_SWEEPS_SPEEDUP_FLOOR
    else:
        dist_floor = sweep_floor = MIN_SPEEDUP_FALLBACK
    for row in report["distances"]:
        assert row["speedup_int_over_fraction"] >= dist_floor
    for row in report["sweeps"]:
        assert row["speedup_int_over_fraction"] >= sweep_floor
