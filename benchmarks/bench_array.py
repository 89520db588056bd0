"""Array-backend vs lattice-backend shootout on large rings.

PR 1 made round arithmetic integer (lattice backend) and PR 3 made
protocol decisions whole-population (native policies), but the lattice
backend still advances one round at a time and materialises per-agent
observations every round, so n >= 10^4 rings stay Python-loop-bound.
The array backend executes *fused stretches* -- probe/restore pairs,
bit-exchange frames -- as single closed-form vectorised steps over
numpy columns, materialising per-agent objects only when read.  This
module times the two backends on the identical workload (deterministic
rotation probes + neighbor discovery + sparse relay flood, the paper's
hot probe/communication phases) across an n sweep, with bit-exact
agreement enforced before any timing (against the exact Fraction
backend at the smallest size), and writes the machine-readable
``BENCH_array.json`` report to the repo root so successive PRs can
track the trajectory next to the other ``BENCH_*.json`` reports.

Runs in the ``--bench-fast`` smoke suite (not ``bench_heavy``).
"""

from __future__ import annotations

import json

#: Floor for the headline (n = 16384) array-over-lattice speedup.  Both
#: backends run the same rounds in the same process, so the ratio is
#: pure execution-layer overhead and holds on any host; measured values
#: are far higher, the gate leaves slack for noisy CI neighbors.
MIN_SPEEDUP_AT_16384 = 3.0

#: Floor at the smallest swept size: fused execution must already pay
#: for its own bookkeeping at n = 1024.
MIN_SPEEDUP_AT_1024 = 1.2


#: Without numpy the fused path degrades to stdlib-array buffers at
#: roughly lattice speed; the sweep then only gates "no regression"
#: (bit-exactness stays a hard gate on both axes).
MIN_SPEEDUP_FALLBACK = 0.8


def test_array_shootout_n_sweep(shootout_report):
    """1024/4096/16384-agent sweep: determinism is a hard gate; the
    speedup gates apply at the smallest and largest sizes when numpy is
    available (the committed report is generated with numpy)."""
    report = shootout_report("array")
    for row in report["sweep"]:
        print(
            f"\narray shootout n={row['n']}: {json.dumps(row['seconds'])} "
            f"speedup={row['speedup_array_over_lattice']}x"
        )
    assert report["bit_exact"] is True
    # The Fraction cross-check really ran, at the smallest size.
    assert report["workload"]["fraction_checked_at"] == 1024
    by_n = {row["n"]: row for row in report["sweep"]}
    assert set(by_n) == {1024, 4096, 16384}
    if report["numpy"] is not None:
        assert (
            by_n[16384]["speedup_array_over_lattice"]
            >= MIN_SPEEDUP_AT_16384
        )
        assert (
            by_n[1024]["speedup_array_over_lattice"] >= MIN_SPEEDUP_AT_1024
        )
        floor = 1.0  # vectorised execution must never lose outright
    else:
        floor = MIN_SPEEDUP_FALLBACK
    for row in report["sweep"]:
        assert row["speedup_array_over_lattice"] >= floor
