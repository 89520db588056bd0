"""Speculative-stretch shootout on the data-dependent phases.

PR 4's fused stretches covered spans whose direction vectors are known
up front; the paper's *data-dependent* phases -- the location-discovery
sweeps (agents stop when the collected gaps first sum to a full turn)
and the Convolution/Pivot schedule of Algorithm 6 (done when every
equation system reaches full rank) -- still ran scalar.  This PR's
speculative stretches fix that: the policy plans an optimistic span
plus a per-round stop predicate over the observation columns, and the
backend cuts the committed span back to the predicate's firing round
(a rotation-offset rewind under lazy position commits).

This module times lattice vs array on the identical sweep + Distances
workload across an n sweep, with bit-exact agreement enforced before
any timing (array vs lattice at every size; native vs callback drivers
and the exact Fraction backend at the smallest size), and writes the
machine-readable ``BENCH_speculative.json`` report to the repo root.

Runs in the ``--bench-fast`` smoke suite (not ``bench_heavy``).
"""

from __future__ import annotations

import json

#: Floor for the headline (largest n) array-over-lattice speedup.  The
#: workload deliberately includes Algorithm 6 at a fixed small n, whose
#: equation solve is backend-independent and dilutes the ratio, so the
#: gate is the honest combined-workload number, not the sweeps' peak.
MIN_SPEEDUP_AT_LARGEST = 1.5

#: The smaller sizes only gate "vectorised execution never loses":
#: the shared Fraction-side work (equation systems, circulant inverse)
#: dominates there.
MIN_SPEEDUP_FLOOR = 1.0

#: Without numpy the speculative path runs over stdlib-array buffers at
#: roughly lattice speed; the sweep then only gates "no regression"
#: (bit-exactness stays a hard gate on both axes).
MIN_SPEEDUP_FALLBACK = 0.8


def test_speculative_shootout_n_sweep(shootout_report):
    """256/1024 sweep: determinism (vs callback drivers and vs the
    Fraction backend) is a hard gate; the speedup gates apply when
    numpy is available (the committed report is generated with
    numpy)."""
    report = shootout_report("speculative")
    for row in report["sweep"]:
        print(
            f"\nspeculative shootout n={row['n']}: "
            f"{json.dumps(row['seconds'])} "
            f"speedup={row['speedup_array_over_lattice']}x"
        )
    assert report["bit_exact"] is True
    # The cross-driver and cross-backend checks really ran.
    assert report["workload"]["callback_checked_at"] == 256
    assert report["workload"]["fraction_checked_at"] == 256
    by_n = {row["n"]: row for row in report["sweep"]}
    assert set(by_n) == {256, 1024}
    if report["numpy"] is not None:
        assert (
            by_n[1024]["speedup_array_over_lattice"]
            >= MIN_SPEEDUP_AT_LARGEST
        )
        floor = MIN_SPEEDUP_FLOOR
    else:
        floor = MIN_SPEEDUP_FALLBACK
    for row in report["sweep"]:
        assert row["speedup_array_over_lattice"] >= floor
