"""Run-store benchmark: warm fetches and sweep dedup vs. recompute.

Deterministic runs make results pure functions of their
backend-independent spec, so the content-addressed run store
(:mod:`repro.store`) can serve a repeated sweep without recomputing a
single round.  This module runs the cache shootout -- an 8-ring
location-discovery sweep fetched warm vs. recomputed, plus a
4-distinct x 4-duplicate sweep deduplicated against a fresh store --
and writes the machine-readable ``BENCH_cache.json`` report to the
repo root next to ``BENCH_fleet.json``.

Bit-exactness is a hard gate enforced *before* any timing (inside the
``cache`` entry of :data:`~repro.experiments.harness.SHOOTOUTS`):
fetched payloads must equal recomputed ones, and a fraction-backend /
callback-driver variant sweep must be served by the very same entries
-- the key's backend-independence in action.  The speedup gates are deliberately
conservative: a warm fetch skips the whole simulation, so anything
under 20x would mean the store itself got expensive; intra-sweep dedup
of a 4-duplicate sweep computes a quarter of the work, so it must win
>= 1.5x even with store overhead.
"""

from __future__ import annotations

import json


def test_cache_shootout_warm_and_dedup(shootout_report):
    """Warm fetches >= 20x over recompute; 4-dupe sweep dedup >= 1.5x;
    bit-identity enforced before any timed region."""
    report = shootout_report("cache")
    print("\ncache shootout:", json.dumps(report["seconds"]),
          f"warm={report['warm_speedup']}x "
          f"dedup={report['dedup_speedup']}x")
    assert report["bit_exact"] is True
    assert report["entries"] == 8
    # A warm hit replaces an entire protocol run with a store read.
    assert report["warm_speedup"] >= 20.0
    # 4 duplicates per key: a quarter of the compute, so the dedup
    # path must clearly beat recomputing every row.
    assert report["dedup_speedup"] >= 1.5
