"""Native-policy vs per-agent-callback driver shootout.

The protocol layer's hot loop used to be per-agent Python: every round
of every phase driver dispatched one ``ChoiceFn`` call per agent plus a
stack of per-agent memory-dict operations.  The native policies of
:mod:`repro.protocols.policies` compute each round's whole direction
vector in one ``decide()`` from columnar state.  This module times the
two drivers on the identical workload (neighbor discovery + sparse
relay flood, the paper's hot communication phases) across an n sweep on
the lattice backend, with bit-exact agreement enforced before any
timing, and writes the machine-readable ``BENCH_policies.json`` report
to the repo root so successive PRs can track the trajectory next to
``BENCH_simulator.json`` and ``BENCH_fleet.json``.

Runs in the ``--bench-fast`` smoke suite (not ``bench_heavy``).
"""

from __future__ import annotations

import json

#: Floor for the headline (n = 1024) native-over-callback speedup.  The
#: two drivers run the same rounds on the same backend, so the ratio is
#: pure protocol-layer overhead and holds on any host; measured values
#: are ~1.3-2x, the gate leaves slack for noisy CI neighbors.
MIN_SPEEDUP_AT_1024 = 1.1


def test_policy_shootout_n_sweep(shootout_report):
    """64/256/1024-agent sweep: determinism is a hard gate; the headline
    speedup gate applies at the largest size."""
    report = shootout_report("policies")
    for row in report["sweep"]:
        print(
            f"\npolicy shootout n={row['n']}: {json.dumps(row['seconds'])} "
            f"speedup={row['speedup_native_over_callback']}x"
        )
    assert report["bit_exact"] is True
    by_n = {row["n"]: row for row in report["sweep"]}
    assert set(by_n) == {64, 256, 1024}
    assert (
        by_n[1024]["speedup_native_over_callback"] >= MIN_SPEEDUP_AT_1024
    )
    # The native driver must never lose outright at any size.
    for row in report["sweep"]:
        assert row["speedup_native_over_callback"] >= 0.9
