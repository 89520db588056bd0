"""E11: NMoveS scaling (Lemma 36) -- O(√n log N) in the perceptive model.

The perceptive model breaks the Ω(n log(N/n)/log n) barrier: NMoveS's
round count must grow clearly slower than linearly in n.  We measure
the full algorithm (forcing the machinery by using common-chirality
rings, whose all-RIGHT probe is always trivial) across a sweep of n.
"""

from __future__ import annotations

from repro.combinatorics import bounds
from repro.core.scheduler import Scheduler
from repro.experiments import render_table
from repro.experiments.harness import ExperimentRow
from repro.protocols.nmove_perceptive import nmove_perceptive
from repro.ring.configs import random_configuration
from repro.types import Model


def measure(n: int, seed: int = 3, backend: str = None) -> ExperimentRow:
    state = random_configuration(n, seed=seed, common_sense=True)
    sched = Scheduler(state, Model.PERCEPTIVE, backend=backend)
    stats = nmove_perceptive(sched)
    return ExperimentRow(
        label="NMoveS (common chirality, worst-case path)",
        params={"n": n, "N": state.id_bound},
        measured={
            "rounds": stats["rounds"],
            "levels": stats["levels"],
            "family_probes": stats["family_probes"],
        },
        reference={"sqrt_bound": bounds.nmove_perceptive_bound(
            state.id_bound, n
        )},
    )


def test_nmove_scaling_sublinear(once):
    rows = once(lambda: [measure(n) for n in (8, 16, 32, 64)])
    print("\n" + render_table(rows, "LEMMA 36 -- NMoveS scaling"))
    # Shape: rounds / (√n log N) bounded by a constant band across the
    # sweep (allowing the 2^k staircase a factor).
    ratios = [
        r.measured["rounds"] / r.reference["sqrt_bound"] for r in rows
    ]
    print("rounds / (√n log N):", [round(x, 2) for x in ratios])
    assert max(ratios) <= 8 * min(ratios)
    # And strictly below the basic-model lower-bound curve at scale:
    # Ω(n log(N/n)/log n) would dwarf these counts for large n.  The
    # comparison is meaningful only as a trend; assert the measured
    # growth from n=8 to n=64 (8x) stays below 8x.
    assert rows[-1].measured["rounds"] <= 8 * rows[0].measured["rounds"]


def test_nmove_backends_agree_and_array_wins(once):
    """Both kinematics backends drive NMoveS to identical statistics;
    the array backend does it faster on the n = 64 instance."""
    import time

    def run():
        timings = {}
        rows = {}
        for backend in ("fraction", "array"):
            best = float("inf")
            for _ in range(3):  # best-of-3: robust to scheduler noise
                start = time.perf_counter()
                rows[backend] = measure(64, backend=backend)
                best = min(best, time.perf_counter() - start)
            timings[backend] = best
        return rows, timings

    rows, timings = once(run)
    assert rows["fraction"].measured == rows["array"].measured
    speedup = timings["fraction"] / timings["array"]
    print(f"\nNMoveS n=64 backend timings: "
          f"fraction={timings['fraction']:.4f}s "
          f"array={timings['array']:.4f}s ({speedup:.1f}x)")
    # The protocol spends rounds outside kinematics too, so the bar is
    # lower than the raw shootout's 5x.
    assert speedup > 1.0


def test_nmove_level_count_logarithmic(once):
    rows = once(lambda: [measure(n, seed=5) for n in (16, 64)])
    print("\nlevels:", {r.params["n"]: r.measured["levels"] for r in rows})
    for r in rows:
        n = r.params["n"]
        # Levels ~ log2(√n) + O(1).
        assert r.measured["levels"] <= (n.bit_length() + 1) // 2 + 3
