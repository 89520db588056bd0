"""The benchmark's workloads and how one isolated iteration runs them.

This module imports nothing from the program at load time, so the
parent process (``run.py``) can read the workload table without paying
for, or being measured with, the program's imports.
"""

from __future__ import annotations

import os
import platform
import random
import resource
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from tracing import Tracer, peak_rss_mb

#: The workload seed when none is given.  ``digests.json`` also records
#: a second seed, kept aside for confirming a claimed gain.
DEFAULT_SEED = 2024

SWEEP_PROTOCOLS = (
    "coordination",
    "location-discovery",
    "contention-backoff",
    "contention-aloha",
)
SWEEP_MODELS = ("basic", "lazy", "perceptive")
SWEEP_SIZES = (16, 33, 64)
SWEEP_SEEDS_PER_CELL = 8


@dataclass(frozen=True)
class Workload:
    name: str
    #: "session" drives one RingSession phase by phase; "fleet" runs a
    #: Fleet sweep.
    kind: str
    #: Address-space cap per process, well above the seed's peak, so a
    #: blow-up fails the session instead of exhausting the machine.
    mem_cap_mb: int
    n: int = 0
    model: str = ""
    backend: Optional[str] = None


WORKLOADS: Dict[str, Workload] = {
    # Why: RingDist plus Algorithm 6 (one equation system per agent) is
    # ~91% of the time and all of the memory.  Stresses analysis and the
    # discovery phase; bypasses the lazy sweep and the fleet.  Array is
    # pinned: lattice already takes 34 s at n=256.
    "ld-perceptive": Workload(
        "ld-perceptive", "session", mem_cap_mb=4096,
        n=512, model="perceptive", backend="array",
    ),
    # Why: speculative fused sweeps (ring), leader-election decides
    # (policies) and lazy gap-column collect (population).  Builds zero
    # equation systems, so it bypasses analysis: work there must not
    # move it.
    "ld-lazy": Workload(
        "ld-lazy", "session", mem_cap_mb=4096,
        n=4096, model="lazy", backend="array",
    ),
    # Why: per-session orchestration, short spans and scalar rounds in
    # scheduler/ring (contention protocols), the Fraction equation
    # system, result serialisation and the warm pool (one worker), on
    # the default backend and driver.  Bypasses the array backend's
    # fused paths unless the default backend changes.
    "sweep-small": Workload(
        "sweep-small", "fleet", mem_cap_mb=2048,
    ),
}


def derive_seeds(seed: int, label: str, count: int) -> List[int]:
    """``count`` ring seeds derived from the workload seed."""
    rng = random.Random(f"{label}:{seed}")
    return [rng.randrange(2 ** 31) for _ in range(count)]


def sweep_cells(seed: int) -> List[Tuple[str, str, int, int]]:
    """(protocol, model, n, ring seed) of every feasible sweep session.

    Location discovery in the basic model with even n is impossible
    (Lemma 5), so those cells are skipped: 288 - 16 = 272 sessions.
    Each cell draws its own ring seeds, so that the total of rounds
    varies less from one workload seed to the next.
    """
    return [
        (protocol, model, n, ring_seed)
        for protocol in SWEEP_PROTOCOLS
        for model in SWEEP_MODELS
        for n in SWEEP_SIZES
        if not (protocol == "location-discovery" and model == "basic"
                and n % 2 == 0)
        for ring_seed in derive_seeds(
            seed, f"sweep-small:{protocol}:{model}:{n}",
            SWEEP_SEEDS_PER_CELL,
        )
    ]


def session_count(workload: Workload, seed: int) -> int:
    return len(sweep_cells(seed)) if workload.kind == "fleet" else 1


def _meta(backend: str, driver: str) -> Dict[str, object]:
    from repro.ring.arrayops import get_numpy

    np = get_numpy()
    return {
        "backend": backend,
        "driver": driver,
        "numpy": None if np is None else np.__version__,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
    }


def run_iteration(workload: Workload, seed: int, mode: str,
                  t0: float, want_digest: bool) -> Dict[str, object]:
    """One iteration in this (fresh) process.

    ``mode`` is ``setup`` (set up, then stop), ``plain`` (the measured
    configuration), ``serial`` (the fleet on the in-process executor,
    untraced: the baseline for the traced fleet) or ``traced``
    (in-process, with every layer wrapped).  ``t0`` is when the process
    started running benchmark code; set-up is measured from it.  With
    ``want_digest`` the record carries the digest of the result's
    ``to_dict()`` document.
    """
    tracer = None
    if mode == "traced":
        tracer = Tracer()
        tracer.install()
    try:
        if workload.kind == "fleet":
            record = _run_fleet(workload, seed, mode, t0, want_digest)
        else:
            record = _run_session(workload, seed, mode, t0, want_digest)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        record["layers"] = tracer.metrics()
    return record


def _run_session(workload: Workload, seed: int, mode: str, t0: float,
                 want_digest: bool):
    from checks import check_gaps, check_result, digest
    from repro import RingSession

    (ring_seed,) = derive_seeds(seed, workload.name, 1)
    session = RingSession(
        n=workload.n, model=workload.model, backend=workload.backend,
        seed=ring_seed,
    )
    setup_s = time.perf_counter() - t0
    if mode == "setup":
        return {"ok": True, "sessions": 0, "setup_s": setup_s}
    start = time.perf_counter()
    session.start("location-discovery")
    while session.pending_phases:
        session.step()
    result = session.resume()
    run_s = time.perf_counter() - start
    peak = peak_rss_mb()
    if want_digest:
        # The iteration that carries the digest checks and digests the
        # real to_dict() document (traced iterations also time it).
        document = result.to_dict()
        error = check_result(document, session.state)
    else:
        # to_dict() costs ld-lazy twice its run time, so the other
        # iterations check the result's own Fractions.
        document = None
        error = check_gaps(result.gaps_by_agent,
                           session.state.initial_gaps())
    return {
        "ok": error is None,
        "error": error,
        "sessions": 1,
        "failed": 0 if error is None else 1,
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": peak,
        "rounds": result.rounds,
        "digest": digest(document) if want_digest else None,
        "meta": _meta(session.backend_name, session.driver),
    }


def _run_fleet(workload: Workload, seed: int, mode: str, t0: float,
               want_digest: bool):
    from checks import check_result, digest
    from repro import Fleet, random_configuration
    from repro.api.fleet import SessionSpec
    from repro.api.registry import DEFAULT_DRIVER
    from repro.parallel.pool import shutdown_pools
    from repro.ring.backends import DEFAULT_BACKEND

    specs = [
        SessionSpec(n=n, protocol=protocol, model=model,
                    backend=DEFAULT_BACKEND, seed=ring_seed,
                    driver=DEFAULT_DRIVER)
        for protocol, model, n, ring_seed in sweep_cells(seed)
    ]
    # One pool worker keeps one core busy, like the ld-* workloads: with
    # two, the wall time on a shared two-core host depends on both
    # cores being free at once and spreads too far from run to run.
    workers = 1
    fleet = Fleet(
        specs, workers=workers,
        executor="serial" if mode in ("serial", "traced") else "process",
        cache=False,
    )
    warm_start = time.perf_counter()
    fleet.warm()
    pool_warm_s = time.perf_counter() - warm_start
    setup_s = time.perf_counter() - t0
    if mode == "setup":
        shutdown_pools()
        return {"ok": True, "sessions": 0, "setup_s": setup_s}
    start = time.perf_counter()
    report = fleet.run()
    run_s = time.perf_counter() - start
    # Reaps the workers, so their peaks reach RUSAGE_CHILDREN.
    shutdown_pools()
    peak = max(peak_rss_mb(), peak_rss_mb(resource.RUSAGE_CHILDREN))
    errors = []
    for row in report.results:
        spec = row["spec"]
        state = random_configuration(
            spec["n"], seed=spec["seed"], common_sense=False
        )
        error = check_result(row["result"], state)
        if error is not None:
            errors.append(f"{spec}: {error}")
    return {
        "ok": not errors and len(report.results) == len(specs),
        "error": "; ".join(errors[:3]) or None,
        "sessions": len(specs),
        "failed": len(errors) + len(specs) - len(report.results),
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": peak,
        "rounds": sum(row["result"]["rounds"] for row in report.results),
        # Results only: rows also carry each spec's backend and driver,
        # which do not change results and are reported in ``meta``.
        "digest": (digest([row["result"] for row in report.results])
                   if want_digest else None),
        "pool_warm_s": pool_warm_s,
        "workers": fleet.workers,
        "meta": _meta(DEFAULT_BACKEND, DEFAULT_DRIVER),
    }
