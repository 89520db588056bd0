"""End-to-end benchmark of the ring simulator's public API.

    python3 perfbench/run.py --workload ld-perceptive --seed 2024 \\
        --seconds 40 --trace 0

Each iteration runs in a fresh process under an address-space cap.  A
run first sets the workload up a few times (for ``setup_s``), then
repeats the workload for about ``--seconds`` seconds.  Every result is
checked against the ring it started from; result digests (one per
untraced run, one per traced iteration) are checked against the one
recorded for the seed (``digests.json``).  The last line of output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
line before it holds the run's metadata (backend, driver, numpy, cpus,
Python).

With ``--trace 0`` the metrics are the end-to-end ones, medians over
the iterations.  With ``--trace 1`` untraced and traced iterations
alternate and the metrics are the per-layer ones (``tracing.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import PER_LAYER  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    WORKLOADS,
    Workload,
    session_count,
)

#: Every run, iterations included, ends within this many seconds.
RUN_LIMIT_S = 170.0

#: Set-up-only iterations per run (besides each iteration's own).
SETUP_SAMPLES = 5

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rounds": "rounds",
    "sessions_per_s": "1/s",
    "ok_frac": "ratio",
}
PER_LAYER_UNITS = {name: unit for name, unit, _better in PER_LAYER}

Record = Dict[str, object]


def run_child(workload: Workload, seed: int, mode: str, want_digest: bool,
              timeout: float) -> Record:
    """One iteration in a fresh, memory-capped process group."""
    cap = workload.mem_cap_mb << 20

    def limit_memory() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(HERE / "iteration.py"),
           "--workload", workload.name, "--seed", str(seed),
           "--mode", mode, "--digest", str(int(want_digest))]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        preexec_fn=limit_memory, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        # The group holds the fleet's pool workers too.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"ok": False, "error": f"timed out after {timeout:.0f} s"}
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"ok": False, "error": f"exit code {proc.returncode}"}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"ok": False, "error": "no result record"}


def measure(workload: Workload, seed: int, seconds: float,
            trace: bool) -> Dict[str, List[Record]]:
    """Iterations by mode: the set-up samples, then cycles through the
    modes until the next cycle would end after ``seconds`` (at least
    one cycle).  Traced iterations carry the result digest; an untraced
    run starts with one plain iteration that carries it, outside the
    cycles, so that every cycle costs the same."""
    if not trace:
        modes = ["plain"]
    elif workload.kind == "fleet":
        modes = ["plain", "serial", "traced"]
    else:
        modes = ["plain", "traced"]
    start = time.monotonic()

    def child(mode: str, want_digest: bool) -> Record:
        left = RUN_LIMIT_S - (time.monotonic() - start)
        return run_child(workload, seed, mode, want_digest, left)

    records: Dict[str, List[Record]] = {
        "setup": [child("setup", False) for _ in range(SETUP_SAMPLES)]
    }
    records.update({mode: [] for mode in modes})
    if not trace:
        records["plain"].append(child("plain", True))
    while True:
        cycle_start = time.monotonic()
        for mode in modes:
            records[mode].append(child(mode, mode == "traced"))
        now = time.monotonic()
        if now - start + (now - cycle_start) > min(seconds, RUN_LIMIT_S):
            return records


def _median(records: List[Record], key: str) -> float:
    return statistics.median(float(r[key]) for r in records)  # type: ignore[arg-type]


def end_to_end(good: Dict[str, List[Record]], ok_frac: float
               ) -> Dict[str, float]:
    plain = good["plain"]
    return {
        "run_s": _median(plain, "run_s"),
        "setup_s": _median(good["setup"] + plain, "setup_s"),
        "peak_rss_mb": _median(plain, "peak_rss_mb"),
        "rounds": _median(plain, "rounds"),
        "sessions_per_s": statistics.median(
            float(r["sessions"]) / float(r["run_s"]) for r in plain  # type: ignore[arg-type]
        ),
        "ok_frac": ok_frac,
    }


def per_layer(good: Dict[str, List[Record]]) -> Dict[str, float]:
    plain, traced = good["plain"], good["traced"]
    metrics = {
        name: statistics.median(float(r["layers"][name]) for r in traced)  # type: ignore[index]
        for name in traced[0]["layers"]  # type: ignore[union-attr]
    }
    # The fleet's traced iterations run in-process, so their untraced
    # baseline is the in-process (serial) fleet, not the pooled one.
    untraced_s = _median(good.get("serial", plain), "run_s")
    metrics["trace_overhead_share"] = (
        _median(traced, "run_s") - untraced_s
    ) / untraced_s
    if "serial" in good:
        metrics["fleet.pool_warm_s"] = _median(plain, "pool_warm_s")
        metrics["fleet.worker_busy_share"] = untraced_s / (
            float(plain[0]["workers"]) * _median(plain, "run_s")  # type: ignore[arg-type]
        )
    else:
        metrics["fleet.pool_warm_s"] = 0.0
        metrics["fleet.worker_busy_share"] = 0.0
    return {name: metrics[name] for name in PER_LAYER_UNITS}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    records = measure(workload, args.seed, args.seconds, bool(args.trace))
    digests = json.loads((HERE / "digests.json").read_text())["digests"]
    reference = digests.get(workload.name, {}).get(str(args.seed))
    sessions = session_count(workload, args.seed)

    # Operations are the sessions run plus the set-ups made.  An
    # iteration fails when a session fails its checks, the process dies
    # or hits its memory cap, or its digest differs from the recorded
    # one (for a seed with none recorded: from the first digest).
    attempted = failed = 0
    for mode, mode_records in records.items():
        for record in mode_records:
            size = 1 if mode == "setup" else sessions
            attempted += size
            if record.get("ok") and record.get("digest"):
                reference = reference or record["digest"]
                if record["digest"] != reference:
                    record.update(ok=False, error="result digest differs "
                                  f"from {reference}")
            if not record.get("ok"):
                failed += int(record.get("failed") or size)  # type: ignore[arg-type]
                print(f"failed {mode} iteration: {record.get('error')}",
                      file=sys.stderr)
    good = {m: [r for r in rs if r["ok"]] for m, rs in records.items()}
    rounds = {r["rounds"] for m, rs in good.items() if m != "setup"
              for r in rs}
    correct = failed == 0 and len(rounds) == 1

    metrics: Dict[str, float] = {}
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    if all(good.values()):
        if args.trace:
            metrics = per_layer(good)
        else:
            metrics = end_to_end(good, 1.0 - failed / attempted)
        meta = dict(good["plain"][0]["meta"])  # type: ignore[arg-type]
        meta.update(
            workload=workload.name, seed=args.seed, digest=reference,
            run_s_samples={m: [r["run_s"] for r in rs]
                           for m, rs in good.items() if m != "setup"},
            setup_s_samples=[r["setup_s"] for r in good["setup"]],
        )
        print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
