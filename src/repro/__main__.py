"""Command-line interface: run protocols, sweep fleets, and regenerate
the paper's tables and figures.

Usage::

    python -m repro run [coordination|location-discovery] [--n 8]
                        [--model perceptive] [--seed 2024]
                        [--backend array|fraction]
                        [--common-sense]
                        [--driver native|callback] [--json]
                        [--cache|--no-cache] [--cache-dir DIR]
                        [--faults PLAN|@file.json]
    python -m repro sweep [--protocol location-discovery]
                          [--sizes 8,16] [--seeds 0,1,2,3]
                          [--models perceptive] [--backends array]
                          [--driver native|callback] [--workers 4]
                          [--executor process] [--out X.json]
                          [--cache|--no-cache] [--cache-dir DIR]
                          [--faults PLAN|@file.json]
    python -m repro cache stats|verify|clear [--cache-dir DIR]
                                             [--sample N]
    python -m repro table1 [--odd 9,17,33] [--even 8,16,32] [--seed 1]
                           [--backend array|fraction] [--json]
    python -m repro table2 [--backend ...] [--json]
    python -m repro figures [--backend ...] [--json]
    python -m repro lower-bounds [--backend ...] [--json]
    python -m repro demo [--n 8] [--model perceptive] [--seed 2024]
                         [--backend array|fraction]
    python -m repro bench simulator|policies|array|speculative|equations|
                          fleet|cache [--sizes LIST] [--out PATH]

``run`` with no protocol lists the registry.  Exit status: 0 on
success; 1 for a fault ``run`` detects under ``--faults`` or for
``lint`` findings; 2 for input that cannot run (one ``repro: error:``
line); 3 when a run runs out of memory (one ``repro: error: out of
memory`` line); 141 (128 + SIGPIPE) when the reader closes stdout
early (``run --json | head``), silently.  All structured output
(``--json``, ``sweep``) uses exact ``"p/q"`` strings for rationals.
``--cache`` (or ``REPRO_CACHE=1``) serves repeated runs from the
content-addressed run store; fetched results are bit-identical to
computed ones.  ``bench NAME`` prints the ``BENCH_NAME.json`` report
(``--out`` also writes it; the note goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import islice
from typing import List, Optional

from repro.exceptions import (
    ConfigurationError,
    InfeasibleProblemError,
    ProtocolError,
    ReproError,
)
from repro.ring.backends import BACKEND_NAMES, DEFAULT_BACKEND

#: Input that cannot run (unknown names, unrunnable sizes, infeasible
#: settings): one ``repro: error:`` line and exit status 2.
_USAGE_ERRORS = (ConfigurationError, InfeasibleProblemError, ProtocolError)


def _sizes(spec: str) -> List[int]:
    try:
        return [int(part) for part in spec.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {spec!r}"
        ) from None


def _names(spec: str) -> List[str]:
    return [part.strip() for part in spec.split(",") if part.strip()]


def _print_json(payload: object) -> None:
    """Print ``payload`` as ``json.dumps(payload, indent=2)`` would,
    without building the whole document: the encoder's chunks are
    written in batches of 65536 (one write per chunk is slower still).
    """
    chunks = json.JSONEncoder(indent=2).iterencode(payload)
    write = sys.stdout.write
    while True:
        batch = "".join(islice(chunks, 65536))
        if not batch:
            break
        write(batch)
    write("\n")


def _emit_rows(args: argparse.Namespace, rows, title: str) -> None:
    """Render experiment rows as a text table or, with --json, as JSON."""
    if getattr(args, "json", False):
        print(json.dumps(
            {"title": title, "rows": [r.to_dict() for r in rows]},
            indent=2,
        ))
    else:
        from repro.experiments import render_table

        print(render_table(rows, title))


def _cmd_table1(args: argparse.Namespace) -> None:
    from repro.experiments.table1 import generate

    rows = generate(
        odd_sizes=tuple(args.odd),
        even_sizes=tuple(args.even),
        seed=args.seed,
        backend=args.backend,
    )
    _emit_rows(args, rows,
               "TABLE I -- deterministic solutions, general setting")


def _cmd_table2(args: argparse.Namespace) -> None:
    from repro.experiments.table2 import generate

    rows = generate(
        odd_sizes=tuple(args.odd),
        even_sizes=tuple(args.even),
        seed=args.seed,
        backend=args.backend,
    )
    _emit_rows(args, rows, "TABLE II -- common sense of direction")


def _cmd_figures(args: argparse.Namespace) -> None:
    from repro.experiments.figures import reduction_edges, ringdist_anatomy

    edges = reduction_edges(n=args.n, seed=args.seed, backend=args.backend)
    anatomy = ringdist_anatomy(n=args.n, seed=args.seed,
                               backend=args.backend)
    if args.json:
        print(json.dumps({
            "figures_1_2": [r.to_dict() for r in edges],
            "figure_3": [r.to_dict() for r in anatomy],
        }, indent=2))
        return
    from repro.experiments import render_table

    print(render_table(edges, "FIGURES 1-2 -- reduction edges"))
    print()
    print(render_table(anatomy, "FIGURE 3 -- RingDist labelling progress"))


def _cmd_lower_bounds(args: argparse.Namespace) -> None:
    from repro.experiments.lower_bounds import (
        distinguisher_sizes,
        lemma5_witness,
        lemma6_floors,
    )

    lemma5 = [lemma5_witness(8)]
    lemma6 = lemma6_floors(args.seed, backend=args.backend)
    cor29 = distinguisher_sizes()
    if args.json:
        print(json.dumps({
            "lemma5": [r.to_dict() for r in lemma5],
            "lemma6": [r.to_dict() for r in lemma6],
            "cor29": [r.to_dict() for r in cor29],
        }, indent=2))
        return
    from repro.experiments import render_table

    print(render_table(lemma5, "LEMMA 5 -- parity witness"))
    print()
    print(render_table(lemma6, "LEMMA 6 -- LD floors"))
    print()
    print(render_table(cor29, "COR 29 -- distinguisher sizes"))


def _cmd_run(args: argparse.Namespace) -> None:
    from repro.api import RingSession, list_protocols

    if args.protocol is None:
        if args.json:
            print(json.dumps({
                "protocols": [
                    {"name": spec.name, "description": spec.description}
                    for spec in list_protocols()
                ],
            }, indent=2))
            return
        print("registered protocols:")
        for spec in list_protocols():
            print(f"  {spec.name:20s} {spec.description}")
        return

    faults = _parse_faults(args)
    if faults is not None:
        try:
            faults.validate_for(args.n)
        except ConfigurationError as exc:
            args.parser.error(f"--faults: {exc}")
    from repro.store.service import resolve_cache

    session = RingSession(
        n=args.n,
        model=args.model,
        backend=args.backend,
        seed=args.seed,
        common_sense=args.common_sense,
        driver=args.driver,
        cache=resolve_cache(args.cache),
        cache_dir=args.cache_dir,
        faults=faults,
    )
    try:
        result = session.run(args.protocol)
    except ReproError as exc:
        if session.faults is None:
            raise
        # Graceful degradation: a run the protocol's own checks abort
        # under an active fault plan is the "detect" outcome, reported
        # rather than treated as a usage error.
        if args.json:
            print(json.dumps({
                "protocol": args.protocol,
                "n": args.n,
                "faults": {
                    "plan": json.loads(session.faults.canonical()),
                    "outcome": "detected",
                    "error": type(exc).__name__,
                    "message": str(exc),
                },
            }, indent=2))
        else:
            print(f"fault detected by {args.protocol}: "
                  f"{type(exc).__name__}: {exc}")
        return 1
    phases = [
        {
            "name": name,
            "rounds": rounds,
            "driver": session.phase_drivers.get(name, session.driver),
        }
        for name, rounds in session.phase_rounds.items()
    ]
    if args.json:
        payload = {
            "protocol": args.protocol,
            "n": args.n,
            "model": args.model,
            "backend": session.backend_name,
            "seed": args.seed,
            "common_sense": args.common_sense,
            "driver": session.driver,
            "phases": phases,
            "result": result.to_dict(),
        }
        if session.faults is not None:
            payload["faults"] = {
                "plan": json.loads(session.faults.canonical()),
                "outcome": "completed",
            }
        _print_json(payload)
        return
    print(f"n={args.n}, model={args.model}, N={session.state.id_bound}, "
          f"backend={session.backend_name}, driver={session.driver}")
    if session.faults is not None:
        print(f"fault plan active: {session.faults.canonical()}")
    print(f"{args.protocol} solved in {result.rounds} rounds:")
    for phase in phases:
        print(f"  {phase['name']:22s} {phase['rounds']:6d}  "
              f"[{phase['driver']}]")


def _cmd_sweep(args: argparse.Namespace) -> None:
    from repro.api import Fleet, get_protocol, sweep

    try:
        get_protocol(args.protocol)
    except ProtocolError as exc:
        args.parser.error(f"--protocol: {exc}")

    from repro.types import Model

    # Validate the comma-separated lists up front: a typo should be an
    # argparse-style error, not a traceback out of a pool worker.
    models = _names(args.models)
    backends = _names(args.backends)
    for flag, names, valid in (
        ("--models", models, sorted(m.value for m in Model)),
        ("--backends", backends, sorted(BACKEND_NAMES)),
    ):
        bad = [name for name in names if name not in valid]
        if bad:
            args.parser.error(
                f"{flag}: unknown {', '.join(bad)} "
                f"(choose from {', '.join(valid)})"
            )

    faults = _parse_faults(args)
    if faults is not None:
        for n in args.sizes:
            try:
                faults.validate_for(n)
            except ConfigurationError as exc:
                args.parser.error(f"--faults: {exc}")

    specs = sweep(
        protocol=args.protocol,
        sizes=args.sizes,
        seeds=args.seeds,
        models=models,
        backends=backends,
        common_sense=args.common_sense,
        driver=args.driver,
        faults=faults.canonical() if faults is not None else None,
    )
    fleet = Fleet(
        specs, workers=args.workers, executor=args.executor,
        cache=args.cache, cache_dir=args.cache_dir,
    )
    payload = fleet.run().to_json()
    print(payload)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
        print(f"wrote {args.out}", file=sys.stderr)


def _cmd_demo(args: argparse.Namespace) -> None:
    from repro import Model, RingSession

    model = Model(args.model)
    session = RingSession(
        n=args.n, model=model, seed=args.seed, backend=args.backend,
        common_sense=False,
    )
    print(f"n={args.n}, model={model.value}, N={session.state.id_bound}, "
          f"backend={args.backend}")
    result = session.run("location-discovery")
    print(f"location discovery solved in {result.rounds} rounds:")
    for phase, rounds in result.rounds_by_phase.items():
        print(f"  {phase:22s} {rounds:6d}")
    print("agent 0's reconstructed gaps:", result.gaps_by_agent[0])


def _cmd_bench(args: argparse.Namespace) -> None:
    from repro.experiments.harness import report_json, shootout, write_report

    report = shootout(args.name, args.sizes)
    sys.stdout.write(report_json(report))
    if args.out:
        write_report(report, args.out)
        print(f"wrote {args.out}", file=sys.stderr)


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.store.service import get_store, verify_entry

    store = get_store(args.cache_dir)
    if args.action == "stats":
        print(json.dumps(store.stats(), indent=2))
        return 0
    if args.action == "clear":
        removed = store.clear()
        print(json.dumps({
            "cleared": removed, "cache_dir": str(store.cache_dir),
        }, indent=2))
        return 0
    # verify: recompute stored entries and assert bit-equality.
    digests = list(store.iter_digests())
    if args.sample is not None:
        if args.sample < 1:
            args.parser.error("--sample must be >= 1")
        digests = digests[:args.sample]
    rows = [verify_entry(store, digest) for digest in digests]
    ok = all(row["ok"] for row in rows)
    print(json.dumps({
        "cache_dir": str(store.cache_dir),
        "verified": len(rows),
        "ok": ok,
        "rows": rows,
    }, indent=2))
    return 0 if ok else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.cli import run as lint_run

    return lint_run(args)


def _add_backend(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend", default=DEFAULT_BACKEND, choices=list(BACKEND_NAMES),
        help="kinematics backend for the simulation",
    )


def _add_driver(parser: argparse.ArgumentParser) -> None:
    from repro.api import DEFAULT_DRIVER, DRIVER_NAMES

    parser.add_argument(
        "--driver", default=DEFAULT_DRIVER, choices=list(DRIVER_NAMES),
        help="phase implementation: native whole-population policies "
        "or the legacy per-agent callback drivers (bit-exact)",
    )


def _model_choices() -> List[str]:
    from repro.types import Model

    return [m.value for m in Model]


def _add_json(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON instead of a text table",
    )


def _add_faults(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--faults", default=None, metavar="PLAN",
        help="fault plan as inline JSON or @file.json: crash-stop, "
        "byzantine and delayed agent slots plus a round budget "
        "(deterministic and seeded; see docs/ARCHITECTURE.md)",
    )


def _parse_faults(args: argparse.Namespace):
    """The --faults plan (or None), with argparse-style error handling."""
    spec = args.faults
    if spec is None:
        return None
    if spec.startswith("@"):
        path = spec[1:]
        try:
            with open(path) as fh:
                spec = fh.read()
        except OSError as exc:
            args.parser.error(f"--faults: cannot read {path}: {exc}")
    from repro.faults.plan import FaultPlan

    try:
        return FaultPlan.coerce(spec)
    except ConfigurationError as exc:
        args.parser.error(f"--faults: {exc}")


def _add_cache(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=None,
        help="compute-or-fetch against the content-addressed run store "
        "(default: on when REPRO_CACHE=1; fetched results are "
        "bit-identical to computed ones)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="run-store directory (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Deterministic Symmetry Breaking in "
        "Ring Networks' (ICDCS 2015)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="run a registered protocol on one ring "
        "(no protocol: list the registry)"
    )
    run.add_argument(
        "protocol", nargs="?", default=None,
        help="registry name, e.g. location-discovery or coordination",
    )
    run.add_argument("--n", type=int, default=8)
    run.add_argument(
        "--model", default="perceptive", choices=_model_choices(),
    )
    run.add_argument("--seed", type=int, default=2024)
    run.add_argument("--common-sense", action="store_true")
    _add_backend(run)
    _add_driver(run)
    _add_json(run)
    _add_cache(run)
    _add_faults(run)
    run.set_defaults(fn=_cmd_run)

    from repro.api.fleet import _EXECUTORS

    sw = sub.add_parser(
        "sweep", help="run a seed/size/model/backend sweep across a "
        "worker pool; emits a JSON RunReport"
    )
    sw.add_argument("--protocol", default="location-discovery")
    sw.add_argument("--sizes", type=_sizes, default="8,16")
    sw.add_argument("--seeds", type=_sizes, default="0,1,2,3")
    sw.add_argument("--models", default="perceptive")
    sw.add_argument("--backends", default=DEFAULT_BACKEND)
    sw.add_argument("--workers", type=int, default=None)
    sw.add_argument(
        "--executor", default="process", choices=list(_EXECUTORS),
    )
    sw.add_argument("--common-sense", action="store_true")
    _add_driver(sw)
    _add_cache(sw)
    _add_faults(sw)
    sw.add_argument(
        "--out", default=None, help="also write the JSON report to this path"
    )
    sw.set_defaults(fn=_cmd_sweep)

    t1 = sub.add_parser("table1", help="regenerate Table I")
    t1.add_argument("--odd", type=_sizes, default="9,17,33")
    t1.add_argument("--even", type=_sizes, default="8,16,32")
    t1.add_argument("--seed", type=int, default=1)
    _add_backend(t1)
    _add_json(t1)
    t1.set_defaults(fn=_cmd_table1)

    t2 = sub.add_parser("table2", help="regenerate Table II")
    t2.add_argument("--odd", type=_sizes, default="9,17")
    t2.add_argument("--even", type=_sizes, default="8,16")
    t2.add_argument("--seed", type=int, default=1)
    _add_backend(t2)
    _add_json(t2)
    t2.set_defaults(fn=_cmd_table2)

    figs = sub.add_parser("figures", help="regenerate Figures 1-3 data")
    figs.add_argument("--n", type=int, default=24)
    figs.add_argument("--seed", type=int, default=1)
    _add_backend(figs)
    _add_json(figs)
    figs.set_defaults(fn=_cmd_figures)

    lb = sub.add_parser("lower-bounds", help="Lemmas 5-6 and Cor 29")
    lb.add_argument("--seed", type=int, default=1)
    _add_backend(lb)
    _add_json(lb)
    lb.set_defaults(fn=_cmd_lower_bounds)

    demo = sub.add_parser("demo", help="solve one ring end to end")
    demo.add_argument("--n", type=int, default=8)
    demo.add_argument(
        "--model", default="perceptive", choices=_model_choices(),
    )
    demo.add_argument("--seed", type=int, default=2024)
    _add_backend(demo)
    demo.set_defaults(fn=_cmd_demo)

    from repro.experiments.harness import SHOOTOUTS

    bench = sub.add_parser(
        "bench",
        help="time a fast path against its executable spec, bit-exactness "
        "checked first; prints the BENCH_NAME.json report",
    )
    bench.add_argument("name", choices=list(SHOOTOUTS))
    bench.add_argument(
        "--sizes", type=_sizes, default=None, metavar="LIST",
        help="comma-separated ring sizes (default: the report's own)",
    )
    bench.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the JSON report to this path",
    )
    bench.set_defaults(fn=_cmd_bench)

    cache = sub.add_parser(
        "cache",
        help="inspect the content-addressed run store (stats), "
        "recompute-and-compare entries (verify), or empty it (clear)",
    )
    cache.add_argument(
        "action", choices=["stats", "verify", "clear"],
        help="stats: entry count, bytes and hit/miss events; verify: "
        "rerun stored specs and assert bit-equality (exit 1 on any "
        "mismatch); clear: remove every entry",
    )
    cache.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="run-store directory (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro)",
    )
    cache.add_argument(
        "--sample", type=int, default=None, metavar="N",
        help="verify only the first N entries (sorted by digest) "
        "instead of all of them",
    )
    cache.set_defaults(fn=_cmd_cache)

    lint = sub.add_parser(
        "lint",
        help="run the repo's AST invariant linter (exit 1 on findings)",
    )
    from repro.lint.cli import configure_parser as _configure_lint

    _configure_lint(lint)
    lint.set_defaults(fn=_cmd_lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.parser = parser  # for subcommand-level validation errors
    try:
        code = args.fn(args)
        sys.stdout.flush()
    except _USAGE_ERRORS as exc:
        # Input that cannot run, from any verb: one line, exit 2.
        parser.error(str(exc))
    except BrokenPipeError:
        # The reader closed stdout early: not a fault.  Point stdout at
        # devnull so the interpreter's final flush stays silent, and
        # exit as a shell reports a SIGPIPE death.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE
    except MemoryError:
        # The run outgrew the memory it was given: neither a detected
        # fault (1) nor input that cannot run (2).  One line, exit 3.
        print(f"{parser.prog}: error: out of memory", file=sys.stderr)
        return 3
    return int(code) if code else 0


if __name__ == "__main__":
    sys.exit(main())
