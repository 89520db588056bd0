#!/usr/bin/env python3
"""Record a fault scenario into the regression corpus.

Run from the repo root::

    python tools/record_regression.py --protocol coordination --n 8 \
        --seed 3 --faults '{"seed":1,"crashes":{"2":1}}' \
        --note "crash during direction agreement"

The scenario is classified (its faulted run and its fault-free twin
both execute, landing it in the survive/detect/report trichotomy) and
the result is written as one JSON entry under
``tests/regression_corpus/`` -- whatever the scenario does *today*
becomes the pinned expectation the tier-1 suite replays forever.  The
fuzzer (``tests/test_fault_properties.py``) calls the same recording
path automatically when a property violation shrinks to a concrete
scenario; this tool is the manual on-ramp for scenarios found in the
wild.

Entries are content-addressed by scenario, so re-recording the same
scenario after a deliberate behaviour change overwrites the stale
expectation in place (commit the diff).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.api.fleet import SessionSpec  # noqa: E402
from repro.exceptions import ReproError  # noqa: E402
from repro.faults.corpus import DEFAULT_CORPUS_DIR, record_scenario  # noqa: E402
from repro.faults.plan import FaultPlan  # noqa: E402
from repro.ring.backends import BACKEND_NAMES, DEFAULT_BACKEND  # noqa: E402


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(
        description="classify one fault scenario and pin it into the "
        "regression corpus"
    )
    parser.add_argument("--protocol", required=True,
                        help="registry protocol name")
    parser.add_argument("--n", type=int, required=True, help="ring size")
    parser.add_argument("--model", default="basic",
                        choices=("basic", "lazy", "perceptive"))
    parser.add_argument("--backend", default=DEFAULT_BACKEND,
                        choices=BACKEND_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--common-sense", action="store_true")
    parser.add_argument("--config", default="random")
    parser.add_argument("--driver", default="native",
                        choices=("native", "callback"))
    parser.add_argument("--faults", required=True, metavar="PLAN",
                        help="fault plan as inline JSON or @file.json")
    parser.add_argument("--note", default="",
                        help="free-form context stored with the entry")
    parser.add_argument("--corpus-dir",
                        default=str(REPO / DEFAULT_CORPUS_DIR),
                        help="corpus directory (default: the committed "
                        "tests/regression_corpus/)")
    args = parser.parse_args(argv)

    raw = args.faults
    if raw.startswith("@"):
        raw = Path(raw[1:]).read_text(encoding="ascii")
    try:
        plan = FaultPlan.coerce(raw)
    except ReproError as error:
        parser.error(f"unusable fault plan: {error}")
    if plan is None:
        parser.error("the fault plan is empty; the corpus records "
                     "*faulted* scenarios")

    spec = SessionSpec(
        n=args.n,
        protocol=args.protocol,
        model=args.model,
        backend=args.backend,
        seed=args.seed,
        common_sense=args.common_sense,
        config=args.config,
        driver=args.driver,
        faults=plan.canonical(),
    )
    try:
        path, classification = record_scenario(
            spec, directory=args.corpus_dir, note=args.note
        )
    except ReproError as error:
        # The fault-free twin failed: the scenario is misconfigured,
        # not a degradation case worth pinning.
        parser.error(f"fault-free twin failed ({type(error).__name__}): "
                     f"{error}")
    print(f"recorded {path}")
    print(f"  outcome: {classification.outcome}")
    if classification.error_type is not None:
        print(f"  error:   {classification.error_type}: "
              f"{classification.error_message}")
    elif classification.result is not None:
        print(f"  result:  {json.dumps(classification.result, sort_keys=True)[:120]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
