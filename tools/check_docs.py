#!/usr/bin/env python3
"""Docs gate: executable examples, live links, committed bench numbers.

Run from the repo root (CI runs it as the ``docs`` job)::

    python tools/check_docs.py              # check everything
    python tools/check_docs.py --write-bench  # refresh README bench table

Three checks keep ``README.md`` and ``docs/`` from drifting:

1. **Code blocks execute.**  Every fenced ``python`` block in README.md,
   docs/*.md and examples/*.md is extracted and executed with ``src/``
   on the path:
   blocks containing ``>>>`` prompts run under :mod:`doctest` (with
   ``NORMALIZE_WHITESPACE``), plain blocks are ``exec``'d.  A block
   whose first line is ``# doctest: skip`` is exempt (for deliberately
   abstract sketches).
2. **Relative links resolve.**  Every markdown link target without a
   scheme must exist on disk relative to the linking document.
3. **Bench numbers come from the reports.**  The README's bench table
   lives between ``BENCH_TABLE`` markers and must byte-match what
   :func:`bench_markdown` renders from the committed ``BENCH_*.json``
   files -- hand-edited figures fail the job; regenerate with
   ``--write-bench`` after refreshing the reports.
"""

from __future__ import annotations

import argparse
import doctest
import json
import re
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

REPO = Path(__file__).resolve().parent.parent

BENCH_START = "<!-- BENCH_TABLE_START -->"
BENCH_END = "<!-- BENCH_TABLE_END -->"

_FENCE = re.compile(
    r"^```(?P<lang>[\w-]*)[^\n]*\n(?P<body>.*?)^```\s*$",
    re.MULTILINE | re.DOTALL,
)
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def doc_files() -> List[Path]:
    files = [REPO / "README.md"]
    files.extend(sorted((REPO / "docs").glob("*.md")))
    files.extend(sorted((REPO / "examples").glob("*.md")))
    return [f for f in files if f.exists()]


def code_blocks(path: Path) -> Iterator[Tuple[int, str, str]]:
    """Yield ``(line_number, language, body)`` per fenced block."""
    text = path.read_text()
    for match in _FENCE.finditer(text):
        line = text[: match.start()].count("\n") + 1
        yield line, match.group("lang"), match.group("body")


def check_code(path: Path, errors: List[str]) -> int:
    """Execute the file's python blocks; returns how many ran.

    All blocks of one document share a namespace (a reader works
    through them top to bottom), so later examples may build on names
    an earlier block defined.
    """
    ran = 0
    globs = {"__name__": "__docs__"}
    for line, lang, body in code_blocks(path):
        if lang != "python":
            continue
        first = body.lstrip().splitlines()[0] if body.strip() else ""
        if first.startswith("# doctest: skip"):
            continue
        ran += 1
        where = f"{path.relative_to(REPO)}:{line}"
        if ">>>" in body:
            parser = doctest.DocTestParser()
            test = parser.get_doctest(body, globs, where, str(path), line)
            runner = doctest.DocTestRunner(
                optionflags=doctest.NORMALIZE_WHITESPACE | doctest.ELLIPSIS,
                verbose=False,
            )
            out: List[str] = []
            runner.run(test, out=out.append, clear_globs=False)
            globs.update(test.globs)
            if runner.failures:
                errors.append(
                    f"{where}: doctest block failed\n" + "".join(out)
                )
        else:
            try:
                exec(compile(body, where, "exec"), globs)
            except Exception as exc:  # noqa: BLE001 - report, don't crash
                errors.append(f"{where}: code block raised {exc!r}")
    return ran


def check_links(path: Path, errors: List[str]) -> int:
    """Verify the file's relative link targets exist; returns count."""
    checked = 0
    for target in _LINK.findall(path.read_text()):
        if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # http:, mailto:, ...
            continue
        target = target.split("#", 1)[0]
        if not target:
            continue
        checked += 1
        resolved = (path.parent / target).resolve()
        if not resolved.exists():
            errors.append(
                f"{path.relative_to(REPO)}: dead link -> {target}"
            )
    return checked


def _report(name: str) -> dict:
    return json.loads((REPO / name).read_text())


def bench_markdown() -> str:
    """The README bench table, rendered from the committed reports."""
    rows = []
    sim = _report("BENCH_simulator.json")
    rows.append((
        "`BENCH_simulator.json`",
        f"{sim['workload']['n']}-agent perceptive round sequence",
        f"lattice over fraction: "
        f"**{sim['speedup_lattice_over_fraction']}x**",
    ))
    pol = _report("BENCH_policies.json")
    head = max(pol["sweep"], key=lambda row: row["n"])
    rows.append((
        "`BENCH_policies.json`",
        "neighbor discovery + relay flood",
        f"native over callback at n={head['n']}: "
        f"**{head['speedup_native_over_callback']}x**",
    ))
    arr = _report("BENCH_array.json")
    parts = ", ".join(
        f"{row['speedup_array_over_lattice']}x at n={row['n']}"
        for row in arr["sweep"]
    )
    rows.append((
        "`BENCH_array.json`",
        "rotation probes + relay flood (fused stretches)",
        f"array over lattice: **{parts}**",
    ))
    spec = _report("BENCH_speculative.json")
    parts = ", ".join(
        f"{row['speedup_array_over_lattice']}x at n={row['n']}"
        for row in spec["sweep"]
    )
    rows.append((
        "`BENCH_speculative.json`",
        "LD sweeps + Algorithm 6 (speculative stretches)",
        f"array over lattice: **{parts}**",
    ))
    eqs = _report("BENCH_equations.json")
    dist_head = max(eqs["distances"], key=lambda row: row["n"])
    sweep_head = max(eqs["sweeps"], key=lambda row: row["n"])
    rows.append((
        "`BENCH_equations.json`",
        "union-find equation engine + columnar gap harvests",
        f"int over Fraction: "
        f"**{dist_head['speedup_int_over_fraction']}x** distances at "
        f"n={dist_head['n']}, "
        f"**{sweep_head['speedup_int_over_fraction']}x** sweeps at "
        f"n={sweep_head['n']}",
    ))
    fleet = _report("BENCH_fleet.json")
    rows.append((
        "`BENCH_fleet.json`",
        f"{fleet['workload']['sessions']}-ring sweep, "
        f"warm pools up to {fleet['workload']['workers']} workers",
        f"warm pool over serial: **{fleet['parallel_speedup']}x** "
        f"(on {fleet['cpu_count']} CPU"
        f"{'s' if fleet['cpu_count'] != 1 else ''})",
    ))
    cache = _report("BENCH_cache.json")
    rows.append((
        "`BENCH_cache.json`",
        f"{cache['workload']['sessions']}-ring sweep via the run store "
        f"(+ {cache['workload']['dupes']}-duplicate dedup)",
        f"warm fetch over recompute: **{cache['warm_speedup']}x**, "
        f"sweep dedup: **{cache['dedup_speedup']}x**",
    ))
    lines = [
        "| report | workload | headline (this machine) |",
        "|--------|----------|--------------------------|",
    ]
    lines.extend(f"| {a} | {b} | {c} |" for a, b, c in rows)
    return "\n".join(lines)


def check_bench_table(errors: List[str], write: bool) -> None:
    readme = REPO / "README.md"
    if not readme.exists():
        errors.append("README.md is missing")
        return
    text = readme.read_text()
    if BENCH_START not in text or BENCH_END not in text:
        errors.append("README.md: bench table markers missing")
        return
    head, rest = text.split(BENCH_START, 1)
    _stale, tail = rest.split(BENCH_END, 1)
    fresh = f"{BENCH_START}\n{bench_markdown()}\n{BENCH_END}"
    rendered = f"{head}{fresh}{tail}"
    if rendered != text:
        if write:
            readme.write_text(rendered)
            print("README.md: bench table refreshed")
        else:
            errors.append(
                "README.md: bench table does not match the committed "
                "BENCH_*.json reports (run `python tools/check_docs.py "
                "--write-bench`)"
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--write-bench", action="store_true",
        help="rewrite the README bench table from the committed reports",
    )
    args = parser.parse_args(argv)

    sys.path.insert(0, str(REPO / "src"))
    errors: List[str] = []
    blocks = links = 0
    for path in doc_files():
        blocks += check_code(path, errors)
        links += check_links(path, errors)
    check_bench_table(errors, write=args.write_bench)
    for error in errors:
        print(f"ERROR: {error}", file=sys.stderr)
    print(
        f"checked {len(doc_files())} docs: {blocks} python blocks, "
        f"{links} relative links; {len(errors)} error(s)"
    )
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
