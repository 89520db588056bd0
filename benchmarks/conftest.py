"""Benchmark harness configuration.

Every benchmark in this directory regenerates one table or figure of
the paper: it runs the relevant experiment driver once under
pytest-benchmark timing, prints the rendered table (captured in the
bench log), records the measured round counts in ``extra_info``, and
asserts the paper's qualitative shape (who wins, how cells scale).

Smoke mode: ``python -m pytest benchmarks -q --bench-fast`` skips every
module marked ``bench_heavy`` (the multi-minute table/figure sweeps)
and runs only the fast substrate benchmarks -- including the seven
shootouts that write the ``BENCH_*.json`` reports (the
``shootout_report`` fixture) -- so CI can track the performance
trajectory cheaply.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.harness import shootout, write_report

REPO_ROOT = Path(__file__).resolve().parent.parent


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--bench-fast",
        action="store_true",
        default=False,
        help="run only the quick smoke benchmarks (skip bench_heavy)",
    )


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line(
        "markers",
        "bench_heavy: long-running table/figure regeneration; skipped "
        "under --bench-fast",
    )


def pytest_collection_modifyitems(
    config: pytest.Config, items: list
) -> None:
    if not config.getoption("--bench-fast"):
        return
    skip = pytest.mark.skip(reason="--bench-fast smoke mode")
    for item in items:
        if item.get_closest_marker("bench_heavy"):
            item.add_marker(skip)


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under timing (pipelines are deterministic,
    so repeated timing iterations only waste bench time)."""
    return benchmark.pedantic(
        fn, args=args, kwargs=kwargs, rounds=1, iterations=1,
        warmup_rounds=0,
    )


@pytest.fixture
def once(benchmark):
    def runner(fn, *args, **kwargs):
        return run_once(benchmark, fn, *args, **kwargs)

    return runner


@pytest.fixture
def shootout_report(once):
    """Run ``shootout(name)`` once under timing, write the report to
    ``BENCH_<name>.json`` at the repo root with the same writer as
    ``python -m repro bench NAME --out``, and return it."""
    def runner(name):
        report = once(shootout, name)
        write_report(report, REPO_ROOT / f"BENCH_{name}.json")
        return report

    return runner
