"""Deprecation hygiene: the CLI and the examples must run clean under
``-W error::DeprecationWarning`` (a deprecated call anywhere in their
path would abort them).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _run_with_error_on_deprecation(args, timeout=120):
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=REPO_ROOT,
        env=env,
    )


class TestNoShimsInTree:
    def test_cli_run_smoke(self):
        proc = _run_with_error_on_deprecation([
            "-m", "repro", "run", "coordination",
            "--n", "8", "--model", "perceptive", "--json",
        ])
        assert proc.returncode == 0, proc.stderr
        assert '"leader_id"' in proc.stdout

    def test_cli_registry_listing(self):
        proc = _run_with_error_on_deprecation(["-m", "repro", "run"])
        assert proc.returncode == 0, proc.stderr
        assert "location-discovery" in proc.stdout

    def test_cli_demo_smoke(self):
        proc = _run_with_error_on_deprecation([
            "-m", "repro", "demo", "--n", "8", "--model", "lazy",
        ])
        assert proc.returncode == 0, proc.stderr
        assert "location discovery solved" in proc.stdout

    def test_quickstart_example(self):
        proc = _run_with_error_on_deprecation(
            [str(REPO_ROOT / "examples" / "quickstart.py")]
        )
        assert proc.returncode == 0, proc.stderr
        assert "reconstructed" in proc.stdout
