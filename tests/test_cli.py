"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import build_parser, main

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestCli:
    def test_demo(self, capsys):
        assert main(["demo", "--n", "7", "--model", "basic", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "location discovery solved" in out
        assert "discovery" in out

    def test_run_lists_registry_without_protocol(self, capsys):
        assert main(["run"]) == 0
        out = capsys.readouterr().out
        assert "coordination" in out
        assert "location-discovery" in out

    def test_run_human_output(self, capsys):
        assert main([
            "run", "coordination", "--n", "7", "--model", "basic",
            "--seed", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "coordination solved in" in out
        assert "leader_election" in out

    def test_run_json_schema(self, capsys):
        assert main([
            "run", "location-discovery", "--n", "7", "--model", "basic",
            "--seed", "3", "--json", "--backend", "fraction",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "protocol", "n", "model", "backend", "seed", "common_sense",
            "driver", "phases", "result",
        }
        assert payload["protocol"] == "location-discovery"
        assert payload["backend"] == "fraction"
        result = payload["result"]
        assert result["kind"] == "location_discovery"
        assert result["rounds"] > 0
        assert set(result["rounds_by_phase"]) >= {
            "direction_agreement", "leader_election", "nontrivial_move",
            "discovery",
        }
        assert len(result["gaps_by_agent"]) == 7

    def test_run_json_is_written_in_batches_byte_identically(
        self, monkeypatch
    ):
        import io
        import sys

        from repro import RingSession
        from repro.__main__ import _print_json

        writes = []

        class Recorder(io.StringIO):
            def write(self, text):
                writes.append(len(text))
                return super().write(text)

        out = Recorder()
        monkeypatch.setattr(sys, "stdout", out)
        # Over 65536 encoder chunks, so more than one batch.
        payload = {"rows": [[i, str(i)] for i in range(20000)]}
        _print_json(payload)
        assert out.getvalue() == json.dumps(payload, indent=2) + "\n"
        assert len(writes) > 2
        out.seek(0)
        out.truncate()
        assert main(["run", "location-discovery", "--n", "9", "--model",
                     "lazy", "--seed", "3", "--json", "--no-cache"]) == 0
        document = json.loads(out.getvalue())
        assert out.getvalue() == json.dumps(document, indent=2) + "\n"
        result = RingSession(n=9, model="lazy", seed=3).run(
            "location-discovery"
        )
        assert document["result"] == result.to_dict()

    def test_run_backends_agree(self, capsys):
        args = ["run", "location-discovery", "--n", "7", "--model", "basic",
                "--seed", "3", "--json"]
        assert main(args + ["--backend", "array"]) == 0
        array = json.loads(capsys.readouterr().out)
        assert main(args + ["--backend", "fraction"]) == 0
        fraction = json.loads(capsys.readouterr().out)
        assert array["result"] == fraction["result"]

    def test_run_defaults_to_array_backend(self, capsys):
        assert main(["run", "coordination", "--n", "8", "--json",
                     "--no-cache"]) == 0
        assert json.loads(capsys.readouterr().out)["backend"] == "array"

    def test_sweep_json_schema(self, capsys):
        assert main([
            "sweep", "--sizes", "7", "--seeds", "0,1", "--models", "basic",
            "--workers", "2", "--executor", "process",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == 1
        assert report["executor"] == "process"
        assert report["workers"] == 2
        assert len(report["results"]) == 2
        for row in report["results"]:
            assert set(row) == {"spec", "result", "seconds"}
            assert row["spec"]["model"] == "basic"
            assert row["result"]["rounds"] > 0

    def test_run_json_listing(self, capsys):
        assert main(["run", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = [p["name"] for p in payload["protocols"]]
        assert "coordination" in names and "location-discovery" in names

    def test_sweep_rejects_typos_before_running(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--models", "perceptiv"])
        with pytest.raises(SystemExit):
            main(["sweep", "--backends", "latice"])
        with pytest.raises(SystemExit):
            main(["sweep", "--protocol", "frisbee"])

    def test_sweep_out_file(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        assert main([
            "sweep", "--sizes", "7", "--seeds", "0", "--models", "basic",
            "--executor", "serial", "--out", str(out),
        ]) == 0
        written = json.loads(out.read_text())
        printed = json.loads(capsys.readouterr().out)
        assert written == printed

    def test_table1_small(self, capsys):
        assert main(["table1", "--odd", "9", "--even", "8"]) == 0
        out = capsys.readouterr().out
        assert "TABLE I" in out
        assert "not solvable" in out  # the Lemma 5 cell

    def test_table2_small(self, capsys):
        assert main(["table2", "--odd", "9", "--even", "8"]) == 0
        assert "TABLE II" in capsys.readouterr().out

    def test_figures(self, capsys):
        assert main(["figures", "--n", "12"]) == 0
        out = capsys.readouterr().out
        assert "FIGURES 1-2" in out
        assert "FIGURE 3" in out

    def test_lower_bounds(self, capsys):
        assert main(["lower-bounds"]) == 0
        out = capsys.readouterr().out
        assert "LEMMA 5" in out and "LEMMA 6" in out and "COR 29" in out

    def test_backend_threads_through_table_commands(self, capsys):
        # Identical seeds must give identical tables on both backends.
        assert main(["table1", "--odd", "9", "--even", "8",
                     "--backend", "array", "--json"]) == 0
        array = json.loads(capsys.readouterr().out)
        assert main(["table1", "--odd", "9", "--even", "8",
                     "--backend", "fraction", "--json"]) == 0
        fraction = json.loads(capsys.readouterr().out)
        assert array == fraction
        assert len(array["rows"]) == 4

    def test_backend_accepted_everywhere(self, capsys):
        assert main(["table2", "--odd", "9", "--even", "8",
                     "--backend", "fraction"]) == 0
        assert "TABLE II" in capsys.readouterr().out
        assert main(["figures", "--n", "12", "--backend", "fraction"]) == 0
        assert "FIGURE 3" in capsys.readouterr().out
        assert main(["lower-bounds", "--backend", "fraction"]) == 0
        assert "LEMMA 6" in capsys.readouterr().out

    def test_lower_bounds_json(self, capsys):
        assert main(["lower-bounds", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"lemma5", "lemma6", "cor29"}
        assert payload["lemma5"][0]["measured"]["rotation_parities"] == [0]

    def test_rejects_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nope"])

    def test_rejects_bad_model(self):
        with pytest.raises(SystemExit):
            main(["demo", "--model", "psychic"])

    @pytest.mark.parametrize("verb", [["run", "location-discovery"], ["demo"]])
    @pytest.mark.parametrize("n", ["3", "0", "-5"])
    def test_bad_n_is_a_usage_error(self, capsys, verb, n):
        with pytest.raises(SystemExit) as exc:
            main(verb + ["--n", n])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines()
                  if line.startswith("repro: error:")]
        assert len(errors) == 1

    def test_demo_infeasible_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["demo", "--model", "basic", "--n", "8"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines()
                  if line.startswith("repro: error:")]
        assert len(errors) == 1
        assert "Lemma 5" in errors[0]

    @pytest.mark.parametrize("argv,message", [
        (["run", "location-discovery", "--n", "8", "--model", "basic"],
         "Lemma 5"),
        (["run", "frisbee"], "unknown protocol"),
        (["run", "location-discovery", "--n", "8",
          "--faults", '{"seed":1,"crashes":{"9":0}}'], "--faults:"),
        (["run", "coordination", "--shard", "2"], "--shard"),
    ], ids=["infeasible", "unknown-protocol", "bad-fault-plan", "no-shard"])
    def test_run_user_errors_are_usage_errors(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert message in err

    @pytest.mark.parametrize("argv", [
        ["run", "coordination", "--n", "8", "--backend", "lattice"],
        ["sweep", "--backends", "lattice"],
        ["sweep", "--backends", "array,lattice"],
        ["demo", "--backend", "lattice"],
        ["table1", "--backend", "lattice"],
        ["table2", "--backend", "lattice"],
        ["figures", "--backend", "lattice"],
        ["lower-bounds", "--backend", "lattice"],
    ], ids=["run", "sweep", "sweep-list", "demo", "table1", "table2",
            "figures", "lower-bounds"])
    def test_lattice_backend_is_a_usage_error(self, capsys, argv):
        # Array's scalar base class is no longer a user-facing choice.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines()
                  if ": error:" in line]
        assert len(errors) == 1
        assert "lattice" in errors[0]

    @pytest.mark.parametrize("executor", ["serial", "process"])
    @pytest.mark.parametrize("argv,message", [
        (["--protocol", "coordination", "--sizes", "3"], "n > 4"),
        (["--protocol", "location-discovery", "--sizes", "8",
          "--models", "basic"], "Lemma 5"),
    ], ids=["too-small", "infeasible"])
    def test_sweep_unrunnable_spec_is_a_usage_error(
        self, capsys, argv, message, executor
    ):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--seeds", "0", "--workers", "1",
                  "--executor", executor, "--no-cache"] + argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines()
                  if line.startswith("repro: error:")]
        assert len(errors) == 1
        assert message in errors[0]

    @pytest.mark.parametrize("argv,message", [
        (["sweep", "--workers", "0"], "workers must be >= 1"),
        (["table1", "--odd", "3"], "n > 4"),
        (["table2", "--even", "2"], "n > 4"),
        (["figures", "--n", "3"], "n > 4"),
        (["sweep", "--sizes", "8,x"], "--sizes: expected comma-separated"),
        (["sweep", "--seeds", "0,x"], "--seeds: expected comma-separated"),
        (["table1", "--odd", "9,x"], "--odd: expected comma-separated"),
        (["table2", "--even", "8,x"], "--even: expected comma-separated"),
        (["sweep", "--executor", "thread"], "invalid choice: 'thread'"),
        (["run", "coordination", "--n", "8", "--unchecked"],
         "unrecognized arguments: --unchecked"),
        (["sweep", "--sizes", "8", "--unchecked"],
         "unrecognized arguments: --unchecked"),
    ], ids=["sweep-workers-0", "table1-odd-3", "table2-even-2",
            "figures-n-3", "sweep-sizes", "sweep-seeds", "table1-odd",
            "table2-even", "sweep-thread", "run-unchecked",
            "sweep-unchecked"])
    def test_bad_input_is_one_error_line(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines()
                  if ": error:" in line]
        assert len(errors) == 1
        assert message in errors[0]


class TestCliFaults:
    """A fault the protocol's own checks catch is the "detect" outcome:
    reported on stdout with exit code 1, not a usage error (exit 2)."""

    RUN = ["run", "location-discovery", "--n", "8", "--model", "perceptive",
           "--seed", "3", "--no-cache",
           "--faults", '{"seed":1,"max_rounds":3}']

    def test_detected_fault_exits_1(self, capsys):
        assert main(self.RUN) == 1
        out = capsys.readouterr().out
        assert out.startswith(
            "fault detected by location-discovery: FaultBudgetError"
        )

    def test_detected_fault_json(self, capsys):
        assert main(self.RUN + ["--json"]) == 1
        faults = json.loads(capsys.readouterr().out)["faults"]
        assert faults["outcome"] == "detected"
        assert faults["error"] == "FaultBudgetError"
        assert faults["plan"]["max_rounds"] == 3


class TestCliBenchReports:
    """``bench NAME`` prints its JSON report on stdout; with --out it
    also writes the same bytes to the file and says so on stderr, so
    redirected stdout stays valid JSON."""

    def test_out_file_matches_printed_report(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        assert main(["bench", "simulator", "--sizes", "8",
                     "--out", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.out == path.read_text()
        assert json.loads(captured.out)["workload"]["n"] == 8
        assert captured.err == f"wrote {path}\n"

    def test_without_out_prints_only_the_report(self, capsys):
        assert main(["bench", "simulator", "--sizes", "8"]) == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert captured.out == json.dumps(report, indent=2) + "\n"
        assert captured.err == ""

    @pytest.mark.parametrize("argv,prog", [
        (["bench", "fleet", "--sizes", "8,16"], "repro"),
        (["bench", "simulator", "--sizes", "3"], "repro"),
        (["bench", "equations", "--sizes", "9"], "repro"),
        (["bench", "simulator", "--sizes", "8,x"], "repro bench"),
        (["bench", "nosuch"], "repro bench"),
        (["bench-array"], "repro"),
        (["bench", "--n", "8"], "repro bench"),
    ], ids=["two-sizes", "too-small", "odd-n-equations", "non-integer-size",
            "unknown-name", "removed-verb", "removed-flag"])
    def test_bad_bench_input_is_a_usage_error(self, capsys, argv, prog):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines()
                  if ": error:" in line]
        assert len(errors) == 1
        assert errors[0].startswith(f"{prog}: error:")


class TestCliCache:
    """The --cache surface.  Every test pins --cache-dir to tmp_path:
    these must never read or clear a shared store (REPRO_CACHE_DIR),
    including on the cache-enabled CI axis."""

    RUN = ["run", "location-discovery", "--n", "7", "--model", "basic",
           "--seed", "3", "--json"]

    def test_cached_run_bit_identical(self, capsys, tmp_path):
        cache = ["--cache", "--cache-dir", str(tmp_path)]
        assert main(self.RUN + cache) == 0
        computed = json.loads(capsys.readouterr().out)
        assert main(self.RUN + ["--backend", "fraction"] + cache) == 0
        fetched = json.loads(capsys.readouterr().out)
        assert fetched["result"] == computed["result"]
        assert {p["driver"] for p in fetched["phases"]} == {"cached"}
        assert [p["name"] for p in fetched["phases"]] == [
            p["name"] for p in computed["phases"]
        ]

    def test_no_cache_forces_compute(self, capsys, tmp_path):
        cache_dir = ["--cache-dir", str(tmp_path)]
        assert main(self.RUN + ["--cache"] + cache_dir) == 0
        capsys.readouterr()
        assert main(self.RUN + ["--no-cache"] + cache_dir) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {p["driver"] for p in payload["phases"]} == {"native"}

    def test_cached_sweep_summary_and_equality(self, capsys, tmp_path):
        args = ["sweep", "--sizes", "7", "--seeds", "0,1",
                "--models", "basic", "--backends", "array,fraction",
                "--executor", "serial"]
        cache = ["--cache", "--cache-dir", str(tmp_path)]
        assert main(args + ["--no-cache"]) == 0
        plain = json.loads(capsys.readouterr().out)
        assert "cache" not in plain
        assert main(args + cache) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(args + cache) == 0
        second = json.loads(capsys.readouterr().out)
        strip = lambda rep: [
            {"spec": r["spec"], "result": r["result"]}
            for r in rep["results"]
        ]
        assert strip(first) == strip(plain)
        assert strip(second) == strip(plain)
        # 4 rows, 2 distinct keys: dedup on the first pass, no misses
        # on the second.
        assert first["cache"]["misses"] == 2
        assert first["cache"]["deduped"] == 2
        assert second["cache"]["misses"] == 0
        for row in first["results"]:
            assert set(row) == {"spec", "result", "seconds"}

    def test_cache_stats_verify_clear(self, capsys, tmp_path):
        cache = ["--cache", "--cache-dir", str(tmp_path)]
        dir_only = ["--cache-dir", str(tmp_path)]
        assert main(self.RUN + cache) == 0
        capsys.readouterr()
        assert main(["cache", "stats"] + dir_only) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 1
        assert stats["cache_dir"] == str(tmp_path)
        assert main(["cache", "verify"] + dir_only) == 0
        verified = json.loads(capsys.readouterr().out)
        assert verified["ok"] is True
        assert verified["verified"] == 1
        assert verified["rows"][0]["ok"] is True
        assert main(["cache", "clear"] + dir_only) == 0
        cleared = json.loads(capsys.readouterr().out)
        assert cleared["cleared"] == 1
        assert main(["cache", "stats"] + dir_only) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 0

    def test_cache_verify_flags_tampering(self, capsys, tmp_path):
        from repro.store.store import RunStore

        cache = ["--cache", "--cache-dir", str(tmp_path)]
        assert main(self.RUN + cache) == 0
        capsys.readouterr()
        store = RunStore(tmp_path)
        (digest,) = store.iter_digests()
        path = store.entry_path(digest)
        envelope = json.loads(path.read_text())
        envelope["result"]["rounds"] += 1
        path.write_text(json.dumps(envelope))
        assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 1
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["ok"] is False
        assert "differs" in verdict["rows"][0]["detail"]

    def test_cache_verify_unrunnable_spec_is_a_row(self, capsys, tmp_path):
        from repro.store.store import RunStore

        assert main(self.RUN + ["--cache", "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        store = RunStore(tmp_path)
        (digest,) = store.iter_digests()
        path = store.entry_path(digest)
        envelope = json.loads(path.read_text())
        envelope["spec"]["n"] = 3
        path.write_text(json.dumps(envelope))
        assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        (row,) = json.loads(captured.out)["rows"]
        assert row["ok"] is False
        assert row["detail"].startswith("recompute failed: ConfigurationError")

    def test_cache_verify_survives_a_retired_unchecked_entry(
        self, capsys, tmp_path
    ):
        from repro.store.store import RunStore

        cache = ["--cache", "--cache-dir", str(tmp_path)]
        assert main(self.RUN + cache) == 0
        assert main(["run", "coordination", "--n", "8"] + cache) == 0
        capsys.readouterr()
        # Turn the coordination entry into one the unchecked mode wrote.
        store = RunStore(tmp_path)
        retired = None
        for digest in store.iter_digests():
            path = store.entry_path(digest)
            envelope = json.loads(path.read_text())
            if envelope["spec"]["protocol"] == "coordination":
                envelope["spec"]["unchecked"] = True
                envelope["key"]["unchecked"] = True
                path.write_text(json.dumps(envelope))
                retired = digest
        assert retired is not None
        assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        rows = {row["digest"]: row for row in json.loads(captured.out)["rows"]}
        assert len(rows) == 2
        assert rows.pop(retired) == {
            "digest": retired, "ok": False,
            "detail": "envelope spec refused: "
                      "the unchecked mode has been removed",
        }
        (other,) = rows.values()
        assert other["ok"] is True

    def test_cache_verify_sample(self, capsys, tmp_path):
        cache = ["--cache", "--cache-dir", str(tmp_path)]
        assert main(self.RUN + cache) == 0
        assert main(self.RUN + ["--seed", "4"] + cache) == 0
        capsys.readouterr()
        assert main(["cache", "verify", "--cache-dir", str(tmp_path),
                     "--sample", "1"]) == 0
        verified = json.loads(capsys.readouterr().out)
        assert verified["verified"] == 1
        with pytest.raises(SystemExit):
            main(["cache", "verify", "--cache-dir", str(tmp_path),
                  "--sample", "0"])


class TestCliClosedStdout:
    """A reader that closes the pipe early (``run --json | head``) is
    not a fault: the run ends silently with exit 141 (128 + SIGPIPE)."""

    def test_run_json_into_a_closed_pipe(self):
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        # Several MB of JSON: far more than a pipe buffers.
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "run", "location-discovery",
             "--model", "lazy", "--n", "512", "--json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            cwd=REPO_ROOT, env=env,
        )
        try:
            head = proc.stdout.read(100)
            proc.stdout.close()
            _out, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert head.startswith(b"{")
        assert err == b""
        assert proc.returncode == 141
