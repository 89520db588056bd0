"""The invariant linter: every rule fires on its fixture, the pragma
machinery behaves, the JSON document round-trips as a baseline, and --
the point of the exercise -- the real tree lints clean (tier-1)."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import (
    DEFAULT_CONFIG,
    LintConfig,
    SCHEMA,
    baseline_keys,
    lint_package,
    lint_source,
    new_findings,
    rule_catalogue,
)
from repro.lint import cli
from repro.lint.astutil import scoped_functions
from repro.lint.config import FRACTION_BOUNDARY_FUNCTIONS

FIXTURES = Path(__file__).parent / "lint_fixtures"
SRC = Path(__file__).parent.parent / "src"


def lint_fixture(name, virtual_path, config=DEFAULT_CONFIG, rules=None):
    source = (FIXTURES / name).read_text()
    return lint_source(source, virtual_path, config=config, rules=rules)


def rules_fired(result):
    return sorted({f.rule for f in result.findings})


# ---------------------------------------------------------------------------
# each rule fires on its fixture (and only inside its scope)
# ---------------------------------------------------------------------------


class TestFractionHotPath:
    CONFIG = LintConfig(
        fraction_boundary={
            "protocols/policies/fixture.py": frozenset({"boundary"})
        }
    )

    def test_fires_outside_whitelist(self):
        result = lint_fixture(
            "fraction_hot.py", "protocols/policies/fixture.py",
            config=self.CONFIG,
        )
        assert rules_fired(result) == ["fraction-hot-path"]
        # Both constructor calls in hot_loop, nothing else.
        assert len(result.findings) == 2
        assert all("hot_loop" in f.message for f in result.findings)

    def test_whitelisted_boundary_is_clean(self):
        result = lint_fixture(
            "fraction_hot.py", "protocols/policies/fixture.py",
            config=self.CONFIG,
        )
        assert not any(
            " in boundary of " in f.message for f in result.findings
        )

    def test_annotations_do_not_count(self):
        result = lint_fixture(
            "fraction_hot.py", "protocols/policies/fixture.py",
            config=self.CONFIG,
        )
        assert not any("annotated_only" in f.message for f in result.findings)

    def test_cold_module_not_in_scope(self):
        result = lint_fixture("fraction_hot.py", "experiments/fixture.py")
        assert result.ok


class TestPerAgentLoop:
    def test_fires_in_decision_scopes(self):
        result = lint_fixture(
            "per_agent_loop.py", "protocols/policies/fixture.py"
        )
        assert rules_fired(result) == ["per-agent-loop"]
        scopes = sorted(f.message.split(" ")[0] for f in result.findings)
        assert scopes == [
            "ScalarPolicy.decide",
            "ScalarPolicy.finalize",
            "make_predicate.stop",
        ]

    def test_plain_helpers_are_clean(self):
        result = lint_fixture(
            "per_agent_loop.py", "protocols/policies/fixture.py"
        )
        assert not any("legal_helper" in f.message for f in result.findings)

    def test_non_policy_module_not_in_scope(self):
        result = lint_fixture("per_agent_loop.py", "experiments/fixture.py")
        assert result.ok


class TestFloatTaint:
    def test_fires_on_all_three_shapes(self):
        result = lint_fixture("float_taint.py", "ring/fixture.py")
        assert rules_fired(result) == ["float-taint"]
        assert len(result.findings) == 3
        messages = " | ".join(f.message for f in result.findings)
        assert "literal" in messages
        assert "float()" in messages
        assert "division" in messages

    def test_fraction_division_is_clean(self):
        result = lint_fixture("float_taint.py", "ring/fixture.py")
        exact_lines = [f for f in result.findings if f.line > 20]
        assert exact_lines == []

    def test_outside_ring_not_in_scope(self):
        result = lint_fixture("float_taint.py", "analysis/fixture.py")
        assert result.ok


class TestNondeterminism:
    def test_fires_everywhere(self):
        result = lint_fixture("nondet.py", "experiments/fixture.py")
        assert rules_fired(result) == ["nondeterminism"]
        messages = " | ".join(f.message for f in result.findings)
        assert "time.time" in messages
        assert "random.randint" in messages
        assert "Random() without a seed" in messages
        assert messages.count("id(...)") == 2

    def test_seeded_random_is_clean(self):
        result = lint_fixture("nondet.py", "experiments/fixture.py")
        seeded_line = (FIXTURES / "nondet.py").read_text().splitlines()
        line_no = seeded_line.index("    return random.Random(seed)") + 1
        assert not any(f.line == line_no for f in result.findings)


class TestFaultsScope:
    """The fault layer is inside the lint net: global randomness in a
    ``faults/`` module is a finding (its whole point is *seeded*
    adversaries), and the package is a Fraction-free hot path."""

    def test_nondeterminism_fires_under_faults(self):
        result = lint_fixture("nondet.py", "faults/fixture.py")
        assert "nondeterminism" in rules_fired(result)
        messages = " | ".join(f.message for f in result.findings)
        assert "random.randint" in messages
        assert "Random() without a seed" in messages

    def test_faults_modules_are_hot(self):
        assert DEFAULT_CONFIG.is_hot("faults/plan.py")
        assert DEFAULT_CONFIG.is_hot("faults/inject.py")
        assert DEFAULT_CONFIG.is_hot("faults/channels.py")
        result = lint_fixture("fraction_hot.py", "faults/fixture.py")
        assert "fraction-hot-path" in rules_fired(result)


class TestNumpyGate:
    def test_fires_on_module_and_function_imports(self):
        result = lint_fixture("numpy_direct.py", "experiments/fixture.py")
        assert rules_fired(result) == ["numpy-gate"]
        assert len(result.findings) == 2

    def test_gate_module_itself_is_exempt(self):
        result = lint_fixture("numpy_direct.py", "ring/arrayops.py")
        assert "numpy-gate" not in rules_fired(result)


class TestSpeculativeContract:
    def test_fires_on_mutating_predicates(self):
        result = lint_fixture(
            "speculative_bad.py", "protocols/policies/fixture.py"
        )
        assert rules_fired(result) == ["speculative-contract"]
        messages = " | ".join(f.message for f in result.findings)
        assert "stores through state" in messages
        assert "stores through result" in messages
        assert "sched.push_round" in messages
        assert "state.append" in messages  # the lambda predicate

    def test_closure_accumulation_is_clean(self):
        result = lint_fixture(
            "speculative_bad.py", "protocols/policies/fixture.py"
        )
        assert not any("totals" in f.message for f in result.findings)


# ---------------------------------------------------------------------------
# pragma machinery
# ---------------------------------------------------------------------------


class TestPragmas:
    @pytest.fixture(scope="class")
    def result(self):
        return lint_fixture("pragma_cases.py", "experiments/fixture.py")

    def test_trailing_and_own_line_pragmas_suppress(self, result):
        assert len(result.suppressed) == 2
        assert all(
            s.rule == "nondeterminism" and s.reason.startswith("fixture:")
            for s in result.suppressed
        )

    def test_wrong_line_pragma_does_not_suppress(self, result):
        # The finding stays active AND the pragma is flagged unused.
        unused = [f for f in result.findings if f.rule == "pragma-unused"]
        assert len(unused) == 1
        source = (FIXTURES / "pragma_cases.py").read_text().splitlines()
        assert "too far from the finding" in source[unused[0].line - 1]

    def test_pragma_without_reason_is_a_finding(self, result):
        problems = [f for f in result.findings if f.rule == "pragma"]
        assert any("justification" in f.message for f in problems)

    def test_unknown_rule_pragma_is_a_finding(self, result):
        problems = [f for f in result.findings if f.rule == "pragma"]
        assert any("no-such-rule" in f.message for f in problems)

    def test_broken_pragmas_do_not_suppress(self, result):
        # wrong_line, no_reason and unknown_rule all leave their
        # nondeterminism finding active.
        active = [f for f in result.findings if f.rule == "nondeterminism"]
        assert len(active) == 3

    def test_rule_filter_does_not_flag_other_rules_pragmas(self):
        result = lint_fixture(
            "pragma_cases.py", "experiments/fixture.py",
            rules=["numpy-gate"],
        )
        assert not any(
            f.rule == "pragma-unused" for f in result.findings
        )


# ---------------------------------------------------------------------------
# findings document / baseline
# ---------------------------------------------------------------------------


class TestBaseline:
    def test_document_schema(self):
        result = lint_fixture("nondet.py", "experiments/fixture.py")
        document = result.to_document()
        assert document["schema"] == SCHEMA
        assert document["summary"]["errors"] == len(result.findings)
        assert document["summary"]["suppressed"] == len(result.suppressed)
        assert set(document["rules"]) >= set(rules_fired(result))

    def test_round_trips_through_json(self):
        result = lint_fixture("nondet.py", "experiments/fixture.py")
        document = json.loads(json.dumps(result.to_document()))
        assert new_findings(result.findings, document) == []

    def test_new_finding_not_masked(self):
        old = lint_fixture("numpy_direct.py", "experiments/fixture.py")
        new = lint_fixture("nondet.py", "experiments/fixture.py")
        fresh = new_findings(new.findings, old.to_document())
        assert fresh == new.findings

    def test_baseline_rejects_foreign_documents(self):
        with pytest.raises(ValueError):
            baseline_keys({"schema": "something/else", "findings": []})


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_fixture_paths_fail_then_baseline_passes(
        self, tmp_path, capsys
    ):
        fixture = str(FIXTURES / "nondet.py")
        code = cli.main([fixture, "--json"])
        out = capsys.readouterr().out
        assert code == 1
        baseline = tmp_path / "baseline.json"
        baseline.write_text(out)
        assert json.loads(out)["schema"] == SCHEMA

        code = cli.main([fixture, "--baseline", str(baseline)])
        assert code == 0

    def test_unknown_rule_is_a_usage_error(self, capsys):
        assert cli.main(["--rule", "bogus"]) == 2
        assert "unknown lint rule" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert cli.main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in (
            "fraction-hot-path", "per-agent-loop", "float-taint",
            "nondeterminism", "numpy-gate", "speculative-contract",
            "pragma", "pragma-unused",
        ):
            assert rule in out

    def test_module_entry_point(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 finding(s)" in proc.stdout


# ---------------------------------------------------------------------------
# the real tree lints clean
# ---------------------------------------------------------------------------


class TestRealTree:
    def test_package_has_zero_findings(self):
        result = lint_package()
        assert result.findings == [], result.render()

    def test_every_suppression_carries_a_reason(self):
        result = lint_package()
        assert result.suppressed, "expected documented exemptions"
        for finding in result.suppressed:
            assert finding.reason and len(finding.reason) > 10

    @pytest.mark.parametrize(
        "path", sorted(FRACTION_BOUNDARY_FUNCTIONS), ids=str
    )
    def test_every_fraction_boundary_entry_is_defined(self, path):
        """A whitelisted qualname must name a function its module
        defines: a stale entry would silently whitelist any later
        function that reuses the name."""
        tree = ast.parse((SRC / "repro" / path).read_text())
        defined = {qual for qual, _node in scoped_functions(tree)}
        stale = FRACTION_BOUNDARY_FUNCTIONS[path] - defined
        assert not stale, f"{path}: no function named {sorted(stale)}"
