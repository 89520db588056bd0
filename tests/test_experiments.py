"""Tests for the experiment drivers, the table harness and the
bit-exact-then-time shootouts."""

import pytest

from repro.exceptions import ConfigurationError, SimulationError
from repro.experiments.harness import (
    SHOOTOUTS,
    Contender,
    ExperimentRow,
    Pairwise,
    render_table,
    shootout,
)
from repro.experiments import figures, lower_bounds, table1, table2
from repro.ring.backends import DEFAULT_BACKEND, ArrayBackend
from repro.types import Model


class TestHarness:
    def test_render_empty(self):
        assert "(empty)" in render_table([], "title")

    def test_render_alignment(self):
        rows = [
            ExperimentRow("a", {"n": 8}, {"x": 1}, {"x": 2.0}),
            ExperimentRow("bee", {"n": 100}, {"x": 12345}, {"x": None}),
        ]
        out = render_table(rows, "T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert len({len(line) for line in lines[1:]}) == 1  # aligned
        assert "12345" in out
        assert "2.0" in out
        assert "-" in lines[-1]  # None renders as dash


class TestTable1Rows:
    def test_odd_row_fields(self):
        row = table1.row_odd_n(9, seed=0)
        assert row.measured["dir_agree"] == 4
        assert row.measured["ld"] > 9
        assert row.reference["nmove"] > 0

    def test_basic_even_row_unsolvable(self):
        row = table1.row_basic_even(8, seed=0)
        assert row.measured["ld"] == "not solvable"

    def test_lazy_even_row(self):
        row = table1.row_lazy_even(8, seed=0)
        assert row.measured["ld"] >= 8

    def test_perceptive_even_row(self):
        row = table1.row_perceptive_even(8, seed=0)
        assert row.measured["ld_discovery_phase"] == 7

    def test_generate_covers_all_rows(self):
        rows = table1.generate(odd_sizes=(9,), even_sizes=(8,))
        labels = [r.label for r in rows]
        assert labels == [
            "odd n (basic)", "basic, even n", "lazy, even n",
            "perceptive, even n",
        ]

    def test_parity_preconditions_enforced(self):
        with pytest.raises(AssertionError):
            table1.row_odd_n(8)
        with pytest.raises(AssertionError):
            table1.row_basic_even(9)


class TestTable2Rows:
    @pytest.mark.parametrize("model", list(Model))
    def test_even_rows(self, model):
        row = table2.row(8, model, seed=0)
        assert row.measured["nmove"] <= 8
        if model is Model.BASIC:
            assert row.measured["ld"] == "not solvable"
        else:
            assert row.measured["ld"] >= 4

    def test_odd_basic_row(self):
        row = table2.row(9, Model.BASIC, seed=0)
        assert isinstance(row.measured["ld"], int)

    def test_generate_shape(self):
        rows = table2.generate(odd_sizes=(9,), even_sizes=(8,))
        assert len(rows) == 1 + 3


class TestFigures:
    def test_reduction_edges_labels(self):
        rows = figures.reduction_edges(n=8, seed=0)
        labels = {r.label for r in rows}
        assert "leader -> nontrivial move" in labels
        assert "nontrivial move -> leader election" in labels
        assert len(rows) == 6

    def test_ringdist_anatomy_monotone(self):
        rows = figures.ringdist_anatomy(n=16, seed=0)
        labelled = [r.measured["labelled"] for r in rows]
        assert labelled == sorted(labelled)
        assert labelled[-1] == 16


class TestLowerBounds:
    def test_lemma5_witness(self):
        row = lower_bounds.lemma5_witness(6)
        assert row.measured["rotation_parities"] == [0]

    def test_lemma6_rows_respect_floor(self):
        for row in lower_bounds.lemma6_floors(seed=0):
            assert row.measured["discovery_rounds"] >= row.reference["floor"]

    def test_distinguisher_rows(self):
        rows = lower_bounds.distinguisher_sizes(max_exact_universe=5)
        n1 = [r for r in rows if r.label == "exact minimal (n=1)"]
        assert [r.measured["size"] for r in n1] == [2, 3]


class TestShootoutCore:
    """:meth:`Pairwise.rows` proves bit-exactness before it times."""

    BASE, CAND, REF = (
        Contender(label, ArrayBackend) for label in ("base", "cand", "ref")
    )

    def entry(self, calls, differs=None):
        """A fake entry whose workload logs ``(label, n, collect)`` and
        fingerprints ``n`` -- or ``-n`` for the ``differs`` label."""
        def workload(contender, n, collect):
            calls.append((contender.label, n, collect))
            flipped = contender.label == differs
            fingerprint = (-n if flipped else n) if collect else None
            return 0.5 if contender is self.BASE else 0.25, n + 1, fingerprint

        return Pairwise(workload, (self.BASE, self.CAND, self.REF),
                        sizes=(8, 16), repeats=2)

    def test_rows_time_baseline_and_candidate_after_all_checks(self):
        calls = []
        rows = self.entry(calls).rows((8, 16))
        assert rows == [
            {"n": n, "rounds": n + 1,
             "seconds": {"base": 0.5, "cand": 0.25},
             "speedup_cand_over_base": 2.0}
            for n in (8, 16)
        ]
        collecting = [call for call in calls if call[2]]
        assert collecting == [
            ("base", 8, True), ("cand", 8, True), ("ref", 8, True),
            ("base", 16, True), ("cand", 16, True),
        ]
        assert calls[:len(collecting)] == collecting
        timed = calls[len(collecting):]
        assert timed == [
            (label, n, False)
            for n in (8, 16) for label in ("base", "base", "cand", "cand")
        ]

    def test_candidate_mismatch_raises_before_any_timed_run(self):
        calls = []
        with pytest.raises(SimulationError) as exc:
            self.entry(calls, differs="cand").rows((8, 16))
        assert str(exc.value) == "cand and base disagree at n=8"
        assert all(collect for _, _, collect in calls)

    def test_reference_mismatch_is_caught_at_the_smallest_size(self):
        calls = []
        with pytest.raises(SimulationError) as exc:
            self.entry(calls, differs="ref").rows((16, 8))
        assert str(exc.value) == "ref and base disagree at n=8"
        assert ("ref", 16, True) not in calls
        assert all(collect for _, _, collect in calls)

    @pytest.mark.parametrize("name,sizes", [
        ("simulator", (8, 16)),
        ("fleet", (8, 16)),
        ("cache", (8, 16)),
        ("array", ()),
        ("nosuch", None),
    ])
    def test_bad_names_and_sizes_are_configuration_errors(self, name, sizes):
        with pytest.raises(ConfigurationError):
            shootout(name, sizes)


#: Every report key ``tools/check_docs.py`` and the matching
#: ``benchmarks/bench_*.py`` gate read; ``*`` walks every row.
READ_KEYS = {
    "simulator": [
        "bit_exact", "workload.n", "seconds",
        "speedup_lattice_over_fraction",
    ],
    "policies": [
        "bit_exact", "sweep.*.n", "sweep.*.seconds",
        "sweep.*.speedup_native_over_callback",
    ],
    "array": [
        "bit_exact", "workload.fraction_checked_at", "numpy", "sweep.*.n",
        "sweep.*.seconds", "sweep.*.speedup_array_over_lattice",
    ],
    "speculative": [
        "bit_exact", "workload.callback_checked_at",
        "workload.fraction_checked_at", "numpy", "sweep.*.n",
        "sweep.*.seconds", "sweep.*.speedup_array_over_lattice",
    ],
    "equations": [
        "bit_exact", "workload.bit_exact_checked_at.distances",
        "workload.bit_exact_checked_at.sweeps", "numpy",
        "distances.*.n", "distances.*.seconds",
        "distances.*.speedup_int_over_fraction",
        "sweeps.*.n", "sweeps.*.seconds",
        "sweeps.*.speedup_int_over_fraction",
    ],
    "fleet": [
        "deterministic_across_executors", "warm_pool", "seconds",
        "parallel_speedup", "cpu_count", "workload.sessions",
        "workload.workers", "scaling.*.workers", "scaling.*.cpu_count",
    ],
    "cache": [
        "bit_exact", "entries", "seconds", "warm_speedup",
        "dedup_speedup", "workload.sessions", "workload.dupes",
    ],
}

TOY_SIZES = {"array": (16,), "speculative": (16,)}


def _values(node, path):
    """Every value at dotted ``path`` in ``node`` (``*`` = each row)."""
    head, _, rest = path.partition(".")
    if head == "*":
        assert isinstance(node, list) and node
        children = node
    else:
        assert head in node, f"missing key {head!r}"
        children = [node[head]]
    if not rest:
        return children
    return [value for child in children for value in _values(child, rest)]


class TestShootouts:
    @pytest.mark.parametrize("name", list(SHOOTOUTS))
    def test_toy_report_carries_every_read_key(self, name):
        sizes = TOY_SIZES.get(name, (8,))
        report = shootout(name, sizes)
        for path in READ_KEYS[name]:
            assert _values(report, path), path
        for key in ("numpy", "cpu_count", "python", "platform"):
            assert key in report
        assert report.get("bit_exact", True) is True
        workload = report["workload"]
        if name == "fleet":
            assert report["deterministic_across_executors"] is True
            assert [row["workers"] for row in report["scaling"]] == [1, 2, 4]
        elif name == "cache":
            assert report["entries"] == 8
            assert workload["backend"] == DEFAULT_BACKEND
        elif name == "equations":
            assert workload["bit_exact_checked_at"] == {
                "distances": list(sizes), "sweeps": list(sizes),
            }
        for key in ("fraction_checked_at", "callback_checked_at"):
            if key in workload:
                assert workload[key] == min(sizes)
        for row in report.get("sweep", []):
            assert row["n"] in sizes and row["rounds"] > 0
