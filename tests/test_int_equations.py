"""Tests for the fraction-free equation engine and the columnar
location-discovery harvests.

The load-bearing claim is equivalence: :class:`IntEquationSystem` must
be observably identical to the exact-`Fraction`
:class:`EquationSystem` spec (rank trajectory, contradiction
behaviour, solutions), and the lazy integer harvests must leave the
protocols' outputs bit-for-bit unchanged.  The payoff claim is also
tested: an integer-mode Distances run on the array backend performs
*zero* Fraction arithmetic.
"""

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.equations import Equation, EquationSystem
from repro.analysis.int_equations import IntEquation, IntEquationSystem
from repro.analysis.linear_system import (
    solve_cyclic_pair_sums,
    solve_cyclic_pair_sums_ints,
)
from repro.core.scheduler import Scheduler
from repro.exceptions import ProtocolError, SingularSystemError
from repro.experiments.harness import _speculative_preset
from repro.protocols.base import KEY_LD_GAPS, GapRowView
from repro.protocols.policies.distances import discover_distances
from repro.protocols.policies.location_discovery import (
    LazyGapColumn,
    _GapHarvest,
    sweep_rotation_one,
    sweep_rotation_two,
)
from repro.ring.configs import random_configuration
from repro.types import Model

F = Fraction

DEN = 840  # highly divisible shared denominator, like the backends'


def _spec_window(n, start, count, num):
    return Equation.window(n, start, count, F(1), F(num, DEN))


class TestIntEquationWindow:
    def test_matches_spec_window_and_stays_integer(self):
        for n, start, count in [
            (4, 3, 2), (5, 0, 5), (6, 4, 9), (3, 2, 1), (4, -1, 3),
        ]:
            eq = IntEquation.window(n, start, count, value=7)
            assert eq == (start % n, count, 7)
            assert all(type(field) is int for field in eq)
            spec = Equation.window(n, start, count, F(1), F(7, DEN))
            assert IntEquationSystem(n, DEN)._spec_equation(eq) == spec


class TestIntEquationSystemEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_rank_trajectory_contradictions_and_solutions(self, data):
        """Feed the same random window equations (occasionally
        corrupted into contradictions) to both engines and require
        identical observable behaviour at every step."""
        import random

        n = data.draw(st.integers(min_value=1, max_value=14))
        rng = random.Random(data.draw(st.integers(0, 100_000)))
        x_nums = [rng.randint(-3 * DEN, 3 * DEN) for _ in range(n)]
        int_sys = IntEquationSystem(n, DEN)
        spec = EquationSystem(n)
        for _ in range(4 * n):
            # Records need not hold a reduced start; the system wraps
            # it onto the ring itself.
            start = rng.randrange(-2 * n, 3 * n)
            count = rng.randint(1, 3 * n)
            num = sum(x_nums[(start + k) % n] for k in range(count))
            if rng.random() < 0.1:
                num += rng.randint(1, 5)  # corrupt: may contradict
            int_raised = spec_raised = False
            try:
                grew = int_sys.add(IntEquation(start, count, num))
            except SingularSystemError:
                int_raised = True
            try:
                expected = spec.add(_spec_window(n, start, count, num))
            except SingularSystemError:
                spec_raised = True
            assert int_raised == spec_raised
            if not int_raised:
                assert grew == expected
            assert int_sys.rank == spec.rank
            assert int_sys.full_rank == spec.full_rank
        if int_sys.full_rank:
            assert int_sys.solve() == spec.solve()
        else:
            with pytest.raises(SingularSystemError):
                int_sys.solve()
            assert int_sys.solve_if_ready() is None

    def test_recovers_exact_gaps_at_larger_n(self):
        import random

        for n in (17, 33, 64):
            rng = random.Random(n)
            x_nums = [rng.randint(0, DEN) for _ in range(n)]
            int_sys = IntEquationSystem(n, DEN)
            while not int_sys.full_rank:
                start = rng.randrange(n)
                count = rng.randint(1, n)
                num = sum(x_nums[(start + k) % n] for k in range(count))
                int_sys.add(IntEquation.window(n, start, count, num))
            assert int_sys.solve() == [F(v, DEN) for v in x_nums]

    def test_wrap_only_window_pins_L_and_a_contradicting_wrap_raises(self):
        """A window of whole laps is a self-loop on one prefix-sum node:
        it pins the circumference L on its own.  Later wraps that agree
        with L are redundant, and one that disagrees raises on both
        engines, whether it is another self-loop or closes a cycle."""
        n = 4
        int_sys = IntEquationSystem(n, DEN)
        spec = EquationSystem(n)

        def both_add(start, count, num):
            grew = int_sys.add(IntEquation.window(n, start, count, num))
            assert grew == spec.add(_spec_window(n, start, count, num))
            assert int_sys.rank == spec.rank
            return grew

        assert both_add(1, 2 * n, 200)
        assert int_sys.rank == 1
        assert not both_add(3, n, 100)
        assert both_add(0, 1, 10)
        assert not both_add(1, n - 1, 90)
        for start, count, num in [(2, n, 101), (1, n - 1, 91)]:
            with pytest.raises(SingularSystemError, match="contradicts"):
                int_sys.add(IntEquation.window(n, start, count, num))
            with pytest.raises(SingularSystemError, match="contradicts"):
                spec.add(_spec_window(n, start, count, num))
        assert int_sys.rank == spec.rank == 2

    def test_long_chain_added_in_reverse_order_solves_exactly(self):
        """Unit windows added from the far end hang each prefix-sum
        node under its predecessor, a chain n - 1 deep.  The first find
        from its deep end must walk it without recursion and re-base
        every potential onto the root."""
        n = 1500
        x_nums = [(7 * k) % 13 - 6 for k in range(n)]
        int_sys = IntEquationSystem(n, DEN)
        for k in reversed(range(n - 1)):
            assert int_sys.add(IntEquation.window(n, k, 1, x_nums[k]))
        assert int_sys.rank == n - 1
        assert int_sys.add(IntEquation.window(n, n - 1, n, sum(x_nums)))
        assert int_sys._parent == [0] * n
        assert int_sys.solve() == [F(v, DEN) for v in x_nums]

    def test_systems_solved_through_one_intern_dict_share_cells(self):
        """Equal cells come back as one object, within a system and
        across systems, even when their shared denominators differ."""
        x_nums = [10, 20, 10]
        interned = {}
        solutions = []
        for den_scale in (1, 2):
            int_sys = IntEquationSystem(3, DEN * den_scale)
            for start, count in [(0, 1), (1, 1), (2, 4)]:
                num = sum(x_nums[(start + k) % 3] for k in range(count))
                int_sys.add(
                    IntEquation.window(3, start, count, num * den_scale)
                )
            solutions.append(int_sys.solve(interned))
        first, second = solutions
        assert first == second == [F(v, DEN) for v in x_nums]
        assert first[0] is first[2]
        assert all(a is b for a, b in zip(first, second))

    def test_cross_check_mode_runs_both_engines(self):
        sys_ = IntEquationSystem(3, DEN, cross_check=True)
        assert sys_.add(IntEquation.window(3, 0, 1, 10))
        assert sys_.add(IntEquation.window(3, 1, 1, 20))
        assert not sys_.add(IntEquation.window(3, 0, 2, 30))
        assert sys_.add(IntEquation.window(3, 0, 3, 60))
        assert sys_._shadow is not None and sys_._shadow.rank == 3
        assert sys_.solve() == [F(10, DEN), F(20, DEN), F(30, DEN)]
        with pytest.raises(SingularSystemError):
            sys_.add(IntEquation.window(3, 0, 3, 61))

    def test_invalid_den_rejected(self):
        with pytest.raises(ValueError):
            IntEquationSystem(3, 0)


class TestCyclicPairSumsInts:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_fraction_solver(self, data):
        import random

        n = data.draw(st.sampled_from([3, 5, 7, 9, 11]))
        rng = random.Random(data.draw(st.integers(0, 9999)))
        x_nums = [rng.randint(-5 * DEN, 5 * DEN) for _ in range(n)]
        sums = [x_nums[j] + x_nums[(j + 1) % n] for j in range(n)]
        got = solve_cyclic_pair_sums_ints(sums, DEN)
        want = solve_cyclic_pair_sums([F(s, DEN) for s in sums])
        assert got == want
        assert got == [F(v, DEN) for v in x_nums]

    def test_even_n_raises(self):
        with pytest.raises(SingularSystemError):
            solve_cyclic_pair_sums_ints([1, 2, 3, 4], DEN)

    def test_shared_cache_interns_across_calls(self):
        cache = {}
        a = solve_cyclic_pair_sums_ints([3, 4, 5], DEN, cache=cache)
        b = solve_cyclic_pair_sums_ints([3, 4, 5], DEN, cache=cache)
        for cell_a, cell_b in zip(a, b):
            assert cell_a is cell_b


def _distances_sched(n, seed, backend="array", **kwargs):
    state = random_configuration(n, seed=seed, common_sense=False)
    sched = Scheduler(state, Model.PERCEPTIVE, backend=backend, **kwargs)
    _speculative_preset(sched, leader=False, labels=True)
    return sched


def _spy_cross_checks(monkeypatch):
    """The ``cross_check`` flag of every IntEquationSystem built."""
    seen = []
    original = IntEquationSystem.__init__

    def spy(self, n, den, cross_check=False):
        seen.append(cross_check)
        original(self, n, den, cross_check=cross_check)

    monkeypatch.setattr(IntEquationSystem, "__init__", spy)
    return seen


class TestNativeDistancesEngines:
    def test_engines_agree_bit_exactly(self):
        results = {}
        for engine in ("int", "fraction"):
            sched = _distances_sched(10, seed=3)
            rounds = discover_distances(sched, engine=engine)
            results[engine] = (
                rounds,
                sched.state.snapshot(),
                [
                    list(col)
                    for col in sched.population.get_column(KEY_LD_GAPS)
                ],
            )
        assert results["int"] == results["fraction"]

    def test_cross_engine_matches_fraction_engine_at_n48(self):
        results = {}
        for engine in ("cross", "fraction"):
            sched = _distances_sched(48, seed=9)
            rounds = discover_distances(sched, engine=engine)
            results[engine] = (
                rounds,
                sched.state.snapshot(),
                [
                    list(col)
                    for col in sched.population.get_column(KEY_LD_GAPS)
                ],
            )
        assert results["cross"] == results["fraction"]

    def test_discovery_memory_is_linear_per_agent(self):
        """Each agent's system is three length-n lists, so discovery at
        n = 128 peaks at about 2 MiB of traced allocations; one n x n
        int64 matrix per agent alone would be 16 MiB."""
        sched = _distances_sched(128, seed=7)
        tracemalloc.start()
        try:
            discover_distances(sched)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20, f"peak {peak / (1 << 20):.1f} MiB"

    def test_unknown_engine_rejected(self):
        sched = _distances_sched(8, seed=0)
        with pytest.raises(ProtocolError, match="unknown equation engine"):
            discover_distances(sched, engine="decimal")

    def test_cross_engine_runs_lockstep_shadow(self, monkeypatch):
        seen = _spy_cross_checks(monkeypatch)
        sched = _distances_sched(8, seed=1)
        discover_distances(sched, engine="cross")
        assert seen == [True] * 8
        gaps = sched.population.get_column(KEY_LD_GAPS)
        assert sum(gaps[0], F(0)) == 1

    def test_cross_engine_on_fraction_backend_checks_int_engine(
        self, monkeypatch
    ):
        """Replayed spans carry integer columns, so ``engine="cross"``
        on the ``fraction`` backend shadows one IntEquationSystem per
        agent on the spec, and agrees with the plain run."""
        n = 10
        results = {}
        for engine in (None, "cross"):
            seen = _spy_cross_checks(monkeypatch)
            sched = _distances_sched(n, seed=3, backend="fraction")
            rounds = discover_distances(sched, engine=engine)
            results[engine] = (
                rounds,
                sched.state.snapshot(),
                [
                    list(col)
                    for col in sched.population.get_column(KEY_LD_GAPS)
                ],
            )
            assert seen == [engine == "cross"] * n
        assert results["cross"] == results[None]

    def test_int_mode_runs_zero_fraction_arithmetic(self, monkeypatch):
        """The acceptance gate: a native array-backend Distances run in
        integer mode must perform no Fraction arithmetic at all --
        harvest, elimination and back-substitution are integer-only,
        and Fractions appear solely via constructor calls on read."""
        pytest.importorskip("numpy")
        sched = _distances_sched(12, seed=5)
        calls = {"arith": 0}
        adds = {"n": 0}

        def counting(name):
            real = getattr(Fraction, name)

            def wrapper(self, other):
                calls["arith"] += 1
                return real(self, other)

            return wrapper

        real_add = IntEquationSystem.add

        def counting_add(self, eq):
            adds["n"] += 1
            return real_add(self, eq)

        monkeypatch.setattr(IntEquationSystem, "add", counting_add)
        for name in (
            "__mul__", "__rmul__", "__add__", "__radd__",
            "__sub__", "__rsub__", "__truediv__", "__rtruediv__",
        ):
            monkeypatch.setattr(Fraction, name, counting(name))
        rounds = discover_distances(sched)
        assert rounds == 12 // 2 + 3
        assert adds["n"] > 0, "the int engine was not exercised"
        assert calls["arith"] == 0, (
            f"{calls['arith']} Fraction arithmetic calls leaked into "
            "the integer-mode hot path"
        )
        # The run still produced the exact gap vectors.
        gaps = sched.population.get_column(KEY_LD_GAPS)
        assert sum(gaps[0], F(0)) == 1


def _sweep_sched(n, seed, model, **kwargs):
    state = random_configuration(n, seed=seed, common_sense=False)
    sched = Scheduler(state, model, backend="array", **kwargs)
    _speculative_preset(sched, leader=True, labels=False)
    return sched


class TestColumnarSweepHarvest:
    def test_rotation_one_engines_agree_and_columns_are_lazy(self):
        results = {}
        for engine in ("int", "fraction"):
            sched = _sweep_sched(9, seed=2, model=Model.LAZY)
            rounds = sweep_rotation_one(sched, engine=engine)
            column = sched.population.get_column(KEY_LD_GAPS)
            if engine == "int":
                # Views of one GapRows, none of them read yet.
                assert all(
                    isinstance(cells, GapRowView)
                    and cells.rows is column[0].rows
                    and cells._cells is None
                    for cells in column
                )
            results[engine] = (rounds, [list(cells) for cells in column])
        assert results["int"] == results["fraction"]

    def test_rotation_two_engines_agree(self):
        results = {}
        for engine in ("int", "fraction"):
            sched = _sweep_sched(11, seed=4, model=Model.BASIC)
            rounds = sweep_rotation_two(sched, engine=engine)
            column = sched.population.get_column(KEY_LD_GAPS)
            results[engine] = (rounds, [list(cells) for cells in column])
        assert results["int"] == results["fraction"]

    def test_lazy_column_contract(self, monkeypatch):
        # Rows that fail the streaming check (forced here) leave the
        # rotation-1 sweep's cells as views over the rebuilt harvest.
        monkeypatch.setattr(_GapHarvest, "ring_rows", lambda self: None)
        sched = _sweep_sched(7, seed=1, model=Model.LAZY)
        sweep_rotation_one(sched)
        column = sched.population.get_column(KEY_LD_GAPS)
        cells = column[0]
        assert isinstance(cells, LazyGapColumn)
        assert cells._cells is None
        # Reads materialise interned Fractions; equality works against
        # plain lists from either side, and mismatches stay False.
        as_list = list(cells)
        assert cells._cells is not None
        assert cells == as_list
        assert as_list == cells
        assert cells == tuple(as_list)
        assert not (cells == as_list[:-1])
        assert cells != object()
        assert hash(cells) == hash(tuple(as_list))
        assert len(cells) == len(as_list)
        assert cells[0] == as_list[0]
        assert sum(as_list, F(0)) == 1

    def test_unknown_engine_rejected(self):
        sched = _sweep_sched(7, seed=0, model=Model.LAZY)
        with pytest.raises(ProtocolError, match="unknown harvest engine"):
            sweep_rotation_one(sched, engine="decimal")
