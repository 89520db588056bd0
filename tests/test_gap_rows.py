"""Location-discovery results as one gap vector plus rotations.

In the agreed common frame, agent i's gap vector is agent 0's rotated
by ``sign * i``, so :class:`~repro.protocols.base.GapRows` stores row 0,
the sign and the rows that are not that rotation (the outliers).  The
contract tested here:

* a ``GapRows`` compares equal, from either side, to the plain list of
  lists the collect used to build, on every model, backend, driver and
  numpy axis, and ``to_dict()`` renders the same strings;
* the rotation-1 sweep's rows come off its integer harvest without
  materialising a single :class:`LazyGapColumn`, and the rotation-2
  sweep solves its circulant once;
* a doctored cell makes exactly its agent an outlier, and equality
  still holds;
* ``to_dict`` shares one string object per distinct base value, and
  ``from_dict`` rebuilds the compressed form byte-identically.
"""

import json
import pickle
from fractions import Fraction

import pytest

from repro import RingSession
from repro.api.registry import _collect_location_discovery
from repro.core.scheduler import Scheduler
from repro.experiments.harness import _speculative_preset
from repro.protocols.base import (
    KEY_LD_GAPS,
    GapRows,
    GapRowView,
    LocationDiscoveryResult,
    rotation_sign,
    rotations_coincide,
)
from repro.protocols.policies import location_discovery as native_ld
from repro.protocols.policies.location_discovery import (
    LazyGapColumn,
    _rotation_check,
    collect_gap_rows,
    sweep_rotation_one,
    sweep_rotation_two,
)
from repro.ring import arrayops
from repro.ring.configs import random_configuration
from repro.types import Model

F = Fraction


def _rotations(base, sign):
    n = len(base)
    return [
        [base[(k + sign * i) % n] for k in range(n)] for i in range(n)
    ]


_REFERENCE = {}


def _reference_payload(model, n, seed):
    """``to_dict()`` of the executable spec: the ``fraction`` backend
    driven by the per-agent callback drivers."""
    key = (model, n, seed)
    if key not in _REFERENCE:
        _REFERENCE[key] = RingSession(
            n=n, model=model, backend="fraction", driver="callback",
            seed=seed,
        ).run("location-discovery").to_dict()
    return _REFERENCE[key]


def _old_collect(session):
    """The collect as it was: every agent's column copied to a list."""
    column = session.scheduler.population.get_column(KEY_LD_GAPS)
    return [list(cells) for cells in column]


class TestGapRows:
    BASE = [F(1, 10), F(2, 10), F(3, 10), F(4, 10)]

    @pytest.mark.parametrize("sign", [1, -1])
    def test_rotations_compress_fully_and_compare_equal(self, sign):
        rows = _rotations(self.BASE, sign)
        gaps = GapRows.from_rows(rows)
        assert gaps.sign == sign
        assert gaps.outliers == frozenset()
        assert gaps.base == self.BASE
        assert gaps == rows and rows == gaps
        assert not (gaps != rows)
        assert list(gaps) == rows
        assert len(gaps) == 4
        assert gaps[-1] == rows[-1]
        assert gaps[1:3] == rows[1:3]

    def test_rows_are_fresh_lists_and_the_container_is_read_only(self):
        gaps = GapRows.from_rows(_rotations(self.BASE, 1))
        row = gaps[2]
        row[0] = F(9)
        row.append(F(0))
        assert gaps[2] == _rotations(self.BASE, 1)[2]
        assert gaps[0] is not gaps[0]
        with pytest.raises(TypeError):
            gaps[1] = list(self.BASE)  # type: ignore[index]
        with pytest.raises(IndexError):
            gaps[4]
        with pytest.raises(TypeError):
            hash(gaps)

    def test_differing_rows_become_outliers(self):
        rows = _rotations(self.BASE, -1)
        rows[2] = [F(1, 4)] * 4
        rows[3] = rows[3][:3]
        gaps = GapRows.from_rows(rows)
        assert gaps.sign == -1
        assert gaps.outliers == {2, 3}
        assert gaps == rows and rows == gaps
        changed = [list(row) for row in rows]
        changed[1][0] = F(0)
        assert gaps != changed and changed != gaps

    def test_any_rows_round_trip(self):
        for rows in ([], [[]], [[], []], [[F(1)]], [[F(1), F(2)], [F(3)]],
                     [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]]):
            gaps = GapRows.from_rows(rows)
            assert gaps == rows
            assert len(gaps) == len(rows)
            assert GapRows.from_strings(gaps.to_strings()) == rows

    def test_equality_between_gap_rows_ignores_representation(self):
        rows = _rotations(self.BASE, 1)
        plain = GapRows.from_rows(rows)
        spelled_out = GapRows(
            self.BASE, 4, 1, {i: rows[i] for i in (1, 2, 3)}
        )
        assert spelled_out.outliers == {1, 2, 3}
        assert plain == spelled_out
        assert plain != GapRows.from_rows(rows[:3])
        assert plain != "rows"

    def test_constructor_checks_its_parts(self):
        with pytest.raises(ValueError, match="sign"):
            GapRows(self.BASE, 4, 0)
        with pytest.raises(ValueError, match="outlier"):
            GapRows(self.BASE, 4, 1, {0: self.BASE})
        with pytest.raises(ValueError, match="outlier"):
            GapRows(self.BASE, 4, 1, {4: self.BASE})

    def test_pickles(self):
        rows = _rotations(self.BASE, -1)
        rows[3] = [F(0)] * 4
        gaps = GapRows.from_rows(rows)
        back = pickle.loads(pickle.dumps(gaps))
        assert back == rows
        assert back.outliers == {3} and back.sign == -1

    def test_rotation_sign(self):
        assert rotation_sign([1, 2, 3], [2, 3, 1]) == 1
        assert rotation_sign([1, 2, 3], [3, 1, 2]) == -1
        # Neither rotation by one place (or another length): no sign.
        assert rotation_sign([1, 2, 3], [1, 2, 3]) is None
        assert rotation_sign([1, 2, 3], [2, 3]) is None
        # Both rotations (they coincide): no sign either.
        assert rotation_sign([1], [1]) is None
        assert rotation_sign([1, 2, 3, 4], [3, 4, 1, 2], 2) is None
        # Rotations by i places.
        assert rotation_sign([1, 2, 3, 4], [4, 1, 2, 3], 3) == 1
        assert rotation_sign([1, 2, 3, 4], [2, 3, 4, 1], 3) == -1
        assert rotation_sign([1, 2, 3, 4], [2, 3, 4, 1], 2) is None
        assert rotations_coincide([1, 2, 1, 2]) and rotations_coincide([1])
        assert not rotations_coincide([1, 2, 3, 4])

    def test_result_converts_plain_rows(self):
        rows = _rotations(self.BASE, 1)
        result = LocationDiscoveryResult(rounds=3, gaps_by_agent=rows)
        assert isinstance(result.gaps_by_agent, GapRows)
        assert result.gaps_by_agent == rows
        assert LocationDiscoveryResult(rounds=0).gaps_by_agent == []
        assert result == LocationDiscoveryResult(
            rounds=3, gaps_by_agent=GapRows.from_rows(rows)
        )

    def test_strings_share_one_object_per_base_value(self):
        gaps = GapRows.from_rows(_rotations(self.BASE, -1))
        texts = gaps.to_strings()
        assert texts == [[str(g) for g in row] for row in gaps]
        assert len({id(t) for row in texts for t in row}) == 4
        back = GapRows.from_strings(json.loads(json.dumps(texts)))
        assert back.sign == -1 and back.outliers == frozenset()
        assert back == gaps

    def test_from_strings_parses_a_differing_row_on_its_own(self):
        texts = GapRows.from_rows(_rotations(self.BASE, 1)).to_strings()
        texts[3] = ["1/4"] * 4
        back = GapRows.from_strings(texts)
        assert back.outliers == {3}
        assert back[3] == [F(1, 4)] * 4
        assert len({id(value) for value in back[3]}) == 1  # interned
        assert back.to_strings() == texts


#: (model, n, seeds): the two seeds give one ring whose common frame
#: runs with the index order (sign +1) and one against it (sign -1).
MODEL_CASES = [
    pytest.param("lazy", 12, (2, 4), id="lazy"),
    pytest.param("basic", 11, (1, 4), id="basic"),
    pytest.param("perceptive", 9, (0, 4), id="perceptive-odd"),
    pytest.param("perceptive", 10, (0, 1), id="perceptive-even"),
]


class TestEquivalence:
    """``gaps_by_agent`` equals the old collect on every path."""

    @pytest.mark.parametrize("model,n,seeds", MODEL_CASES)
    @pytest.mark.parametrize("backend", ["array", "fraction"])
    @pytest.mark.parametrize("driver", ["native", "callback"])
    def test_equals_old_collect_and_old_rendering(
        self, numpy_axis, model, n, seeds, backend, driver
    ):
        signs = set()
        for seed in seeds:
            session = RingSession(
                n=n, model=model, backend=backend, driver=driver,
                seed=seed,
            )
            result = session.run("location-discovery")
            old = _old_collect(session)
            assert result.gaps_by_agent == old
            assert old == result.gaps_by_agent
            assert result.gaps_by_agent.outliers == frozenset()
            assert result.to_dict()["gaps_by_agent"] == [
                [str(g) for g in row] for row in old
            ]
            assert result.to_dict() == _reference_payload(model, n, seed)
            signs.add(result.gaps_by_agent.sign)
        assert signs == {1, -1}

    @pytest.mark.parametrize("model,n,seeds", MODEL_CASES[:3])
    def test_multi_block_sweeps(self, numpy_axis, monkeypatch, model, n,
                                seeds):
        monkeypatch.setattr(native_ld, "_MAX_CHUNK", 4)
        for seed in seeds:
            session = RingSession(n=n, model=model, seed=seed)
            result = session.run("location-discovery")
            old = _old_collect(session)
            assert result.gaps_by_agent == old
            assert result.to_dict()["gaps_by_agent"] == [
                [str(g) for g in row] for row in old
            ]
            assert result.to_dict() == _reference_payload(model, n, seed)


class TestLazyCollect:
    def test_collect_reads_no_lazy_column_at_n1024(self):
        session = RingSession(n=1024, model="lazy", backend="array", seed=3)
        result = session.run("location-discovery")
        column = session.scheduler.population.get_column(KEY_LD_GAPS)
        assert all(type(cells) is LazyGapColumn for cells in column)
        assert all(cells._cells is None for cells in column)
        assert result.gaps_by_agent.outliers == frozenset()
        assert len(result.gaps_by_agent) == 1024

    def test_counter_clockwise_frame_compresses_fully(self, numpy_axis):
        session = RingSession(n=16, model="lazy", seed=0)
        result = session.run("location-discovery")
        gaps = result.gaps_by_agent
        assert gaps.sign == -1
        assert gaps.outliers == frozenset()
        assert gaps == _old_collect(session)

    def test_to_dict_rows_share_n_strings_and_round_trip(self):
        n = 64
        result = RingSession(n=n, model="lazy", seed=5).run(
            "location-discovery"
        )
        payload = result.to_dict()
        rows = payload["gaps_by_agent"]
        assert len({id(text) for row in rows for text in row}) <= n
        fetched = json.loads(json.dumps(payload))
        back = LocationDiscoveryResult.from_dict(fetched)
        assert back.gaps_by_agent.outliers == frozenset()
        assert back.gaps_by_agent.sign == result.gaps_by_agent.sign
        assert back == result
        assert json.dumps(back.to_dict()) == json.dumps(payload)


def _swept(n, seed, model, sweep, chunk, monkeypatch):
    monkeypatch.setattr(native_ld, "_MAX_CHUNK", chunk)
    state = random_configuration(n, seed=seed, common_sense=False)
    sched = Scheduler(state, model, backend="array")
    _speculative_preset(sched, leader=True, labels=False)
    sweep(sched)
    return sched


def _doctor(harvest, round_index, slot, delta=1):
    """Add ``delta`` to one numerator of the harvest, in place."""
    for block in harvest.blocks:
        if round_index < len(block):
            if isinstance(block, list):
                block[round_index][slot] += delta
            else:
                block[round_index, slot] += delta
            return
        round_index -= len(block)
    raise AssertionError("round out of range")


class TestDoctoredRuns:
    @pytest.mark.parametrize("slot", [5, 0])
    def test_doctored_harvest_cell_makes_its_agent_an_outlier(
        self, numpy_axis, monkeypatch, slot
    ):
        n = 13
        sched = _swept(n, 2, Model.LAZY, sweep_rotation_one, 4, monkeypatch)
        column = sched.population.get_column(KEY_LD_GAPS)
        harvest = column[0]._harvest
        assert len(harvest.blocks) > 2
        _doctor(harvest, 9, slot)
        gaps = collect_gap_rows(column)
        expected = {5} if slot else set(range(1, n))
        assert gaps.outliers == expected
        assert all(cells._cells is None for cells in column)
        plain = [list(cells) for cells in column]
        assert gaps == plain and plain == gaps

    def test_doctored_population_cell_goes_through_from_rows(
        self, numpy_axis, monkeypatch
    ):
        sched = _swept(9, 1, Model.LAZY, sweep_rotation_one, 2048,
                       monkeypatch)
        column = sched.population.get_column(KEY_LD_GAPS)
        doctored = list(column[3])
        doctored[0] += F(1, 1000)
        doctored[1] -= F(1, 1000)
        column[3] = doctored
        result = _collect_location_discovery(sched, {})
        assert result.gaps_by_agent.outliers == {3}
        plain = [list(cells) for cells in column]
        assert result.gaps_by_agent == plain and plain == result.gaps_by_agent
        assert result.to_dict()["gaps_by_agent"][3] == [
            str(g) for g in doctored
        ]

    def test_rows_that_are_not_a_ring_are_all_outliers(self):
        assert _rotation_check([[[1, 2, 3]]], 3) == ([1], 1, {1, 2})


class TestSignFromTheFirstRotation:
    """A doctored row 1 does not pick the sign: the first row that is a
    rotation of row 0 does, so only the doctored agent is an outlier
    (taking the sign from row 1 alone made agent 3 one too)."""

    BASE = [F(1, 10), F(2, 10), F(3, 10), F(4, 10)]

    def test_reference_constructors(self):
        rows = _rotations(self.BASE, -1)
        rows[1] = [F(0), F(1, 2), F(1, 4), F(1, 4)]
        texts = [[str(g) for g in row] for row in rows]
        for gaps in (GapRows.from_rows(rows), GapRows.from_strings(texts)):
            assert gaps.sign == -1
            assert gaps.outliers == {1}
            assert gaps == rows and rows == gaps

    def test_integer_blocks(self, numpy_axis):
        n = 4
        base = [1, 2, 3, 4]
        # Row t holds round t, cell s slot s: slot s's column is
        # column 0 rotated by -s.
        rows = [[base[(t - s) % n] for s in range(n)] for t in range(n)]
        rows[0][1] += 7
        blocks = [[rows[:3], rows[3:]]]
        np = arrayops.get_numpy()
        if np is not None:
            matrix = np.asarray(rows, dtype=np.int64)
            blocks += [[matrix], [matrix[:1], rows[1:]]]
        for block_list in blocks:
            assert _rotation_check(block_list, n) == (base, -1, {1})


class TestRotationTwoSolvesOnce:
    def _count_solves(self, monkeypatch):
        calls = []
        real = native_ld.solve_cyclic_pair_sums_ints

        def counting(sums, den, cache=None):
            calls.append(list(sums))
            return real(sums, den, cache=cache)

        monkeypatch.setattr(native_ld, "solve_cyclic_pair_sums_ints",
                            counting)
        return calls

    @pytest.mark.parametrize("chunk", [4, 2048])
    def test_one_solve_and_same_gaps_as_the_spec(
        self, numpy_axis, monkeypatch, chunk
    ):
        calls = self._count_solves(monkeypatch)
        sched = _swept(11, 4, Model.BASIC, sweep_rotation_two, chunk,
                       monkeypatch)
        assert len(calls) == 1
        monkeypatch.setattr(native_ld, "_MAX_CHUNK", 2048)
        state = random_configuration(11, seed=4, common_sense=False)
        spec = Scheduler(state, Model.BASIC, backend="array")
        _speculative_preset(spec, leader=True, labels=False)
        sweep_rotation_two(spec, engine="fraction")
        got = sched.population.get_column(KEY_LD_GAPS)
        assert got == spec.population.get_column(KEY_LD_GAPS)

    def test_sweep_publishes_one_gap_rows(self, numpy_axis, monkeypatch):
        def no_reference(rows):
            raise AssertionError("the collect compared the rows again")

        sched = _swept(13, 4, Model.BASIC, sweep_rotation_two, 4,
                       monkeypatch)
        column = sched.population.get_column(KEY_LD_GAPS)
        rows = column[0].rows
        assert isinstance(rows, GapRows)
        assert all(
            isinstance(cell, GapRowView) and cell.rows is rows
            and cell.index == slot
            for slot, cell in enumerate(column)
        )
        plain = [list(cells) for cells in column]
        assert plain == rows and column == plain and plain == column
        monkeypatch.setattr(GapRows, "from_rows", no_reference)
        assert collect_gap_rows(column) is rows
        result = _collect_location_discovery(sched, {})
        assert result.gaps_by_agent is rows
        monkeypatch.undo()
        # A doctored cell sends the collect back to the reference.
        column[5] = [F(0)] * 13
        assert collect_gap_rows(column).outliers == {5}

    def test_doctored_slot_keeps_its_own_solve(self, numpy_axis,
                                               monkeypatch):
        n = 11
        calls = self._count_solves(monkeypatch)
        take = native_ld._GapHarvest.take_pair_sum_gaps
        own = {}

        def doctored_take(harvest):
            _doctor(harvest, 6, 7, delta=3)
            sums = harvest.column_ints(7)
            ordered = [0] * len(sums)
            for t, value in enumerate(sums):
                ordered[(2 * t) % len(sums)] = value
            own["gaps"] = native_ld.solve_cyclic_pair_sums_ints(
                ordered, harvest.scale
            )
            calls.clear()
            return take(harvest)

        monkeypatch.setattr(native_ld._GapHarvest, "take_pair_sum_gaps",
                            doctored_take)
        sched = _swept(n, 4, Model.BASIC, sweep_rotation_two, 4,
                       monkeypatch)
        assert len(calls) == 2
        column = sched.population.get_column(KEY_LD_GAPS)
        assert column[7] == own["gaps"]
        result = _collect_location_discovery(sched, {})
        assert result.gaps_by_agent.outliers == {7}
        assert result.gaps_by_agent == column
