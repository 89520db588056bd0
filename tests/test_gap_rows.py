"""Location-discovery results as one gap vector plus rotations.

In the agreed common frame, agent i's gap vector is agent 0's rotated
by ``sign * i``, so :class:`~repro.protocols.base.GapRows` stores row 0,
the sign and the rows that are not that rotation (the outliers).  The
contract tested here:

* a ``GapRows`` compares equal, from either side, to the plain list of
  lists the collect used to build, on every model, backend, driver and
  numpy axis, and ``to_dict()`` renders the same strings;
* both sweeps check their integer harvest as it streams in and
  publish one ``GapRows`` (the rotation-2 sweep after one circulant
  solve), the streaming verdict agrees with the reference
  :func:`_rotation_check` on every input, and a sweep retains O(n)
  memory (its spans' columns are released and rebuilt a row at a
  time on a later read);
* a doctored cell makes exactly its agent an outlier, and equality
  still holds;
* ``to_dict`` shares one string object per distinct base value, and
  ``from_dict`` rebuilds the compressed form byte-identically.
"""

import json
import pickle
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro import RingSession
from repro.api.registry import _collect_location_discovery
from repro.core.scheduler import Scheduler
from repro.exceptions import ProtocolError
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
    _GapHarvest,
    _rotation_check,
    collect_gap_rows,
    sweep_rotation_one,
    sweep_rotation_two,
)
from repro.ring import arrayops, backends
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
        monkeypatch.setattr(native_ld, "_CHUNK_CELLS", 4 * n)
        for seed in seeds:
            session = RingSession(n=n, model=model, seed=seed)
            result = session.run("location-discovery")
            old = _old_collect(session)
            assert result.gaps_by_agent == old
            assert result.to_dict()["gaps_by_agent"] == [
                [str(g) for g in row] for row in old
            ]
            assert result.to_dict() == _reference_payload(model, n, seed)

    @pytest.mark.parametrize("model,n,seeds", MODEL_CASES[:3])
    def test_fallback_gives_the_streamed_rows(self, numpy_axis, monkeypatch,
                                              model, n, seeds):
        """Rows that fail the streaming check go to the reference
        checks over rebuilt blocks; on a clean run those give exactly
        the streamed result."""
        monkeypatch.setattr(native_ld, "_CHUNK_CELLS", 4 * n)
        for seed in seeds:
            fast = RingSession(n=n, model=model, seed=seed).run(
                "location-discovery"
            )
            with monkeypatch.context() as patched:
                patched.setattr(_GapHarvest, "ring_rows", lambda self: None)
                slow = RingSession(n=n, model=model, seed=seed).run(
                    "location-discovery"
                )
            parts = [
                (gaps.base, gaps.sign, gaps.outliers)
                for gaps in (fast.gaps_by_agent, slow.gaps_by_agent)
            ]
            assert parts[0] == parts[1]
            assert slow.to_dict() == fast.to_dict()


class TestLazyCollect:
    def test_collect_reads_no_lazy_column_at_n1024(self):
        session = RingSession(n=1024, model="lazy", backend="array", seed=3)
        result = session.run("location-discovery")
        column = session.scheduler.population.get_column(KEY_LD_GAPS)
        rows = result.gaps_by_agent
        assert all(
            type(cells) is GapRowView and cells.rows is rows
            for cells in column
        )
        assert all(cells._cells is None for cells in column)
        assert rows.outliers == frozenset()
        assert len(rows) == 1024

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


def _swept(n, seed, model, sweep, chunk, monkeypatch, doctor=None):
    """Run ``sweep`` on a fresh ring in ``chunk``-round chunks, with
    ``doctor`` (a ``{round: (slot, delta)}`` map, see
    :func:`_doctor_at_source`) applied to the sweep's cells."""
    monkeypatch.setattr(native_ld, "_CHUNK_CELLS", chunk * n)
    state = random_configuration(n, seed=seed, common_sense=False)
    sched = Scheduler(state, model, backend="array")
    _speculative_preset(sched, leader=True, labels=False)
    if doctor:
        _doctor_at_source(monkeypatch, n, doctor)
    sweep(sched)
    return sched


def _doctor_at_source(monkeypatch, n, doctor):
    """Add ``delta`` to ``slot``'s dist numerator in each ``{round:
    (slot, delta)}`` round of the next sweep, wherever the span
    computes it: in the chunk the stop predicate reads, and in every
    recompute after the span released its columns.  A round is told
    by its start offset, which is distinct for each of a sweep's
    rounds; the first span built is the sweep's first chunk."""
    real = backends._span_dist
    targets = {}

    def doctored(span):
        dist = real(span)
        if not targets:
            step = span.rotations[0]
            targets.update({
                (span.start + t * step) % n: cell
                for t, cell in doctor.items()
            })
        off = span.start
        for j, r in enumerate(span.rotations):
            cell = targets.get(off)
            if cell is not None:
                slot, delta = cell
                dist[j][slot] += delta
            off = (off + r) % n
        return dist

    monkeypatch.setattr(backends, "_span_dist", doctored)


class TestDoctoredRuns:
    @pytest.mark.parametrize("slot,rounds", [
        pytest.param(5, (9, 12), id="slot5-late"),
        pytest.param(0, (9, 12), id="slot0-late"),
        pytest.param(5, (5, 6), id="slot5-middle-chunk"),
        pytest.param(5, (1, 2), id="slot5-row1"),
    ])
    def test_doctored_harvest_cell_makes_its_agent_an_outlier(
        self, numpy_axis, monkeypatch, slot, rounds
    ):
        # +1 and -1 on one slot keep its total a full turn, so the
        # sweep closes on the same round and only the check notices.
        n = 13
        first, second = rounds
        sched = _swept(n, 2, Model.LAZY, sweep_rotation_one, 4,
                       monkeypatch,
                       doctor={first: (slot, 1), second: (slot, -1)})
        column = sched.population.get_column(KEY_LD_GAPS)
        assert all(type(cells) is LazyGapColumn for cells in column)
        assert len(column[0]._harvest.blocks) == 4
        gaps = collect_gap_rows(column)
        expected = {5} if slot else set(range(1, n))
        assert gaps.outliers == expected
        assert all(cells._cells is None for cells in column)
        plain = [list(cells) for cells in column]
        assert gaps == plain and plain == gaps
        monkeypatch.undo()
        clean = _swept(n, 2, Model.LAZY, sweep_rotation_one, 4,
                       monkeypatch)
        truth = collect_gap_rows(
            clean.population.get_column(KEY_LD_GAPS)
        )
        # Only the doctored agent's own row moved.
        assert [gaps[i] for i in range(n) if i != slot] == [
            truth[i] for i in range(n) if i != slot
        ]
        assert gaps[slot] != truth[slot]

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


class _Rows:
    """A stand-in stretch outcome over given integer rows."""

    def __init__(self, rows, np):
        self.k = len(rows)
        self.np = np
        self._rows = rows

    def dist_ints(self, j):
        return self._rows[j]

    def dist_ints_all(self):
        return self.np.asarray(self._rows, dtype=self.np.int64)

    def release_columns(self):
        pass


class TestStreamingCheck:
    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(5, 9),
        step=st.sampled_from([1, 2]),
        sign=st.sampled_from([1, -1]),
        extra=st.sampled_from([0, 0, 0, -1, 1, 6]),
        data=st.data(),
    )
    def test_verdict_matches_the_reference_checks(self, n, step, sign,
                                                  extra, data):
        """The streamed rows are exactly what the reference checks
        give, and the harvest streams exactly when those find no
        outlier in a ring's worth of rows; slot totals fold alike."""
        if step == 2 and n % 2 == 0:
            n += 1  # the rotation-2 sweep runs on odd rings only
        # Few distinct values, so rotations coincide now and then.
        top = data.draw(st.integers(1, 3))
        base = data.draw(st.lists(st.integers(0, top), min_size=n,
                                  max_size=n))
        count = n + extra
        rows = [
            [base[(step * t + sign * s) % n] for s in range(n)]
            for t in range(count)
        ]
        for _ in range(data.draw(st.integers(0, 2))):
            t = data.draw(st.integers(0, count - 1))
            rows[t][data.draw(st.integers(0, n - 1))] += 1
        cuts = sorted(set(data.draw(
            st.lists(st.integers(1, count - 1), max_size=3)
        )))
        np = arrayops.get_numpy()
        leaf = np if np is not None and data.draw(st.booleans()) else None
        harvest = _GapHarvest(n, step, 7, [False] * n, {})
        totals = [0] * n
        for a, b in zip([0] + cuts, cuts + [count]):
            chunk = harvest.add_result(_Rows(rows[a:b], leaf), True)
            totals = [x + y for x, y in zip(totals, chunk)]
        assert totals == [sum(column) for column in zip(*rows)]
        streamed = harvest.ring_rows()
        if count != n:
            assert streamed is None
            return
        harvest.rebuild()
        reference = (
            harvest.gap_rows() if step == 1
            else harvest.take_pair_sum_gaps()
        )
        if streamed is None:
            assert reference.outliers
        else:
            assert (streamed.base, streamed.sign, streamed.outliers) == (
                reference.base, reference.sign, reference.outliers
            )


class TestChunkPlan:
    """Chunks hold ``_CHUNK_CELLS`` cells and stop at round n, where a
    correct sweep closes; past it they run on to the bug bound."""

    N = 13

    def _sched(self, monkeypatch):
        n = self.N
        monkeypatch.setattr(native_ld, "_CHUNK_CELLS", 4 * n)
        state = random_configuration(n, seed=2, common_sense=False)
        sched = Scheduler(state, Model.LAZY, backend="array")
        _speculative_preset(sched, leader=True, labels=False)
        return sched

    def _planned(self, monkeypatch):
        planned = []
        real = Scheduler.run_stretch

        def spy(sched, stretch):
            planned.append(stretch.rounds)
            return real(sched, stretch)

        monkeypatch.setattr(Scheduler, "run_stretch", spy)
        return planned

    def test_chunks_stop_at_round_n(self, numpy_axis, monkeypatch):
        sched = self._sched(monkeypatch)
        planned = self._planned(monkeypatch)
        assert sweep_rotation_one(sched) == self.N
        assert planned == [4, 4, 4, 1]

    def test_an_unclosed_sweep_runs_to_the_bug_bound(self, numpy_axis,
                                                     monkeypatch):
        n = self.N
        sched = self._sched(monkeypatch)
        # Slot 0's turn now misses a full turn by one numerator, so the
        # stop predicate never fires.
        _doctor_at_source(monkeypatch, n, {3: (0, 1)})
        planned = self._planned(monkeypatch)
        with pytest.raises(ProtocolError, match="failed to close"):
            sweep_rotation_one(sched)
        assert planned == [4, 4, 4, 1] + [4] * 12
        assert sum(planned) == 4 * n + 9


class TestSweepMemory:
    """A sweep retains O(n): each chunk is checked and dropped, and
    its span's columns are released."""

    @pytest.mark.parametrize("model,n,sweep", [
        pytest.param(Model.LAZY, 512, sweep_rotation_one, id="lazy"),
        pytest.param(Model.BASIC, 511, sweep_rotation_two, id="basic"),
    ])
    def test_sweep_retains_linear_memory(self, numpy_axis, monkeypatch,
                                         model, n, sweep):
        rows = 64
        monkeypatch.setattr(native_ld, "_CHUNK_CELLS", rows * n)
        state = random_configuration(n, seed=1, common_sense=False)
        sched = Scheduler(state, model, backend="array")
        _speculative_preset(sched, leader=True, labels=False)
        tracemalloc.start()
        try:
            sweep(sched)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        matrix = 8 * n * n  # one n x n int64 matrix, 2 MiB
        assert current < matrix // 4, f"kept {current / (1 << 20):.2f} MiB"
        # About one chunk's matrix and its compare masks at once,
        # whatever the sweep's length.
        chunk = 8 * rows * n
        assert peak < 3 * chunk + (1 << 19), (
            f"peak {peak / (1 << 20):.2f} MiB"
        )

    @pytest.mark.parametrize("model,n", [
        pytest.param("lazy", 64, id="lazy"),
        pytest.param("perceptive", 65, id="perceptive-odd"),
    ])
    def test_log_rows_of_a_released_span_rebuild_one_row_each(
        self, numpy_axis, monkeypatch, model, n
    ):
        monkeypatch.setattr(native_ld, "_CHUNK_CELLS", 16 * n)
        sessions = {}
        for backend in ("array", "fraction"):
            session = RingSession(n=n, model=model, backend=backend,
                                  seed=5)
            session.run("location-discovery")
            sessions[backend] = session
        history = sessions["array"].scheduler.population.history
        sweep = range(len(history) - n, len(history))
        results = {id(history.row(r)._result): history.row(r)._result
                   for r in sweep}
        assert len(results) == -(-n // 16)  # chunks of 16 rows
        assert all(
            result._dist is None and result._coll is None
            for result in results.values()
        )
        builds = []
        for name in ("_span_dist", "_span_coll"):
            real = getattr(backends, name)

            def counting(span, real=real):
                builds.append(len(span.rotations))
                return real(span)

            monkeypatch.setattr(backends, name, counting)
        for agent in (0, 1, 37, n - 1):
            got = [sessions["array"].views[agent].log[r] for r in sweep]
            want = [sessions["fraction"].views[agent].log[r] for r in sweep]
            assert got == want
        # The first read of each round rebuilt that round alone (its
        # coll() column too when the model reports collisions), and
        # later agents' reads share its row.
        reads = 2 if model == "perceptive" else 1
        assert builds == [1] * (reads * n)
        assert all(
            result._dist is None and result._coll is None
            for result in results.values()
        )


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
        monkeypatch.setattr(native_ld, "_CHUNK_CELLS", 1 << 21)
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
        doctor = {6: (7, 3)}  # round 6 lies in the middle chunk
        calls = self._count_solves(monkeypatch)
        sched = _swept(n, 4, Model.BASIC, sweep_rotation_two, 4,
                       monkeypatch, doctor=doctor)
        assert len(calls) == 2  # slot 0's circulant and slot 7's own
        column = sched.population.get_column(KEY_LD_GAPS)
        result = _collect_location_discovery(sched, {})
        assert result.gaps_by_agent.outliers == {7}
        assert result.gaps_by_agent == column
        # The spec harvest, fed the same doctored cell, solves every
        # slot's own circulant.
        monkeypatch.undo()
        spec = _swept(
            n, 4, Model.BASIC,
            lambda sched: sweep_rotation_two(sched, engine="fraction"),
            4, monkeypatch, doctor=doctor,
        )
        assert column == spec.population.get_column(KEY_LD_GAPS)
