"""Tests for RingState validation and RingSimulator observation frames."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ConfigurationError, ModelViolationError
from repro.geometry import cw_arc
from repro.ring.configs import (
    clustered_configuration,
    explicit_configuration,
    jittered_equidistant_configuration,
    random_configuration,
)
from repro.ring.simulator import RingSimulator
from repro.ring.state import RingState
from repro.types import Chirality, LocalDirection, Model

F = Fraction
R, L, I = LocalDirection.RIGHT, LocalDirection.LEFT, LocalDirection.IDLE


def make_state(n=6, chiralities=None, id_bound=None):
    return explicit_configuration(
        positions=[F(i, n) for i in range(n)],
        ids=list(range(1, n + 1)),
        chiralities=chiralities or [Chirality.CLOCKWISE] * n,
        id_bound=id_bound or 2 * n,
    )


class TestRingStateValidation:
    def test_rejects_small_n(self):
        with pytest.raises(ConfigurationError):
            RingState(
                positions=[F(0), F(1, 4), F(1, 2), F(3, 4)],
                ids=[1, 2, 3, 4],
                chiralities=[Chirality.CLOCKWISE] * 4,
                id_bound=8,
            )

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ConfigurationError):
            RingState(
                positions=[F(i, 5) for i in range(5)],
                ids=[1, 2, 3, 3, 5],
                chiralities=[Chirality.CLOCKWISE] * 5,
                id_bound=10,
            )

    def test_rejects_unordered_positions(self):
        with pytest.raises(ConfigurationError):
            RingState(
                positions=[F(0), F(1, 2), F(1, 4), F(3, 4), F(7, 8)],
                ids=[1, 2, 3, 4, 5],
                chiralities=[Chirality.CLOCKWISE] * 5,
                id_bound=10,
            )

    def test_rejects_id_above_bound(self):
        with pytest.raises(ConfigurationError):
            RingState(
                positions=[F(i, 5) for i in range(5)],
                ids=[1, 2, 3, 4, 11],
                chiralities=[Chirality.CLOCKWISE] * 5,
                id_bound=10,
            )

    def test_gaps_and_rotation(self):
        st6 = make_state(6)
        assert st6.gaps() == [F(1, 6)] * 6
        st6.apply_rotation(2)
        assert st6.positions[0] == F(2, 6)

    def test_snapshot_restore(self):
        st6 = make_state(6)
        snap = st6.snapshot()
        st6.apply_rotation(3)
        assert st6.positions != list(snap)
        st6.restore(snap)
        assert st6.positions == list(snap)

    def test_index_of_id(self):
        st6 = make_state(6)
        assert st6.index_of_id(3) == 2
        with pytest.raises(ConfigurationError):
            st6.index_of_id(99)


class TestConfigGenerators:
    @pytest.mark.parametrize("n", [5, 6, 9, 16])
    def test_random_configuration_valid(self, n):
        state = random_configuration(n, seed=3)
        assert state.n == n
        assert sum(state.gaps()) == 1

    def test_reproducible(self):
        a = random_configuration(8, seed=5)
        b = random_configuration(8, seed=5)
        assert a.positions == b.positions and a.ids == b.ids

    def test_common_sense_flag(self):
        state = random_configuration(8, seed=1, common_sense=True)
        assert set(state.chiralities) == {Chirality.CLOCKWISE}
        state = random_configuration(8, seed=1, common_sense=False)
        assert len(set(state.chiralities)) == 2

    def test_jittered_equidistant(self):
        state = jittered_equidistant_configuration(10, seed=2)
        assert state.n == 10

    def test_clustered(self):
        state = clustered_configuration(10, seed=2)
        span = cw_arc(state.positions[0], state.positions[-1])
        assert span <= F(1, 16)

    @pytest.mark.parametrize("generator", [
        random_configuration,
        jittered_equidistant_configuration,
        clustered_configuration,
    ])
    def test_negative_n_is_a_configuration_error(self, generator):
        with pytest.raises(ConfigurationError):
            generator(-5, seed=0)
        with pytest.raises(ConfigurationError):
            generator(-5, id_bound=64, seed=0)


class TestSimulatorFrames:
    def test_idle_rejected_in_basic(self):
        sim = RingSimulator(make_state(), Model.BASIC)
        with pytest.raises(ModelViolationError):
            sim.execute([I, R, R, R, R, R])

    def test_idle_allowed_in_lazy(self):
        sim = RingSimulator(make_state(), Model.LAZY)
        outcome = sim.execute([I, R, R, R, R, R])
        assert outcome.rotation_index == 5

    def test_flipped_agent_moves_objectively_left(self):
        chir = [Chirality.ANTICLOCKWISE] + [Chirality.CLOCKWISE] * 5
        sim = RingSimulator(make_state(chiralities=chir), Model.LAZY)
        outcome = sim.execute([R, I, I, I, I, I])
        # Agent 0 chose RIGHT but objectively moves anticlockwise: r = -1.
        assert outcome.rotation_index == 5  # -1 mod 6

    def test_dist_is_reported_in_own_frame(self):
        n = 6
        chir = [Chirality.CLOCKWISE] * 5 + [Chirality.ANTICLOCKWISE]
        sim = RingSimulator(make_state(chiralities=chir), Model.LAZY)
        outcome = sim.execute([R, I, I, I, I, I])
        # r = 1: every agent shifts one slot clockwise (arc 1/6).
        assert outcome.rotation_index == 1
        for i in range(5):
            assert outcome.observations[i].dist == F(1, 6)
        # The flipped agent measures the same arc anticlockwise: 5/6.
        assert outcome.observations[5].dist == F(5, 6)

    def test_no_coll_outside_perceptive(self):
        sim = RingSimulator(make_state(), Model.BASIC)
        outcome = sim.execute([R, L, R, L, R, L])
        assert all(o.coll is None for o in outcome.observations)

    def test_coll_reported_in_perceptive(self):
        sim = RingSimulator(make_state(), Model.PERCEPTIVE)
        outcome = sim.execute([R, L, R, L, R, L])
        assert all(o.coll == F(1, 12) for o in outcome.observations)

    def test_cross_validation_mode(self):
        sim = RingSimulator(make_state(), Model.BASIC, cross_validate=True)
        outcome = sim.execute([R, R, L, L, R, L])
        assert outcome.collision_events > 0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=5, max_value=10), st.integers(0, 10_000))
    def test_round_then_reverse_restores_positions(self, n, seed):
        state = random_configuration(n, seed=seed)
        sim = RingSimulator(state, Model.PERCEPTIVE, cross_validate=True)
        start = state.snapshot()
        import random as _random

        rng = _random.Random(seed)
        dirs = [rng.choice((R, L)) for _ in range(n)]
        sim.execute(dirs)
        sim.execute([d.opposite() for d in dirs])
        assert state.snapshot() == start


class TestSchedulerBasics:
    def test_views_hide_world_state(self):
        from repro.core.scheduler import Scheduler

        sched = Scheduler(make_state(), Model.BASIC)
        for view in sched.views:
            assert not hasattr(view, "positions")
            assert not hasattr(view, "chirality")
        assert sched.rounds == 0
        sched.run_fixed(R)
        assert sched.rounds == 1
        assert all(len(v.log) == 1 for v in sched.views)

    def test_observations_private_per_agent(self):
        from repro.core.scheduler import Scheduler

        chir = [Chirality.ANTICLOCKWISE] + [Chirality.CLOCKWISE] * 5
        sched = Scheduler(make_state(chiralities=chir), Model.BASIC)
        sched.run_fixed(R)
        # Mixed chirality all-RIGHT round: r = (1*5 - 1) mod 6 = 4.
        dists = {v.last.dist for v in sched.views}
        assert len(dists) > 1  # frames differ, so observations differ
