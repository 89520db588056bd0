"""Hypothesis property tests over whole pipelines.

These sweep random ring sizes, ID spaces, geometries and chirality
assignments through the end-to-end solvers and check the invariants
that must hold on *every* input, not just the unit-test seeds:

* coordination always ends with exactly one leader and restored
  positions;
* every stored nontrivial move really is nontrivial;
* location discovery reconstructions always equal ground truth;
* round counts never beat the information-theoretic floors (Lemma 6).
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import RingSession
from repro.combinatorics import bounds
from repro.core.scheduler import Scheduler
from repro.protocols.base import KEY_LEADER, KEY_NMOVE_DIR
from repro.ring.configs import random_configuration
from repro.ring.kinematics import rotation_index
from repro.types import LocalDirection, Model, local_to_velocity

SLOW = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def ring_params(min_n=5, max_n=12):
    return st.tuples(
        st.integers(min_value=min_n, max_value=max_n),
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([None, True, False]),
    )


class TestCoordinationProperties:
    @SLOW
    @given(ring_params(), st.sampled_from(list(Model)))
    def test_unique_leader_and_restoration(self, params, model):
        n, seed, common = params
        state = random_configuration(n, seed=seed, common_sense=common)
        start = state.snapshot()
        result = RingSession.from_state(state, model=model).run(
            "coordination"
        )
        assert result.leader_id in state.ids
        assert state.snapshot() == start

    @SLOW
    @given(ring_params(), st.sampled_from(list(Model)))
    def test_stored_nmove_is_nontrivial(self, params, model):
        n, seed, common = params
        state = random_configuration(n, seed=seed, common_sense=common)
        sched = Scheduler(state, model)
        RingSession.from_scheduler(sched).run("coordination")
        velocities = [
            local_to_velocity(
                view.memory[KEY_NMOVE_DIR], state.chiralities[i]
            )
            for i, view in enumerate(sched.views)
        ]
        r = rotation_index(velocities, n)
        assert r != 0
        assert 2 * r != n

    @SLOW
    @given(ring_params())
    def test_leader_flags_consistent(self, params):
        n, seed, common = params
        state = random_configuration(n, seed=seed, common_sense=common)
        sched = Scheduler(state, Model.LAZY)
        result = RingSession.from_scheduler(sched).run("coordination")
        flags = [bool(v.memory.get(KEY_LEADER)) for v in sched.views]
        assert flags.count(True) == 1
        winner = sched.views[flags.index(True)].agent_id
        assert winner == result.leader_id


class TestLocationDiscoveryProperties:
    @SLOW
    @given(ring_params())
    def test_lazy_reconstruction_exact(self, params):
        n, seed, common = params
        state = random_configuration(n, seed=seed, common_sense=common)
        result = RingSession.from_state(state, model=Model.LAZY).run(
            "location-discovery"
        )
        self._check(state, result)

    @SLOW
    @given(ring_params(min_n=6, max_n=10))
    def test_perceptive_reconstruction_exact(self, params):
        n, seed, common = params
        state = random_configuration(n, seed=seed, common_sense=common)
        result = RingSession.from_state(state, model=Model.PERCEPTIVE).run(
            "location-discovery"
        )
        self._check(state, result)
        floor = bounds.ld_lower_bound(
            n, perceptive=n % 2 == 0
        )
        assert result.rounds_by_phase["discovery"] >= floor

    @staticmethod
    def _check(state, result):
        n = state.n
        true_cw = state.initial_gaps()
        ok_cw = all(
            result.gaps_by_agent[i]
            == [true_cw[(i + k) % n] for k in range(n)]
            for i in range(n)
        )
        ok_ccw = all(
            result.gaps_by_agent[i]
            == [true_cw[(i - 1 - k) % n] for k in range(n)]
            for i in range(n)
        )
        assert ok_cw or ok_ccw
        for gaps in result.gaps_by_agent:
            assert sum(gaps, Fraction(0)) == 1
            assert all(g > 0 for g in gaps)


class TestRoundAccounting:
    @SLOW
    @given(ring_params())
    def test_phase_rounds_sum_to_total(self, params):
        n, seed, common = params
        state = random_configuration(n, seed=seed, common_sense=common)
        result = RingSession.from_state(state, model=Model.LAZY).run(
            "location-discovery"
        )
        assert sum(result.rounds_by_phase.values()) == result.rounds
