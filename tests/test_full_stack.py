"""Integration tests for the end-to-end pipelines (Tables I and II)."""

from fractions import Fraction

import pytest

from repro import (
    InfeasibleProblemError,
    Model,
    RingSession,
    random_configuration,
)
from repro.combinatorics import bounds


def coordinate(state, model, common_sense=False):
    return RingSession.from_state(
        state, model=model, common_sense=common_sense
    ).run("coordination")


def discover(state, model, common_sense=False):
    return RingSession.from_state(
        state, model=model, common_sense=common_sense
    ).run("location-discovery")


def check_gaps(state, result):
    """Every agent's gap vector must be a rotation/reflection of the
    true gaps consistent with some global frame orientation."""
    n = state.n
    true_cw = state.initial_gaps()
    # All agents share one common frame: either everyone reports the cw
    # gaps from its own slot, or everyone reports the ccw ones.
    ok_cw = all(
        result.gaps_by_agent[i] == [true_cw[(i + k) % n] for k in range(n)]
        for i in range(n)
    )
    ok_ccw = all(
        result.gaps_by_agent[i]
        == [true_cw[(i - 1 - k) % n] for k in range(n)]
        for i in range(n)
    )
    assert ok_cw or ok_ccw


class TestCoordinationPipelines:
    @pytest.mark.parametrize("model", list(Model))
    @pytest.mark.parametrize("n", [7, 8])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_every_cell_elects_a_leader(self, model, n, seed):
        state = random_configuration(n, seed=seed, common_sense=False)
        result = coordinate(state, model)
        assert result.leader_id in state.ids
        assert result.rounds > 0
        assert set(result.rounds_by_phase) == {
            "direction_agreement", "leader_election", "nontrivial_move",
        }

    @pytest.mark.parametrize("model", list(Model))
    def test_common_sense_setting(self, model):
        state = random_configuration(8, seed=2, common_sense=True)
        result = coordinate(state, model, common_sense=True)
        assert result.leader_id == min(state.ids)
        assert result.rounds_by_phase["direction_agreement"] == 0

    def test_positions_restored(self):
        state = random_configuration(9, seed=5, common_sense=False)
        start = state.snapshot()
        coordinate(state, Model.BASIC)
        assert state.snapshot() == start


class TestLocationDiscoveryPipelines:
    @pytest.mark.parametrize("n,seed", [(7, 0), (9, 1), (11, 2)])
    def test_basic_odd(self, n, seed):
        state = random_configuration(n, seed=seed, common_sense=False)
        result = discover(state, Model.BASIC)
        check_gaps(state, result)
        assert result.rounds_by_phase["discovery"] == n

    def test_basic_even_infeasible(self):
        state = random_configuration(8, seed=0, common_sense=False)
        with pytest.raises(InfeasibleProblemError):
            discover(state, Model.BASIC)

    @pytest.mark.parametrize("n,seed", [(7, 0), (8, 1), (12, 2)])
    def test_lazy(self, n, seed):
        state = random_configuration(n, seed=seed, common_sense=False)
        result = discover(state, Model.LAZY)
        check_gaps(state, result)
        assert result.rounds_by_phase["discovery"] == n

    @pytest.mark.parametrize("n,seed", [(8, 0), (12, 1), (16, 2)])
    def test_perceptive_even_uses_half_n(self, n, seed):
        state = random_configuration(n, seed=seed, common_sense=False)
        result = discover(state, Model.PERCEPTIVE)
        check_gaps(state, result)
        assert result.rounds_by_phase["discovery"] == n // 2 + 3

    def test_perceptive_odd_falls_back_to_sweep(self):
        state = random_configuration(9, seed=3, common_sense=False)
        result = discover(state, Model.PERCEPTIVE)
        check_gaps(state, result)
        assert result.rounds_by_phase["discovery"] == 9

    def test_common_sense_lazy_matches_table2(self):
        state = random_configuration(10, seed=4, common_sense=True)
        result = discover(state, Model.LAZY, common_sense=True)
        check_gaps(state, result)
        n, big_n = state.n, state.id_bound
        # Table II: n + O(log N).  Generous constant for the emptiness
        # bisection's restore rounds.
        assert result.rounds <= n + 20 * bounds.log_n_bound(big_n)


class TestPublicApi:
    def test_quickstart_surface(self):
        import repro

        state = repro.random_configuration(n=9, seed=1)
        result = repro.RingSession.from_state(
            state, model=repro.Model.BASIC
        ).run("location-discovery")
        assert result.rounds >= 9
        assert len(result.gaps_by_agent) == 9
        assert sum(result.gaps_by_agent[0], Fraction(0)) == 1
