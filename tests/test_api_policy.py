"""Policy surface tests: vectorised decisions must be bit-exact with the
legacy per-agent choice-function path, across models and backends."""

from __future__ import annotations

import pytest

from repro.api.policy import (
    FixedPolicy,
    FunctionPolicy,
    PerAgentPolicy,
    Policy,
    as_policy,
)
from repro.core.scheduler import Scheduler
from repro.exceptions import ProtocolError, SimulationError
from repro.ring.configs import random_configuration
from repro.types import LocalDirection, Model

ROUNDS = 24


def _choice_fn(model: Model):
    """A deterministic, stateful per-agent choice function: depends on
    the agent's ID, how many rounds it has lived, and its last
    observation -- enough texture to exercise mixed/idle/uniform rounds."""

    def choose(view) -> LocalDirection:
        h = view.agent_id * 31 + view.rounds_seen() * 7
        if view.log and view.last.moved:
            h += 13
        options = [LocalDirection.RIGHT, LocalDirection.LEFT]
        if model.allows_idle:
            options.append(LocalDirection.IDLE)
        return options[h % len(options)]

    return choose


def _drive(n, seed, model, backend, make_policy):
    """Fresh state -> scheduler -> ROUNDS rounds driven by
    ``make_policy(choice_fn)`` (identity for the legacy path)."""
    state = random_configuration(n, seed=seed, common_sense=False)
    sched = Scheduler(state, model, backend=backend)
    driver = make_policy(_choice_fn(model))
    outcomes = [sched.run_round(driver) for _ in range(ROUNDS)]
    return outcomes, state.snapshot(), [list(v.log) for v in sched.views]


class TestPolicyEquivalence:
    @pytest.mark.parametrize("model", list(Model))
    @pytest.mark.parametrize("backend", ["array", "fraction"])
    @pytest.mark.parametrize("n,seed", [(7, 0), (8, 1), (11, 5)])
    def test_per_agent_policy_bit_exact(self, model, backend, n, seed):
        legacy = _drive(n, seed, model, backend, lambda fn: fn)
        policy = _drive(n, seed, model, backend, PerAgentPolicy)
        assert legacy == policy  # outcomes, final positions, agent logs

    @pytest.mark.parametrize("model", list(Model))
    def test_function_policy_bit_exact(self, model):
        legacy = _drive(9, 3, model, "array", lambda fn: fn)
        vectorised = _drive(
            9, 3, model, "array",
            lambda fn: FunctionPolicy(lambda views: [fn(v) for v in views]),
        )
        assert legacy == vectorised

    def test_cross_backend_policy_agreement(self):
        array = _drive(8, 2, Model.PERCEPTIVE, "array", PerAgentPolicy)
        fraction = _drive(8, 2, Model.PERCEPTIVE, "fraction", PerAgentPolicy)
        assert array == fraction

    def test_fixed_policy_matches_run_fixed(self):
        state_a = random_configuration(8, seed=4, common_sense=False)
        state_b = random_configuration(8, seed=4, common_sense=False)
        sched_a = Scheduler(state_a, Model.BASIC)
        sched_b = Scheduler(state_b, Model.BASIC)
        outcomes_a = sched_a.run_rounds(
            FixedPolicy(LocalDirection.RIGHT), 6
        )
        last_b = sched_b.run_fixed(LocalDirection.RIGHT, 6)
        assert outcomes_a[-1] == last_b
        assert state_a.snapshot() == state_b.snapshot()
        assert [v.log for v in sched_a.views] == [
            v.log for v in sched_b.views
        ]


class TestPolicyContract:
    def test_one_decide_call_per_round(self):
        state = random_configuration(7, seed=0, common_sense=False)
        sched = Scheduler(state, Model.BASIC)
        calls = []

        class Counting(Policy):
            def decide(self, views):
                calls.append(len(views))
                return [LocalDirection.RIGHT] * len(views)

        sched.run_rounds(Counting(), 5)
        assert calls == [7] * 5

    def test_wrong_length_rejected(self):
        state = random_configuration(7, seed=0, common_sense=False)
        sched = Scheduler(state, Model.BASIC)

        class Short(Policy):
            def decide(self, views):
                return [LocalDirection.RIGHT]

        with pytest.raises(SimulationError):
            sched.run_round(Short())
        assert sched.rounds == 0  # nothing executed

    def test_as_policy_coercion(self):
        fixed = FixedPolicy(LocalDirection.LEFT)
        assert as_policy(fixed) is fixed
        wrapped = as_policy(lambda view: LocalDirection.RIGHT)
        assert isinstance(wrapped, PerAgentPolicy)
        with pytest.raises(ProtocolError):
            as_policy(42)
