"""Unit tests for the fault layer's building blocks: FaultPlan
validation and serialisation, FaultInjector round mechanics, and the
scheduler/session wiring that makes an active plan unskippable."""

import json

import pytest

from repro.api import RingSession
from repro.core.scheduler import Scheduler
from repro.exceptions import ConfigurationError, FaultBudgetError
from repro.faults.inject import FaultInjector, scramble_memory
from repro.faults.plan import BYZANTINE_MODES, DEFAULT_MAX_ROUNDS, FaultPlan
from repro.ring.configs import random_configuration
from repro.types import LocalDirection, Model

R = LocalDirection.RIGHT
L = LocalDirection.LEFT
I = LocalDirection.IDLE


class TestPlanValidation:
    def test_modes_are_closed(self):
        assert set(BYZANTINE_MODES) == {"flip", "random", "scramble"}
        with pytest.raises(ConfigurationError):
            FaultPlan(byzantine=((0, 1, "sneaky"),))

    def test_delay_lag_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(delays=((0, 0),))

    def test_duplicate_slot_per_family_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(crashes=((2, 0), (2, 5)))

    def test_negative_slot_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(crashes=((-1, 0),))

    def test_max_rounds_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(max_rounds=0)

    def test_unknown_document_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.from_dict({"seed": 1, "crashs": {"0": 1}})

    def test_validate_for_rejects_out_of_range_slots(self):
        plan = FaultPlan(crashes=((9, 0),))
        plan.validate_for(10)
        with pytest.raises(ConfigurationError):
            plan.validate_for(9)

    def test_bad_json_raises_configuration_error(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.from_json("{not json")


class TestPlanSerialisation:
    PLAN = FaultPlan(
        seed=5,
        crashes=((3, 2),),
        byzantine=((1, 0, "flip"),),
        delays=((4, 2),),
        max_rounds=500,
    )

    def test_canonical_is_sorted_compact_ascii(self):
        text = self.PLAN.canonical()
        assert text == json.dumps(
            json.loads(text), sort_keys=True, separators=(",", ":"),
            ensure_ascii=True,
        )

    def test_round_trips(self):
        assert FaultPlan.from_json(self.PLAN.canonical()) == self.PLAN
        assert FaultPlan.from_dict(self.PLAN.to_dict()) == self.PLAN

    def test_coerce_accepts_every_spelling(self):
        assert FaultPlan.coerce(None) is None
        assert FaultPlan.coerce(self.PLAN) == self.PLAN
        assert FaultPlan.coerce(self.PLAN.canonical()) == self.PLAN
        assert FaultPlan.coerce(self.PLAN.to_dict()) == self.PLAN

    def test_empty_plan_coerces_to_none(self):
        assert FaultPlan.coerce("{}") is None
        assert FaultPlan.coerce({"seed": 9}) is None
        assert FaultPlan.none().is_none()

    def test_round_budget_defaults(self):
        assert FaultPlan.none().round_budget == DEFAULT_MAX_ROUNDS
        assert self.PLAN.round_budget == 500

    def test_slots(self):
        assert set(self.PLAN.slots()) == {1, 3, 4}


class TestInjectorMechanics:
    def test_crash_forces_idle_from_its_round(self):
        injector = FaultInjector(FaultPlan(crashes=((1, 2),)), n=3)
        memories = [{}, {}, {}]
        assert injector.transform([R, R, R], 1, memories) == [R, R, R]
        assert injector.transform([R, R, R], 2, memories) == [R, I, R]
        assert injector.transform([L, L, L], 7, memories) == [L, I, L]
        assert injector.idle_exempt == frozenset({1})
        assert injector.crashed_at(1) == frozenset()
        assert injector.crashed_at(2) == frozenset({1})

    def test_flip_plays_the_opposite_direction(self):
        injector = FaultInjector(
            FaultPlan(byzantine=((0, 0, "flip"),)), n=2
        )
        assert injector.transform([R, R], 0, [{}, {}]) == [L, R]
        assert injector.transform([L, R], 1, [{}, {}]) == [R, R]

    def test_random_mode_is_seeded_and_never_idle(self):
        plan = FaultPlan(seed=9, byzantine=((0, 0, "random"),))
        runs = []
        for _ in range(2):
            injector = FaultInjector(plan, n=2)
            runs.append([
                injector.transform([R, R], t, [{}, {}])[0]
                for t in range(16)
            ])
        assert runs[0] == runs[1]  # same seed, same adversary
        assert set(runs[0]) <= {R, L}  # a basic-model agent must move

    def test_delay_replays_the_lagged_intent(self):
        injector = FaultInjector(FaultPlan(delays=((0, 2),)), n=1)
        assert injector.transform([R], 0, [{}]) == [R]  # t<lag: clamps to 0
        assert injector.transform([L], 1, [{}]) == [R]
        assert injector.transform([L], 2, [{}]) == [R]  # t-2 = 0 -> R
        assert injector.transform([R], 3, [{}]) == [L]  # t-2 = 1 -> L

    def test_scramble_corrupts_memory_exactly_once(self):
        injector = FaultInjector(
            FaultPlan(byzantine=((0, 1, "scramble"),)), n=1
        )
        memory = {"flag": True, "count": 4, "label": "x"}
        injector.transform([R], 0, [memory])
        assert memory == {"flag": True, "count": 4, "label": "x"}
        injector.transform([R], 1, [memory])
        assert memory == {"flag": False, "count": 5, "label": "x"}
        injector.transform([R], 2, [memory])  # one-shot: no further change
        assert memory == {"flag": False, "count": 5, "label": "x"}

    def test_scramble_memory_flips_bools_and_ints_only(self):
        memory = {"b": False, "i": 0, "s": "keep", "f": None}
        scramble_memory(memory)
        assert memory == {"b": True, "i": 1, "s": "keep", "f": None}

    def test_crash_wins_over_byzantine(self):
        injector = FaultInjector(
            FaultPlan(crashes=((0, 0),), byzantine=((0, 0, "flip"),)), n=1
        )
        assert injector.transform([R], 0, [{}]) == [I]


class TestSchedulerWiring:
    def _sched(self, faults):
        state = random_configuration(8, seed=3, common_sense=False)
        return Scheduler(state, Model.PERCEPTIVE, faults=faults)

    def test_no_plan_means_no_injector(self):
        sched = self._sched(None)
        assert sched.faults is None
        assert sched.crashed_slots() == frozenset()

    def test_active_plan_disables_fused_stretches(self):
        plan = '{"seed":1,"crashes":{"2":1}}'
        # The default backend is array, which fuses with or without numpy.
        assert self._sched(None).supports_stretch is True
        assert self._sched(plan).supports_stretch is False

    def test_round_budget_trips(self):
        sched = self._sched('{"seed":1,"max_rounds":2}')
        sched.run_fixed(LocalDirection.RIGHT, 2)
        with pytest.raises(FaultBudgetError):
            sched.run_fixed(LocalDirection.RIGHT, 1)

    def test_out_of_range_plan_rejected_at_construction(self):
        with pytest.raises(ConfigurationError):
            self._sched('{"seed":1,"crashes":{"8":0}}')


class TestSessionWiring:
    def test_session_normalises_plan_spellings(self):
        plan = {"seed": 1, "crashes": {"2": 1}}
        session = RingSession(n=8, seed=3, faults=plan)
        assert session.faults == FaultPlan.from_dict(plan)
        assert RingSession(n=8, seed=3, faults="{}").faults is None
        assert RingSession(n=8, seed=3).faults is None

    def test_faulted_sessions_never_touch_the_cache(self, tmp_path):
        plan = '{"seed":1,"delays":{"5":2}}'
        kwargs = dict(n=8, seed=7, cache=True, cache_dir=str(tmp_path))
        RingSession(faults=plan, **kwargs).run("contention-backoff")
        # The store saw nothing: a fresh fault-free session with the
        # same axes must MISS (and only then populate the store).
        from repro.store.store import RunStore

        assert RunStore(cache_dir=str(tmp_path)).stats()["entries"] == 0
        RingSession(**kwargs).run("contention-backoff")
        assert RunStore(cache_dir=str(tmp_path)).stats()["entries"] == 1
