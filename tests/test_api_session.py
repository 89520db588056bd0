"""RingSession / registry tests."""

from __future__ import annotations

import pytest

from repro import (
    InfeasibleProblemError,
    Model,
    RingSession,
    get_protocol,
    list_protocols,
    random_configuration,
)
from repro.exceptions import ConfigurationError, ProtocolError


class TestRegistry:
    def test_listing(self):
        names = [spec.name for spec in list_protocols()]
        assert names == sorted(names)
        assert "coordination" in names
        assert "location-discovery" in names
        for spec in list_protocols():
            assert spec.description

    def test_unknown_protocol(self):
        with pytest.raises(ProtocolError, match="registered:"):
            get_protocol("frisbee")

    @pytest.mark.parametrize("model", list(Model))
    @pytest.mark.parametrize("n", [7, 8])
    def test_plan_names_match_execution(self, model, n):
        session = RingSession(n=n, model=model, seed=1)
        if model is Model.BASIC and n % 2 == 0:
            with pytest.raises(InfeasibleProblemError):
                session.plan("location-discovery")
            return
        planned = [p.name for p in session.plan("location-discovery")]
        result = session.run("location-discovery")
        assert list(result.rounds_by_phase) == planned


class TestRingSession:
    def test_builder_needs_some_source(self):
        with pytest.raises(ConfigurationError):
            RingSession()

    def test_builder_rejects_contradictory_n(self):
        state = random_configuration(8, seed=0)
        with pytest.raises(ConfigurationError):
            RingSession(n=9, state=state)

    def test_scheduler_rejects_contradictory_overrides(self):
        from repro.core.scheduler import Scheduler

        state = random_configuration(8, seed=0)
        sched = Scheduler(state, Model.LAZY)
        with pytest.raises(ConfigurationError, match="backend"):
            RingSession(scheduler=sched, backend="fraction")
        with pytest.raises(ConfigurationError, match="model"):
            RingSession(scheduler=sched, model=Model.PERCEPTIVE)
        with pytest.raises(ConfigurationError, match="seed"):
            RingSession(scheduler=sched, seed=3)
        # common_sense is plan-time information, not scheduler state.
        RingSession(scheduler=sched, common_sense=True)

    def test_state_rejects_generator_arguments(self):
        state = random_configuration(8, seed=0)
        with pytest.raises(ConfigurationError, match="seed"):
            RingSession(state=state, seed=7)
        with pytest.raises(ConfigurationError, match="config"):
            RingSession(state=state, config="clustered")
        with pytest.raises(ConfigurationError, match="id_bound"):
            RingSession(state=state, id_bound=64)

    def test_builder_unknown_config(self):
        with pytest.raises(ConfigurationError, match="clustered"):
            RingSession(n=8, config="spiral")

    def test_named_configs(self):
        for config in ("random", "jittered", "clustered"):
            session = RingSession(n=8, seed=3, config=config)
            assert session.state.n == 8

    def test_from_state_and_passthroughs(self):
        state = random_configuration(8, seed=5, common_sense=False)
        session = RingSession.from_state(
            state, model=Model.PERCEPTIVE, backend="fraction"
        )
        assert session.state is state
        assert session.model is Model.PERCEPTIVE
        assert session.backend_name == "fraction"
        assert session.rounds == 0
        assert len(session.views) == 8

    def test_step_resume_matches_one_shot(self):
        one_shot = RingSession(n=8, model="perceptive", seed=9)
        expected = one_shot.run("location-discovery")

        stepped = RingSession(n=8, model="perceptive", seed=9)
        phases = stepped.start("location-discovery")
        name, rounds = stepped.step()
        assert name == phases[0].name
        assert rounds == expected.rounds_by_phase[name]
        assert [p.name for p in stepped.pending_phases] == [
            p.name for p in phases[1:]
        ]
        result = stepped.resume()
        assert result == expected

    def test_step_without_start(self):
        session = RingSession(n=8, seed=0)
        with pytest.raises(ProtocolError):
            session.step()
        with pytest.raises(ProtocolError):
            session.resume()

    def test_model_accepts_strings(self):
        session = RingSession(n=7, model="lazy", seed=0)
        assert session.model is Model.LAZY

    def test_common_sense_builder_threads_into_plan(self):
        session = RingSession(n=8, model="lazy", seed=2, common_sense=True)
        result = session.run("coordination")
        assert result.leader_id == min(session.state.ids)
        assert result.rounds_by_phase["direction_agreement"] == 0


class TestExistingStateEntryPoints:
    """``from_state`` / ``from_scheduler`` run a protocol on a ring the
    caller already built; the result must be the one the seeded
    builder gives for the same configuration."""

    @pytest.mark.parametrize("model", list(Model))
    def test_from_state_coordination_matches_builder(self, model):
        state = random_configuration(8, seed=4, common_sense=False)
        expected = RingSession(n=8, model=model, seed=4).run("coordination")
        result = RingSession.from_state(state, model=model).run(
            "coordination"
        )
        assert result == expected

    @pytest.mark.parametrize("model,n", [
        (Model.BASIC, 9), (Model.LAZY, 8), (Model.PERCEPTIVE, 8),
    ])
    def test_from_state_location_discovery_matches_builder(self, model, n):
        state = random_configuration(n, seed=6, common_sense=False)
        expected = RingSession(n=n, model=model, seed=6).run(
            "location-discovery"
        )
        result = RingSession.from_state(state, model=model).run(
            "location-discovery"
        )
        assert result == expected

    def test_from_state_infeasible_before_any_round(self):
        state = random_configuration(8, seed=0, common_sense=False)
        start = state.snapshot()
        session = RingSession.from_state(state, model=Model.BASIC)
        with pytest.raises(InfeasibleProblemError):
            session.run("location-discovery")
        assert session.rounds == 0
        assert state.snapshot() == start

    def test_from_scheduler_drives_that_scheduler(self):
        from repro.core.scheduler import Scheduler

        state = random_configuration(9, seed=5, common_sense=False)
        sched = Scheduler(state, Model.LAZY)
        session = RingSession.from_scheduler(sched)
        assert session.scheduler is sched
        result = session.run("coordination")
        assert result.rounds == sched.rounds > 0


class TestResultSerialisation:
    def test_location_discovery_to_dict(self):
        result = RingSession(n=8, model="perceptive", seed=1).run(
            "location-discovery"
        )
        payload = result.to_dict()
        assert payload["kind"] == "location_discovery"
        assert payload["rounds"] == result.rounds
        assert payload["rounds_by_phase"] == result.rounds_by_phase
        assert len(payload["gaps_by_agent"]) == 8
        assert all(
            isinstance(g, str)
            for gaps in payload["gaps_by_agent"] for g in gaps
        )
        import json

        json.dumps(payload)  # must be JSON-clean

    def test_coordination_to_dict(self):
        result = RingSession(n=7, model="basic", seed=1).run("coordination")
        payload = result.to_dict()
        assert payload["kind"] == "coordination"
        assert payload["leader_id"] == result.leader_id
        import json

        json.dumps(payload)

    def test_experiment_row_to_dict(self):
        from fractions import Fraction
        import json

        from repro.experiments.harness import ExperimentRow

        row = ExperimentRow(
            label="x",
            params={"n": 8},
            measured={"gap": Fraction(1, 3), "seq": [Fraction(1, 2), 1]},
            reference={"bound": 2.5},
        )
        payload = row.to_dict()
        assert payload["measured"]["gap"] == "1/3"
        assert payload["measured"]["seq"] == ["1/2", 1]
        json.dumps(payload)
