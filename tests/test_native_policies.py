"""Native whole-population policies must be bit-exact twins of the
legacy per-agent callback drivers.

Every comparison runs the same configuration twice -- once through the
native driver, once through the legacy callback -- and requires
identical round counts, world positions, full per-agent observation
logs and final protocol memory.  The registry tests cover the complete
``full_stack`` pipelines end to end across all three models and both
kinematics backends; the unit tests pin the individual drivers.
"""

from __future__ import annotations

import pytest

from repro.api.policy import PerAgentPolicy
from repro.api.registry import resolve_driver
from repro.api.session import RingSession
from repro.core.population import MISSING, Population
from repro.core.scheduler import Scheduler
from repro.exceptions import InfeasibleProblemError, ProtocolError
from repro.ring.configs import random_configuration
from repro.types import LocalDirection, Model


def _fingerprint(session_or_sched):
    sched = getattr(session_or_sched, "scheduler", session_or_sched)
    return (
        sched.rounds,
        sched.state.snapshot(),
        [list(v.log) for v in sched.views],
        [dict(v.memory) for v in sched.views],
    )


def _session_pair(n, model, seed, backend, common_sense=False):
    make = lambda driver: RingSession(  # noqa: E731
        n=n, model=model, seed=seed, backend=backend,
        common_sense=common_sense, driver=driver,
    )
    return make("native"), make("callback")


def _scheduler_pair(n, model, seed, backend, common_sense=False):
    make = lambda: Scheduler(  # noqa: E731
        random_configuration(n, seed=seed, common_sense=common_sense),
        model,
        backend=backend,
    )
    return make(), make()


BACKENDS = ["array", "fraction"]


class TestRegistryEquivalence:
    """Full pipelines through the registry, native vs callback."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("common_sense", [False, True])
    @pytest.mark.parametrize("model", list(Model))
    @pytest.mark.parametrize("n", [7, 8])
    def test_coordination(self, model, n, backend, common_sense):
        native, callback = _session_pair(
            n, model, seed=5, backend=backend, common_sense=common_sense
        )
        result_native = native.run("coordination")
        result_callback = callback.run("coordination")
        assert result_native.to_dict() == result_callback.to_dict()
        assert _fingerprint(native) == _fingerprint(callback)
        assert all(d == "native" for d in native.phase_drivers.values())
        assert all(
            d == "callback" for d in callback.phase_drivers.values()
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "model,n",
        [
            (Model.LAZY, 8),
            (Model.LAZY, 9),
            (Model.BASIC, 9),
            (Model.PERCEPTIVE, 8),
            (Model.PERCEPTIVE, 9),
        ],
    )
    def test_location_discovery(self, model, n, backend):
        native, callback = _session_pair(n, model, seed=3, backend=backend)
        result_native = native.run("location-discovery")
        result_callback = callback.run("location-discovery")
        assert result_native.to_dict() == result_callback.to_dict()
        assert _fingerprint(native) == _fingerprint(callback)

    def test_infeasible_settings_agree(self):
        for driver in ("native", "callback"):
            session = RingSession(
                n=8, model=Model.BASIC, seed=0, driver=driver
            )
            with pytest.raises(InfeasibleProblemError):
                session.run("location-discovery")

    def test_unknown_driver_rejected(self):
        with pytest.raises(ProtocolError, match="unknown driver"):
            RingSession(n=8, driver="vectorised")
        assert resolve_driver(None) == "native"


class TestDriverUnits:
    """Individual native drivers against their legacy twins."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n", [7, 8])
    def test_neighbor_discovery(self, n, backend):
        from repro.protocols import neighbor_discovery as legacy
        from repro.protocols.policies import neighbor_discovery as native

        a, b = _scheduler_pair(n, Model.PERCEPTIVE, 2, backend)
        native.discover_neighbors(a)
        legacy.discover_neighbors(b)
        assert _fingerprint(a) == _fingerprint(b)

    def test_neighbor_discovery_requires_perceptive(self):
        from repro.protocols.policies import neighbor_discovery as native

        sched, _ = _scheduler_pair(8, Model.BASIC, 0, "array")
        with pytest.raises(ProtocolError, match="perceptive"):
            native.discover_neighbors(sched)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_relay_flood(self, backend):
        from repro.protocols import bitcomm as legacy
        from repro.protocols import neighbor_discovery as nd_legacy
        from repro.protocols.policies import bitcomm as native

        a, b = _scheduler_pair(9, Model.PERCEPTIVE, 4, backend)
        for sched in (a, b):
            nd_legacy.discover_neighbors(sched)
        # Two sparse sources, three hops, 4-bit values.
        sources = {3: 9, 7: 12}

        def value_of(view):
            return sources.get(view.agent_id)

        native.relay_flood(
            a,
            [sources.get(agent_id) for agent_id in a.population.ids],
            distance=3,
            width=4,
        )
        legacy.relay_flood(b, value_of, distance=3, width=4)
        assert _fingerprint(a) == _fingerprint(b)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_exchange_bits_and_frame(self, backend):
        from repro.protocols import bitcomm as legacy
        from repro.protocols import neighbor_discovery as nd_legacy
        from repro.protocols.policies import bitcomm as native

        a, b = _scheduler_pair(8, Model.PERCEPTIVE, 6, backend)
        for sched in (a, b):
            nd_legacy.discover_neighbors(sched)
        native.exchange_bits(a, [i % 2 for i in a.population.ids])
        legacy.exchange_bits(b, lambda view: view.agent_id % 2)
        assert _fingerprint(a) == _fingerprint(b)

        native.exchange_frame(
            a,
            [agent_id if agent_id % 3 else None
             for agent_id in a.population.ids],
            width=5,
        )
        legacy.exchange_frame(
            b,
            lambda view: view.agent_id if view.agent_id % 3 else None,
            width=5,
        )
        assert _fingerprint(a) == _fingerprint(b)

    @pytest.mark.parametrize("model", list(Model))
    def test_emptiness(self, model):
        from repro.protocols import direction_agreement as da_legacy
        from repro.protocols import emptiness as legacy
        from repro.protocols.policies import emptiness as native

        for n in (7, 8):
            a, b = _scheduler_pair(n, model, 1, "array",
                                   common_sense=True)
            for sched in (a, b):
                da_legacy.assume_common_frame(sched)
            for candidates in (range(1, 5), range(50, 60)):
                verdict_native = native.emptiness_test(a, candidates)
                verdict_legacy = legacy.emptiness_test(b, candidates)
                assert verdict_native == verdict_legacy
            assert _fingerprint(a) == _fingerprint(b)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rotation_probe_classify(self, backend):
        from repro.protocols import rotation_probe as legacy
        from repro.protocols.policies import rotation_probe as native

        a, b = _scheduler_pair(9, Model.BASIC, 7, backend)
        members = {1, 4, 9, 13}
        vector = native.membership_vector(a.population.ids, members)
        native.classify_rotation(a, vector, restore=True)
        legacy.classify_rotation(
            b, legacy.membership_choice(members), restore=True
        )
        assert _fingerprint(a) == _fingerprint(b)

        assert native.ri_is_zero(a, members) == legacy.ri_is_zero(
            b, members
        )
        assert _fingerprint(a) == _fingerprint(b)

    def test_broadcast(self):
        from repro.protocols import direction_agreement as da_legacy
        from repro.protocols import global_broadcast as legacy
        from repro.protocols.policies import global_broadcast as native

        a, b = _scheduler_pair(8, Model.LAZY, 9, "array",
                               common_sense=True)
        for sched in (a, b):
            da_legacy.assume_common_frame(sched)
        announcer = a.population.ids[2]
        native.broadcast_value(
            a,
            announcers=[i == 2 for i in range(a.population.n)],
            values=[17 if i == 2 else None for i in range(a.population.n)],
        )
        legacy.broadcast_value(
            b,
            is_announcer=lambda view: view.agent_id == announcer,
            value_of=lambda view: 17,
        )
        assert _fingerprint(a) == _fingerprint(b)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_nmove_seeded_family(self, backend):
        from repro.protocols import nontrivial_move as legacy
        from repro.protocols.policies import nontrivial_move as native

        a, b = _scheduler_pair(8, Model.BASIC, 11, backend)
        probes_native = native.nmove_seeded_family(a)
        probes_legacy = legacy.nmove_seeded_family(b)
        assert probes_native == probes_legacy
        assert _fingerprint(a) == _fingerprint(b)

    def test_nmove_perceptive_full_path(self):
        """A symmetric ring forces the full NMoveS machinery (neighbor
        discovery, floods, family probes) in both drivers."""
        from repro.protocols import nmove_perceptive as legacy
        from repro.protocols.policies import nmove_perceptive as native

        a, b = _scheduler_pair(8, Model.PERCEPTIVE, 3, "array")
        stats_native = native.nmove_perceptive(a)
        stats_legacy = legacy.nmove_perceptive(b)
        assert stats_native == stats_legacy
        assert _fingerprint(a) == _fingerprint(b)


class TestNoPerAgentDispatch:
    """The acceptance gate: a native full_stack run makes zero per-agent
    ChoiceFn calls."""

    def _profiled_run(self, monkeypatch, driver):
        per_agent_calls = []
        original = PerAgentPolicy.decide

        def counting(self, views):
            per_agent_calls.append(len(views))
            return original(self, views)

        monkeypatch.setattr(PerAgentPolicy, "decide", counting)
        original_decide = Scheduler._decide

        def spying(self, choose):
            if getattr(choose, "decide", None) is None:
                per_agent_calls.append(len(self.views))
            return original_decide(self, choose)

        monkeypatch.setattr(Scheduler, "_decide", spying)
        session = RingSession(
            n=8, model=Model.PERCEPTIVE, seed=2024, driver=driver
        )
        session.run("location-discovery")
        return per_agent_calls

    def test_native_full_stack_has_zero_choicefn_calls(self, monkeypatch):
        assert self._profiled_run(monkeypatch, "native") == []

    def test_callback_full_stack_still_dispatches(self, monkeypatch):
        assert self._profiled_run(monkeypatch, "callback") != []


class TestPopulationStore:
    """The columnar store and its per-slot mapping adapter."""

    def _population(self):
        return Population(3, ids=[4, 9, 2], id_bound=12, parity_even=False)

    def test_slot_adapter_is_dict_compatible(self):
        pop = self._population()
        slot0, slot1 = pop.slot(0), pop.slot(1)
        slot0["k"] = 1
        assert "k" in slot0 and "k" not in slot1
        assert slot0.get("k") == 1 and slot1.get("k") is None
        assert dict(slot0) == {"k": 1} and dict(slot1) == {}
        assert slot0 == {"k": 1}
        assert slot0.pop("k") == 1
        assert "k" not in slot0
        with pytest.raises(KeyError):
            slot0["k"]
        assert slot0.setdefault("j", 7) == 7
        assert pop.column("j")[0] == 7
        assert len(slot0) == 1 and list(slot0) == ["j"]

    def test_columns_and_slots_share_storage(self):
        pop = self._population()
        column = pop.fill("x", 0)
        column[1] = 5
        assert pop.slot(1)["x"] == 5
        pop.slot(2)["x"] = 9
        assert column[2] == 9
        assert pop.all_set("x")
        del pop.slot(0)["x"]
        assert not pop.all_set("x")
        assert pop.first_unset("x") == 0
        assert column[0] is MISSING

    def test_column_validation(self):
        pop = self._population()
        with pytest.raises(ValueError):
            pop.set_column("x", [1, 2])
        with pytest.raises(KeyError):
            pop.column("absent")
        assert pop.get_column("absent") is None
        assert not pop.has_column("absent")
        fresh = pop.fill_with("lists", list)
        fresh[0].append(1)
        assert pop.slot(0)["lists"] == [1] and pop.slot(1)["lists"] == []

    def test_scheduler_wires_views_to_population(self):
        state = random_configuration(6, seed=0, common_sense=False)
        sched = Scheduler(state, Model.BASIC)
        sched.views[3].memory["probe"] = "x"
        assert sched.population.column("probe")[3] == "x"
        assert sched.population.ids == [v.agent_id for v in sched.views]
        outcome = sched.run_fixed(LocalDirection.RIGHT, 2)
        assert sched.population.last_obs == outcome.observations
