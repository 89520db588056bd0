"""Fused-stretch execution: plans, laziness, and zero per-round
overhead on the array backend.

The guarantees pinned here:

* **Equivalence** -- registry protocols run unchanged (same rounds,
  positions, logs, final memory) under ``backend="array"`` for both the
  native and the callback driver, against the Fraction backend and
  array's own scalar base class.
* **Laziness** -- a fused span commits positions as a pending thunk
  (built only on an external read) and files its observation rows
  without materialising per-agent objects until something reads them.
* **Zero per-round dispatch** -- a fused span performs zero per-round
  ``decide()`` calls and zero per-agent memory-adapter accesses (the
  companion of PR 3's zero-ChoiceFn assertion, one level down).
* **Spans only** -- native pipelines run no round outside a span.
* **Captured scale** -- a span read after a rescaling resync interns
  through the scale it ran under, and results hold no backend, so a
  finished session leaves no reference cycle behind.
"""

import pytest

from repro.api import RingSession, Stretch
from repro.core.agent import id_bits
from repro.core.population import LazyObsRow, MemorySlot
from repro.core.scheduler import Scheduler
from repro.protocols.policies.base import PhasePolicy
from repro.protocols.policies.bitcomm import relay_flood
from repro.protocols.policies.neighbor_discovery import discover_neighbors
from repro.ring.backends import LatticeBackend
from repro.ring.configs import random_configuration
from repro.ring.simulator import RingSimulator
from repro.types import LocalDirection, Model

R, L = LocalDirection.RIGHT, LocalDirection.LEFT


def session_fingerprint(session, result):
    sched = session.scheduler
    return (
        sched.rounds,
        sched.state.snapshot(),
        [list(v.log) for v in sched.views],
        [dict(v.memory) for v in sched.views],
        result.to_dict(),
    )


class TestRegistryEquivalenceOnArray:
    @pytest.mark.parametrize("driver", ["native", "callback"])
    @pytest.mark.parametrize(
        "protocol,model,n",
        [
            ("coordination", "perceptive", 12),
            ("location-discovery", "perceptive", 12),
            ("coordination", "lazy", 9),
            ("location-discovery", "lazy", 8),
            ("location-discovery", "basic", 9),
        ],
    )
    def test_protocols_bit_exact_across_backends(
        self, protocol, model, n, driver
    ):
        fingerprints = {}
        for backend in ("array", "fraction"):
            session = RingSession(
                n=n, model=model, backend=backend, seed=7, driver=driver,
            )
            result = session.run(protocol)
            fingerprints[backend] = session_fingerprint(session, result)
        assert fingerprints["array"] == fingerprints["fraction"]

    def test_cross_validated_array_session(self):
        # Cross-validation forces the scalar fallback inside fused
        # plans; results must not change.
        plain = RingSession(
            n=9, model="perceptive", backend="array", seed=3,
        )
        checked = RingSession(
            n=9, model="perceptive", backend="array", seed=3,
            cross_validate=True,
        )
        r1 = plain.run("coordination")
        r2 = checked.run("coordination")
        assert session_fingerprint(plain, r1) == session_fingerprint(
            checked, r2
        )

    def test_cross_validated_session_checks_int_engine(self, monkeypatch):
        """Cross-validation replays every span round by round; the
        replays carry integer columns, so Algorithm 6 shadows one
        IntEquationSystem per agent on the spec, and the run matches
        the plain session bit for bit."""
        from repro.analysis.int_equations import IntEquationSystem

        n = 10
        plain = RingSession(
            n=n, model="perceptive", backend="array", seed=3,
        )
        r1 = plain.run("location-discovery")
        seen = []
        original = IntEquationSystem.__init__

        def spy(self, n, den, cross_check=False):
            seen.append(cross_check)
            original(self, n, den, cross_check=cross_check)

        monkeypatch.setattr(IntEquationSystem, "__init__", spy)
        checked = RingSession(
            n=n, model="perceptive", backend="array", seed=3,
            cross_validate=True,
        )
        r2 = checked.run("location-discovery")
        assert seen == [True] * n
        assert session_fingerprint(plain, r1) == session_fingerprint(
            checked, r2
        )


class TestStretchPlans:
    def test_stretch_shapes(self):
        vec = [R, L, R, L, R]
        assert Stretch(vec, 3).rounds == 3
        assert Stretch.of([vec, vec]).rounds == 2
        pair = Stretch.probe_restore(vec)
        assert pair.rounds == 2
        assert pair.pairs[1][0] == [d.opposite() for d in vec]
        assert pair.last_row == pair.pairs[1][0]
        with pytest.raises(ValueError):
            Stretch(vec, 0)
        with pytest.raises(ValueError):
            Stretch()

    def test_run_fixed_stretch_matches_lattice_loop(self):
        make_state = lambda: random_configuration(9, seed=12)
        sched_a = Scheduler(make_state(), Model.PERCEPTIVE, backend="array")
        sched_l = Scheduler(
            make_state(), Model.PERCEPTIVE, backend=LatticeBackend()
        )
        last_a = sched_a.run_fixed(R, k=6)
        last_l = sched_l.run_fixed(R, k=6)
        assert last_a == last_l
        assert sched_a.rounds == sched_l.rounds == 6
        for va, vb in zip(sched_a.views, sched_l.views):
            assert va.log == vb.log

    def test_stretch_memoised_across_repeats(self):
        sim = RingSimulator(
            random_configuration(8, seed=2), Model.PERCEPTIVE,
            backend="array",
        )
        vec = [R, L, R, L, R, L, R, L]
        first = sim.execute_stretch(Stretch.probe_restore(vec))
        second = sim.execute_stretch(Stretch.probe_restore(vec))
        # Identical (rows, offset) key: the whole span is one dict hit.
        assert second is first
        assert sim.rounds_executed == 4

    def test_policy_may_return_stretch_from_decide(self):
        sched = Scheduler(
            random_configuration(8, seed=2), Model.PERCEPTIVE,
            backend="array",
        )
        policy = PhasePolicy(sched)
        seen = []
        vec = [R, L] * 4
        policy.push_stretch(
            Stretch.probe_restore(vec),
            lambda result: seen.append(result.k),
        )
        policy.run()
        assert seen == [2]
        assert sched.rounds == 2

    @pytest.mark.parametrize("backend", ["fraction", "array"])
    def test_run_rounds_materialises_stretch_outcomes(self, backend):
        # run_rounds keeps its contract for stretch-planning policies:
        # one RoundOutcome per executed round, at least k of them.
        from repro.types import RoundOutcome

        sched = Scheduler(
            random_configuration(8, seed=2), Model.PERCEPTIVE,
            backend=backend,
        )
        vec = [R, L] * 4

        class PairPolicy(PhasePolicy):
            def decide(self, views):
                if not self._queue:
                    self.push_stretch(Stretch.probe_restore(vec))
                return super().decide(views)

        outcomes = sched.run_rounds(PairPolicy(sched), 3)
        # The second pair straddles k=3, so the span runs whole.
        assert len(outcomes) == 4
        assert sched.rounds == 4
        assert all(isinstance(o, RoundOutcome) for o in outcomes)
        ref = Scheduler(
            random_configuration(8, seed=2), Model.PERCEPTIVE,
            backend="fraction",
        )
        from repro.api.policy import VectorPolicy

        opp = [d.opposite() for d in vec]
        expected = [
            ref.run_round(VectorPolicy(v)) for v in (vec, opp, vec, opp)
        ]
        assert outcomes == expected


class TestMultiPairSpans:
    """A fused span of several distinct rows is one gather pass on the
    array backend; replayed round by round on the Fraction backend it
    must give the same rotations, observations and end positions."""

    N = 24

    @staticmethod
    def rows(n):
        row_a = [R if i % 3 else L for i in range(n)]
        return row_a, [d.opposite() for d in row_a]

    @pytest.mark.parametrize("shape", ["runs", "alternating", "repeat"])
    def test_span_matches_round_by_round(self, shape):
        row_a, row_b = self.rows(self.N)
        stretch = {
            "runs": Stretch(pairs=[(row_a, 3), (row_b, 2), (row_a, 1)]),
            "alternating": Stretch.of([row_a, row_b, row_b, row_a]),
            "repeat": Stretch(row_a, 5),
        }[shape]
        state = random_configuration(self.N, seed=5, common_sense=False)
        sched = Scheduler(state, Model.PERCEPTIVE, backend="array")
        result = sched.run_stretch(stretch)
        assert type(result).__name__ == "ArrayStretchResult"  # fused

        ref = RingSimulator(
            random_configuration(self.N, seed=5, common_sense=False),
            Model.PERCEPTIVE, backend="fraction",
        )
        outcomes = [
            ref.execute(row)
            for row, count in stretch.pairs for _ in range(count)
        ]
        assert result.k == stretch.rounds == len(outcomes)
        assert list(result.rotations) == [o.rotation_index for o in outcomes]
        for j, outcome in enumerate(outcomes):
            assert result.observations(j) == outcome.observations
        assert state.positions == ref.state.positions


class TestGuardRails:
    def test_oversized_denominator_declines_vectorised_plans(self):
        # A shared denominator past int64 range must push every layer
        # back to the exact scalar paths, bit-exact with the spec.
        from fractions import Fraction as F

        from repro.ring.configs import explicit_configuration
        from repro.types import Chirality

        P = (1 << 66) + 3
        n = 6
        positions = [F(i, P) for i in range(n - 1)] + [F(P - 1, P)]

        def build():
            return explicit_configuration(
                positions, list(range(1, n + 1)),
                [Chirality.CLOCKWISE] * n, 2 * n,
            )

        sched = Scheduler(build(), Model.PERCEPTIVE, backend="array")
        assert sched.array_module is None  # not int64-fusable
        discover_neighbors(sched)
        ref = Scheduler(build(), Model.PERCEPTIVE, backend="fraction")
        discover_neighbors(ref)
        assert [dict(v.memory) for v in sched.views] == [
            dict(v.memory) for v in ref.views
        ]

    def test_malformed_sign_row_rejected(self):
        from repro.exceptions import SimulationError

        sim = Scheduler(
            random_configuration(6, seed=1), Model.PERCEPTIVE,
            backend="array",
        ).simulator
        with pytest.raises(SimulationError):
            sim.execute_stretch(Stretch([2, 1, 1, 1, 1, 1], 1))


class TestLaziness:
    def test_positions_materialise_only_on_read(self):
        state = random_configuration(9, seed=4)
        sim = RingSimulator(state, Model.PERCEPTIVE, backend="array")
        vec = [R, L, R, R, L, R, L, L, R]
        sim.execute_stretch(Stretch.probe_restore(vec))
        assert state._positions is None  # pending thunk, nothing built
        snap = state.snapshot()  # external read materialises once
        assert state._positions is not None
        ref = RingSimulator(
            random_configuration(9, seed=4), Model.PERCEPTIVE,
            backend="fraction",
        )
        ref.execute(vec)
        ref.execute([d.opposite() for d in vec])
        assert list(snap) == ref.state.positions

    def test_log_rows_stay_lazy_until_read(self):
        sched = Scheduler(
            random_configuration(8, seed=5), Model.PERCEPTIVE,
            backend="array",
        )
        sched.run_fixed(R, k=3)
        rows = sched.population.history._rows
        assert len(rows) == 3
        assert all(isinstance(row, LazyObsRow) for row in rows)
        # Reading one agent's view of round 1 materialises that row
        # (shared across agents), not the others.
        _ = sched.views[0].log[1]
        assert rows[1]._result._obs.get(1) is not None
        assert rows[0]._result._obs.get(0) is None

    def test_version_advances_per_round_in_stretch(self):
        state = random_configuration(8, seed=5)
        sim = RingSimulator(state, Model.PERCEPTIVE, backend="array")
        before = state.version
        sim.execute_stretch(Stretch([R] * 8, 4))
        assert state.version == before + 4


class TestZeroPerRoundOverhead:
    """A fused span: zero per-round ``decide()`` calls, zero per-agent
    memory-adapter accesses (satellite companion of PR 3's profiled
    zero-ChoiceFn test)."""

    def _instrument(self, monkeypatch):
        counts = {"decide": 0, "slot_ops": 0}
        real_decide = PhasePolicy.decide

        def counting_decide(self, views):
            counts["decide"] += 1
            return real_decide(self, views)

        monkeypatch.setattr(PhasePolicy, "decide", counting_decide)
        for name in ("__getitem__", "__setitem__", "__contains__"):
            real = getattr(MemorySlot, name)

            def counting(self, *args, _real=real, **kwargs):
                counts["slot_ops"] += 1
                return _real(self, *args, **kwargs)

            monkeypatch.setattr(MemorySlot, name, counting)
        return counts

    def test_fused_flood_span(self, monkeypatch):
        state = random_configuration(16, seed=5, common_sense=False)
        sched = Scheduler(state, Model.PERCEPTIVE, backend="array")
        if sched.array_module is None:
            pytest.skip("vectorised bitcomm plan requires numpy")
        discover_neighbors(sched)
        width = id_bits(sched.population.id_bound)
        counts = self._instrument(monkeypatch)
        before = sched.rounds
        relay_flood(
            sched,
            [
                agent_id if agent_id % 4 == 1 else None
                for agent_id in sched.population.ids
            ],
            distance=2,
            width=width,
        )
        rounds = sched.rounds - before
        assert rounds == 8 * (width + 1) * 2
        # One decide per fused 4-round exchange, not one per round.
        assert counts["decide"] == rounds // 4
        assert counts["slot_ops"] == 0

    def test_lattice_fallback_still_zero_slot_ops(self, monkeypatch):
        # The fused plan on a scalar backend replays per round but
        # still never touches the per-agent memory adapters.
        state = random_configuration(16, seed=5, common_sense=False)
        sched = Scheduler(state, Model.PERCEPTIVE, backend=LatticeBackend())
        discover_neighbors(sched)
        width = id_bits(sched.population.id_bound)
        counts = self._instrument(monkeypatch)
        relay_flood(
            sched,
            [
                agent_id if agent_id % 4 == 1 else None
                for agent_id in sched.population.ids
            ],
            distance=1,
            width=width,
        )
        assert counts["slot_ops"] == 0


class TestCliBackendArray:
    def test_run_verb_accepts_array_backend(self, capsys):
        import json

        from repro.__main__ import main

        assert main([
            "run", "coordination", "--n", "8", "--backend", "array",
            "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["backend"] == "array"
        assert main([
            "run", "coordination", "--n", "8", "--backend", "fraction",
            "--json",
        ]) == 0
        ref = json.loads(capsys.readouterr().out)
        assert payload["result"] == ref["result"]
        # Compare names and rounds, not driver labels: on the
        # cache-enabled CI axis the rerun is a fetch ([cached]).
        assert [
            (p["name"], p["rounds"]) for p in payload["phases"]
        ] == [(p["name"], p["rounds"]) for p in ref["phases"]]


class TestContentionIdleSlots:
    """Quiet channel gaps have a length the MAC state fixes before they
    run, so they execute as plain fused stretches: never speculative,
    and memoised by (rows, offset) on the array backend."""

    @pytest.mark.parametrize("protocol,seed", [
        ("contention-backoff", 7),
        ("contention-aloha", 1),
    ])
    def test_idle_slots_are_plain_memoised_stretches(
        self, monkeypatch, protocol, seed
    ):
        from repro.faults import channels
        from repro.ring.backends import ArrayBackend

        calls = {"gaps": 0, "stretch": 0, "computed": 0}

        def count(owner, name, key):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[key] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        def no_speculation(self, *args, **kwargs):
            raise AssertionError("contention planned a speculative span")

        count(channels, "_run_idle_slots", "gaps")
        count(ArrayBackend, "execute_stretch", "stretch")
        count(ArrayBackend, "_compute_span", "computed")
        monkeypatch.setattr(
            ArrayBackend, "execute_speculative", no_speculation
        )
        session = RingSession(n=16, model="basic", backend="array", seed=seed)
        result = session.run(protocol)
        assert calls["gaps"] > 0
        # Every slot restores the ring, so repeated gaps and slots meet
        # the same offset and hit the stretch memo.
        assert calls["computed"] < calls["stretch"]
        reference = RingSession(
            n=16, model="basic", backend="fraction", seed=seed
        ).run(protocol)
        assert result.to_dict() == reference.to_dict()


class TestNativeRoundsAreSpans:
    """Every native round is planned as a span: on array the native
    pipelines send no round through ``RingSimulator.execute`` except
    from inside ``execute_stretch`` (where a span the backend declines
    replays).  Holds on both numpy axes: without numpy the spans run
    fused over stdlib arrays."""

    @pytest.mark.parametrize("protocol,model,n,common_sense", [
        # Even n: neighbor discovery, RingDist, broadcast, Alg 6.
        ("location-discovery", "perceptive", 16, False),
        # Odd n: Lemma 13 emptiness tests, rotation-2 sweep.
        ("location-discovery", "basic", 17, False),
        ("coordination", "basic", 17, False),
        ("coordination", "lazy", 17, False),
        ("coordination", "perceptive", 17, False),
        ("location-discovery", "perceptive", 16, True),
    ])
    def test_no_scalar_rounds(
        self, monkeypatch, protocol, model, n, common_sense
    ):
        depth = [0]
        scalar = [0]
        execute = RingSimulator.execute
        execute_stretch = RingSimulator.execute_stretch

        def counted_execute(self, directions):
            if not depth[0]:
                scalar[0] += 1
            return execute(self, directions)

        def nested_stretch(self, stretch):
            depth[0] += 1
            try:
                return execute_stretch(self, stretch)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(RingSimulator, "execute", counted_execute)
        monkeypatch.setattr(RingSimulator, "execute_stretch", nested_stretch)
        session = RingSession(
            n=n, model=model, backend="array", seed=3,
            common_sense=common_sense,
        )
        result = session.run(protocol)
        assert result.rounds > 0
        assert scalar[0] == 0


class TestLateReads:
    """A span's columns read after a resync that changes the shared
    denominator still intern through the scale the span ran under."""

    def test_read_after_rescaling_resync_matches_fraction(self):
        vec = [R, L, R, R, L, R, R, L]
        seen = {}
        for backend in ("array", "fraction"):
            state = random_configuration(8, seed=2)
            sched = Scheduler(state, Model.PERCEPTIVE, backend=backend)
            result = sched.run_stretch(Stretch.probe_restore(vec))
            # Halving every position doubles the shared denominator;
            # the next round resyncs the backend to it.
            state.positions = [p / 2 for p in state.positions]
            sched.simulator.execute(vec)
            if backend == "array":
                assert sched.simulator.backend.scale != result.scale
            seen[backend] = (
                result.dists(0), result.colls(0), result.observations(0)
            )
        assert seen["array"] == seen["fraction"]


class TestNoBackendCycles:
    """A finished session leaves no reference cycle through its array
    backend: a fused span's result reaches its interning tables through
    the span, not through the backend whose memo keeps the result."""

    @pytest.mark.parametrize("protocol,model,n", [
        ("location-discovery", "perceptive", 12),
        ("coordination", "basic", 9),
        ("contention-aloha", "perceptive", 12),
        ("contention-backoff", "lazy", 12),
    ])
    def test_finished_session_leaves_no_backend_in_gc_garbage(
        self, protocol, model, n
    ):
        import gc

        from repro.api.fleet import SessionSpec, run_session_spec
        from repro.ring.backends import ArrayBackend
        from repro.ring.state import RingState

        spec = SessionSpec(
            n=n, protocol=protocol, model=model, backend="array", seed=3
        )
        run_session_spec(spec)  # warm import-time and module caches
        gc.collect()
        before = len(gc.garbage)
        flags = gc.get_debug()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            run_session_spec(spec)
            gc.collect()
            left = [
                type(obj).__name__ for obj in gc.garbage[before:]
                if isinstance(obj, (ArrayBackend, RingState))
            ]
        finally:
            gc.set_debug(flags)
            del gc.garbage[before:]
            gc.collect()
        assert left == []
