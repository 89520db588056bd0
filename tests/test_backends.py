"""Backend equivalence: the array backend and its scalar integer base
class (``LatticeBackend``) must produce bit-identical results to the
Fraction backend on every round.

This is the load-bearing guarantee of the backend layer: protocols test
*equalities* between observed rationals, so the derived backends cannot
be merely "close" -- every ``dist()``, every ``coll()``, every rotation
index, every event count and every position must match the reference
backend exactly, across all three model variants, including rounds with
simultaneous multi-agent contacts and external position writes, with
and without numpy installed (the array backend's stdlib fallback).
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.scheduler import Scheduler
from repro.exceptions import SimulationError
from repro.ring.backends import (
    ArrayBackend,
    BACKEND_NAMES,
    DEFAULT_BACKEND,
    FractionBackend,
    LatticeBackend,
    make_backend,
)
from repro.ring.configs import (
    explicit_configuration,
    jittered_equidistant_configuration,
    random_configuration,
)
from repro.ring.simulator import RingSimulator
from repro.types import Chirality, LocalDirection, Model

F = Fraction
R, L, I = LocalDirection.RIGHT, LocalDirection.LEFT, LocalDirection.IDLE

#: All derived backends, compared against the Fraction reference:
#: array and its scalar base class (``"lattice"``), which
#: ``make_backend`` does not resolve by name.
DERIVED_BACKENDS = ("lattice", "array")


def backend_for(name):
    """A backend spec for ``name``: a fresh :class:`LatticeBackend` for
    array's scalar base class, else the registered name."""
    return LatticeBackend() if name == "lattice" else name


def equidistant_state(n=8, chiralities=None):
    return explicit_configuration(
        positions=[F(i, n) for i in range(n)],
        ids=list(range(1, n + 1)),
        chiralities=chiralities or [Chirality.CLOCKWISE] * n,
        id_bound=2 * n,
    )


def paired_simulators(make_state, model, cross_validate=False,
                      backends=("fraction",) + DERIVED_BACKENDS):
    """Identical worlds, one per backend (reference first)."""
    return [
        RingSimulator(
            make_state(), model, cross_validate, backend=backend_for(backend)
        )
        for backend in backends
    ]


def assert_rounds_identical(sims, directions_seq):
    """Drive all simulators through the same rounds; compare everything
    against the first (reference) simulator."""
    ref = sims[0]
    for k, directions in enumerate(directions_seq):
        out_ref = ref.execute(directions)
        for sim in sims[1:]:
            out = sim.execute(directions)
            name = sim.backend.name
            assert out.rotation_index == out_ref.rotation_index, \
                f"round {k} ({name})"
            assert out.collision_events == out_ref.collision_events, \
                f"round {k} ({name})"
            assert out.observations == out_ref.observations, \
                f"round {k} ({name})"
            assert sim.state.positions == ref.state.positions, \
                f"round {k} ({name})"
            assert sim.state.gaps() == ref.state.gaps(), \
                f"round {k} ({name})"


class TestMakeBackend:
    def test_default_is_array(self):
        assert DEFAULT_BACKEND == "array"
        assert isinstance(make_backend(None), ArrayBackend)

    def test_by_name_and_instance(self):
        assert isinstance(make_backend("fraction"), FractionBackend)
        assert isinstance(make_backend("array"), ArrayBackend)
        inst = FractionBackend()
        assert make_backend(inst) is inst

    def test_registry_names(self):
        assert set(BACKEND_NAMES) == {"fraction", "array"}
        for name in BACKEND_NAMES:
            assert make_backend(name).name == name

    def test_lattice_is_not_a_name(self):
        # Array's scalar base class stays available as a class only.
        with pytest.raises(SimulationError, match="unknown kinematics"):
            make_backend("lattice")
        inst = LatticeBackend()
        assert make_backend(inst) is inst

    def test_array_is_a_lattice_backend(self):
        # Single rounds run on the proven integer path; only fused
        # stretches take the columnar one.
        backend = make_backend("array")
        assert isinstance(backend, LatticeBackend)
        assert backend.supports_stretch

    def test_unknown_name_rejected(self):
        with pytest.raises(SimulationError):
            make_backend("decimal")


class TestRandomizedEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=5, max_value=12),
        seed=st.integers(0, 10_000),
        model=st.sampled_from([Model.BASIC, Model.LAZY, Model.PERCEPTIVE]),
    )
    def test_random_rounds_bit_exact(self, n, seed, model):
        make_state = lambda: random_configuration(
            n, seed=seed, common_sense=None
        )
        sims = paired_simulators(make_state, model)
        rng = random.Random(seed)
        choices = (R, L, I) if model.allows_idle else (R, L)
        seq = [
            [rng.choice(choices) for _ in range(n)] for _ in range(12)
        ]
        assert_rounds_identical(sims, seq)

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(min_value=5, max_value=9), seed=st.integers(0, 5000))
    def test_cross_validated_rounds_agree(self, n, seed):
        """With cross-validation on, every backend runs its own event
        engine and the engines must agree with each other too."""
        make_state = lambda: random_configuration(n, seed=seed)
        sims = paired_simulators(
            make_state, Model.PERCEPTIVE, cross_validate=True
        )
        rng = random.Random(seed + 1)
        seq = [[rng.choice((R, L)) for _ in range(n)] for _ in range(6)]
        assert_rounds_identical(sims, seq)
        for sim in sims[1:]:
            assert sim.collision_events == sims[0].collision_events

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 5000))
    def test_lazy_cross_validated(self, seed):
        make_state = lambda: random_configuration(8, seed=seed)
        sims = paired_simulators(
            make_state, Model.LAZY, cross_validate=True
        )
        rng = random.Random(seed)
        seq = [[rng.choice((R, L, I)) for _ in range(8)] for _ in range(6)]
        assert_rounds_identical(sims, seq)


class TestSimultaneousContacts:
    """Equidistant rings make every collision simultaneous -- the stress
    case for event-count and first-collision agreement."""

    def test_alternating_velocities(self):
        make_state = lambda: equidistant_state(8)
        sims = paired_simulators(
            make_state, Model.PERCEPTIVE, cross_validate=True
        )
        seq = [[R, L] * 4, [L, R] * 4, [R, R, L, L] * 2]
        assert_rounds_identical(sims, seq)
        assert sims[0].collision_events > 0

    def test_symmetric_idle_contacts(self):
        # Movers converge symmetrically on idle agents: simultaneous
        # triple contacts resolved by pairwise exchange.
        make_state = lambda: equidistant_state(9)
        sims = paired_simulators(
            make_state, Model.LAZY, cross_validate=True
        )
        seq = [[R, I, L] * 3, [I, R, L] * 3, [I, I, I] * 3]
        assert_rounds_identical(sims, seq)

    def test_jittered_near_symmetric(self):
        make_state = lambda: jittered_equidistant_configuration(10, seed=3)
        sims = paired_simulators(
            make_state, Model.PERCEPTIVE, cross_validate=True
        )
        rng = random.Random(5)
        seq = [[rng.choice((R, L)) for _ in range(10)] for _ in range(8)]
        assert_rounds_identical(sims, seq)


@pytest.mark.parametrize("backend", DERIVED_BACKENDS)
class TestExternalWrites:
    def test_resyncs_after_restore(self, backend):
        state = random_configuration(7, seed=9, common_sense=True)
        sim = RingSimulator(
            state, Model.PERCEPTIVE, backend=backend_for(backend)
        )
        snap = state.snapshot()
        sim.execute([R, L, R, L, R, L, R])
        state.restore(snap)
        # The backend must notice the external write and re-derive its
        # lattice; a stale offset would corrupt every later round.
        out = sim.execute([R] * 7)
        assert state.snapshot() == snap  # all-clockwise unit lap: r = 0
        assert out.rotation_index == 0

    def test_resyncs_after_manual_assignment(self, backend):
        state = random_configuration(6, seed=2, common_sense=True)
        sim = RingSimulator(state, Model.BASIC, backend=backend_for(backend))
        sim.execute([R, L, R, L, R, L])
        state.positions = [F(i, 6) for i in range(6)]
        ref = RingSimulator(
            random_configuration(6, seed=2, common_sense=True),
            Model.BASIC,
            backend="fraction",
        )
        ref.state.positions = [F(i, 6) for i in range(6)]
        out_l = sim.execute([R, R, R, L, L, L])
        out_f = ref.execute([R, R, R, L, L, L])
        assert out_l.observations == out_f.observations
        assert sim.state.positions == ref.state.positions

    def test_resyncs_between_stretches(self, backend):
        # External writes between fused spans must re-derive the
        # columnar representation too, not just the scalar one.
        from repro.ring.stretch import Stretch

        state = random_configuration(7, seed=9, common_sense=True)
        sim = RingSimulator(
            state, Model.PERCEPTIVE, backend=backend_for(backend)
        )
        snap = state.snapshot()
        vec = [R, L, R, L, R, L, R]
        sim.execute_stretch(Stretch.probe_restore(vec))
        assert state.snapshot() == snap
        state.positions = [F(i, 7) for i in range(7)]
        ref = RingSimulator(
            random_configuration(7, seed=9, common_sense=True),
            Model.PERCEPTIVE,
            backend="fraction",
        )
        ref.state.positions = [F(i, 7) for i in range(7)]
        result = sim.execute_stretch(Stretch(vec, 1))
        out_f = ref.execute(vec)
        assert result.observations(0) == out_f.observations
        assert sim.state.positions == ref.state.positions

    def test_snapshot_restore_roundtrip_with_gap_cache(self, backend):
        state = random_configuration(8, seed=4)
        gaps_before = state.gaps()
        snap = state.snapshot()
        sim = RingSimulator(state, Model.BASIC, backend=backend_for(backend))
        rng = random.Random(7)
        for _ in range(5):
            dirs = [rng.choice((R, L)) for _ in range(8)]
            sim.execute(dirs)
            # Cached gaps must always equal a fresh recomputation.
            fresh = RingSimulator(
                explicit_configuration(
                    positions=state.positions,
                    ids=state.ids,
                    chiralities=state.chiralities,
                    id_bound=state.id_bound,
                ),
                Model.BASIC,
            ).state.gaps()
            assert state.gaps() == fresh
        state.restore(snap)
        assert state.gaps() == gaps_before


class TestBatchedExecution:
    def test_run_fixed_batch_matches_loop(self):
        make_state = lambda: random_configuration(8, seed=12)
        sched_batch = Scheduler(make_state(), Model.PERCEPTIVE)
        sched_loop = Scheduler(make_state(), Model.PERCEPTIVE)
        last = sched_batch.run_fixed(R, k=5)
        for _ in range(5):
            last_loop = sched_loop.run_fixed(R)
        assert sched_batch.rounds == sched_loop.rounds == 5
        assert last == last_loop
        for va, vb in zip(sched_batch.views, sched_loop.views):
            assert va.log == vb.log
        assert (
            sched_batch.state.positions == sched_loop.state.positions
        )

    def test_run_rounds_matches_single_rounds(self):
        make_state = lambda: random_configuration(7, seed=3)
        sched_a = Scheduler(make_state(), Model.BASIC)
        sched_b = Scheduler(make_state(), Model.BASIC)
        flip = {True: R, False: L}
        choose = lambda view: flip[view.agent_id % 2 == 0]
        outcomes = sched_a.run_rounds(choose, 6)
        for _ in range(6):
            sched_b.run_round(choose)
        assert len(outcomes) == 6
        assert sched_a.rounds == sched_b.rounds == 6
        for va, vb in zip(sched_a.views, sched_b.views):
            assert va.log == vb.log

    def test_run_fixed_rejects_nonpositive(self):
        sched = Scheduler(random_configuration(6, seed=1), Model.BASIC)
        with pytest.raises(ValueError):
            sched.run_fixed(R, k=0)

    def test_batch_across_backends(self):
        make_state = lambda: random_configuration(9, seed=8)
        outs = {}
        scheds = {}
        for backend in ("fraction",) + DERIVED_BACKENDS:
            sched = Scheduler(
                make_state(), Model.PERCEPTIVE, backend=backend_for(backend)
            )
            outs[backend] = sched.run_fixed(L, k=7)
            scheds[backend] = sched
        assert outs["fraction"] == outs["lattice"] == outs["array"]
        for backend in DERIVED_BACKENDS:
            for va, vb in zip(
                scheds["fraction"].views, scheds[backend].views
            ):
                assert va.log == vb.log


class TestNumpyAbsentFallback:
    """The array backend must degrade to the stdlib ``array`` module --
    bit-exactly -- when ``import numpy`` fails."""

    def _without_numpy(self, monkeypatch):
        import builtins

        from repro.ring import arrayops

        real_import = builtins.__import__

        def no_numpy(name, *args, **kwargs):
            if name == "numpy":
                raise ImportError("numpy disabled for this test")
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", no_numpy)
        arrayops.reset_numpy_cache()

    def test_fallback_is_bit_exact(self, monkeypatch):
        from repro.ring import arrayops

        self._without_numpy(monkeypatch)
        try:
            backend = make_backend("array")
            assert backend.np is None
            make_state = lambda: random_configuration(8, seed=21)
            sims = paired_simulators(
                make_state, Model.PERCEPTIVE,
                backends=("fraction", "array"),
            )
            assert sims[1].backend.np is None
            rng = random.Random(3)
            seq = [[rng.choice((R, L)) for _ in range(8)] for _ in range(8)]
            assert_rounds_identical(sims, seq)
        finally:
            monkeypatch.undo()
            arrayops.reset_numpy_cache()

    def test_fallback_fuses_stretches(self, monkeypatch):
        from repro.ring import arrayops
        from repro.ring.stretch import Stretch

        self._without_numpy(monkeypatch)
        try:
            sim = RingSimulator(
                random_configuration(8, seed=21),
                Model.PERCEPTIVE,
                backend="array",
            )
            ref = RingSimulator(
                random_configuration(8, seed=21),
                Model.PERCEPTIVE,
                backend="fraction",
            )
            vec = [R, L, R, L, L, R, R, L]
            result = sim.execute_stretch(Stretch.probe_restore(vec))
            # Fused even without numpy: stdlib-array columns, np unset.
            assert type(result).__name__ == "ArrayStretchResult"
            assert result.np is None
            o1 = ref.execute(vec)
            o2 = ref.execute([d.opposite() for d in vec])
            assert result.observations(0) == o1.observations
            assert result.observations(1) == o2.observations
            assert sim.state.positions == ref.state.positions
        finally:
            monkeypatch.undo()
            arrayops.reset_numpy_cache()

    def test_native_protocols_on_fallback(self, monkeypatch):
        from repro.ring import arrayops

        self._without_numpy(monkeypatch)
        try:
            from repro.api import RingSession

            results = {}
            for backend in ("fraction", "array"):
                session = RingSession(
                    n=8, model="perceptive", backend=backend, seed=13,
                )
                result = session.run("coordination")
                results[backend] = (
                    session.rounds,
                    session.state.snapshot(),
                    [dict(v.memory) for v in session.views],
                    result.to_dict(),
                )
            assert results["fraction"] == results["array"]
        finally:
            monkeypatch.undo()
            arrayops.reset_numpy_cache()


class TestUnanimousMemory:
    def test_agreement_by_equality(self):
        sched = Scheduler(random_configuration(6, seed=1), Model.BASIC)
        for view in sched.views:
            view.memory["x"] = F(1, 2)
        assert sched.unanimous_memory("x") == F(1, 2)

    def test_equal_values_with_distinct_reprs_agree(self):
        # repr() comparison would split these: dict printouts differ,
        # but the values are equal.
        sched = Scheduler(random_configuration(6, seed=1), Model.BASIC)
        for i, view in enumerate(sched.views):
            view.memory["x"] = {"a": 1, "b": 2} if i % 2 else {"b": 2, "a": 1}
        assert sched.unanimous_memory("x") == {"a": 1, "b": 2}

    def test_disagreement_returns_none(self):
        sched = Scheduler(random_configuration(6, seed=1), Model.BASIC)
        for i, view in enumerate(sched.views):
            view.memory["x"] = i
        assert sched.unanimous_memory("x") is None

    def test_missing_key_is_unanimous_none(self):
        sched = Scheduler(random_configuration(6, seed=1), Model.BASIC)
        assert sched.unanimous_memory("nope") is None
