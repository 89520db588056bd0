"""Speculative fused stretches and the probe/restore path.

Three guarantees are pinned here:

* **Cut-back semantics** -- a :class:`SpeculativeStretch`'s stop
  predicate decides the committed span length on every backend: firing
  at round 0 commits one round, never firing commits the full span,
  firing mid probe/restore pair leaves the world at the probe boundary
  (the rollback really is a state-level cut, not a view trick).  The
  predicate is called once per executed round, in order, on both the
  columnar and the scalar path.
* **Equivalence under chunking** -- the speculative sweeps stay
  bit-exact against the callback drivers even when forced to speculate
  in tiny multi-chunk spans (truncation in the middle of a chunk).
* **Probe/restore** -- every REVERSEDROUND is executed and counted,
  positions come back bit-exactly on both backends and all three
  models, and on array the restore rounds are never materialised.
  ``Scheduler.skip_restoring`` (no driver calls it) commits the same
  positions as the simulated span without counting its rounds.
"""

import random

import pytest

from repro.api import RingSession, SpeculativeStretch, Stretch
from repro.core.population import LazyObsRow
from repro.core.scheduler import Scheduler
from repro.protocols.policies.base import PhasePolicy
from repro.ring.configs import random_configuration
from repro.types import LocalDirection, Model

R, L, I = LocalDirection.RIGHT, LocalDirection.LEFT, LocalDirection.IDLE

BACKENDS = ("array", "fraction")
MODELS = (Model.BASIC, Model.LAZY, Model.PERCEPTIVE)
MODEL_IDS = [model.value for model in MODELS]


def fresh_sched(backend, n=8, seed=2, model=Model.PERCEPTIVE, **kwargs):
    return Scheduler(
        random_configuration(n, seed=seed), model, backend=backend,
        **kwargs,
    )


class TestStopPredicate:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fires_at_round_zero(self, backend):
        sched = fresh_sched(backend)
        vec = [R, L] * 4
        result = sched.run_stretch(
            SpeculativeStretch(vec, 5, stop=lambda result, j: True)
        )
        assert result.k == 1
        assert sched.rounds == 1
        ref = fresh_sched("fraction")
        outcome = ref.simulator.execute(vec)
        assert sched.state.snapshot() == ref.state.snapshot()
        assert result.observations(0) == outcome.observations

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_never_fires_commits_full_span(self, backend):
        vec = [R, L] * 4
        spec = fresh_sched(backend)
        result = spec.run_stretch(
            SpeculativeStretch(vec, 6, stop=lambda result, j: False)
        )
        assert result.k == 6
        assert spec.rounds == 6
        plain = fresh_sched(backend)
        ref = plain.run_stretch(Stretch(vec, 6))
        assert spec.state.snapshot() == plain.state.snapshot()
        for j in range(6):
            assert result.observations(j) == ref.observations(j)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fires_mid_probe_restore_pair(self, backend):
        # The plan is a fused probe/restore pair; the predicate fires
        # on the probe, so the restore must never happen -- the world
        # ends at the post-probe rotation, bit-exact with a scalar
        # probe-only reference.
        vec = [R, L, R, R, L, R, L, L]
        sched = fresh_sched(backend)
        pair = Stretch.probe_restore(vec)
        result = sched.run_stretch(
            SpeculativeStretch(pairs=pair.pairs, stop=lambda r, j: j == 0)
        )
        assert result.k == 1
        assert sched.rounds == 1
        ref = fresh_sched("fraction")
        ref.simulator.execute(vec)
        assert sched.state.snapshot() == ref.state.snapshot()

    @pytest.mark.parametrize("backend", ("fraction", "array"))
    def test_predicate_called_once_per_round_in_order(self, backend):
        sched = fresh_sched(backend)
        seen = []

        def stop(result, j):
            seen.append(j)
            # The result must already hold rounds 0..j.
            assert result.k >= j + 1
            return j == 3

        result = sched.run_stretch(
            SpeculativeStretch([R] * 8, 7, stop=stop)
        )
        assert seen == [0, 1, 2, 3]
        assert result.k == 4
        assert sched.rounds == 4

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cut_back_rewinds_lazy_commit(self, backend):
        # After the cut, history holds exactly the committed rounds and
        # a subsequent plain round continues from the boundary.
        sched = fresh_sched(backend)
        vec = [R] * 8
        sched.run_stretch(SpeculativeStretch(vec, 6, stop=lambda r, j: j == 1))
        assert len(sched.population.history) == 2
        sched.run_fixed(L, k=1)
        ref = fresh_sched(backend)
        ref.run_fixed(R, k=2)
        ref.run_fixed(L, k=1)
        assert sched.state.snapshot() == ref.state.snapshot()
        assert sched.rounds == ref.rounds == 3


class TestSpeculativeSweepChunking:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_multi_chunk_sweeps_stay_bit_exact(self, backend, monkeypatch):
        # Chunks of 3 force several speculative spans; results must
        # not move.
        from repro.protocols.policies import location_discovery as native

        def run(chunk):
            if chunk is not None:
                monkeypatch.setattr(native, "_CHUNK_CELLS", chunk * 9)
            session = RingSession(
                n=9, model="lazy", backend=backend, seed=5,
            )
            result = session.run("location-discovery")
            return (
                session.rounds,
                session.state.snapshot(),
                result.to_dict(),
            )

        chunked = run(3)
        monkeypatch.undo()
        assert chunked == run(None)

    def test_distances_speculative_matches_callback(self):
        fingerprints = {}
        for driver in ("native", "callback"):
            session = RingSession(
                n=12, model="perceptive", backend="array", seed=7,
                driver=driver,
            )
            result = session.run("location-discovery")
            fingerprints[driver] = (
                session.rounds,
                session.state.snapshot(),
                result.to_dict(),
                [list(v.log) for v in session.views],
            )
        assert fingerprints["native"] == fingerprints["callback"]


class TestProbeRestore:
    """Every REVERSEDROUND is executed and counted.  A probe/restore
    pair brings positions back bit-exactly on both backends and all
    three models, and on array the restore rounds are filed as lazy
    rows that nothing reads."""

    VEC = [R, L, R, R, L, R, R, L]  # rotation index 6 at seed 2

    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_push_probe_span_restores_positions_in_two_rounds(
        self, backend, model
    ):
        sched = fresh_sched(backend, model=model)
        before = sched.state.snapshot()
        policy = PhasePolicy(sched)
        seen = []
        policy.push_probe_span(self.VEC, seen.append)
        policy.run()
        assert sched.rounds == 2
        assert sched.state.snapshot() == before
        # The harvest saw the probe round exactly as the spec plays it,
        # and that round really moved the agents.
        ref = fresh_sched("fraction", model=model)
        outcome = ref.simulator.execute(self.VEC)
        assert ref.state.snapshot() != before
        assert len(seen) == 1
        result = seen[0]
        assert result.k == 2
        assert result.observations(0) == outcome.observations
        assert result.dists(0) == [o.dist for o in outcome.observations]
        assert result.colls(0) == [o.coll for o in outcome.observations]

    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_push_restore_k_undoes_k_probe_rounds(self, backend, model):
        for k in (1, 2, 3):
            sched = fresh_sched(backend, model=model)
            before = sched.state.snapshot()
            policy = PhasePolicy(sched)
            policy.push_stretch(Stretch(self.VEC, k))
            policy.push_restore(k)
            policy.run()
            assert sched.rounds == 2 * k
            assert sched.state.snapshot() == before

    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    def test_restore_rows_stay_unread_on_array(self, model):
        sched = fresh_sched("array", model=model)
        policy = PhasePolicy(sched)
        policy.push_probe_span(
            self.VEC, lambda result: result.observations(0)
        )
        policy.push_stretch(Stretch(self.VEC, 2))
        policy.push_restore(2)
        policy.run()
        rows = sched.population.history._rows
        assert len(rows) == sched.rounds == 6
        assert all(isinstance(row, LazyObsRow) for row in rows)
        # The probe harvest read round 0; rounds 1, 4 and 5 restore.
        assert rows[0]._result._obs.get(rows[0]._j) is not None
        for j in (1, 4, 5):
            assert rows[j]._result._obs.get(rows[j]._j) is None


class TestSkipRestoring:
    """``Scheduler.skip_restoring`` commits a span's net rotation
    without simulating it: the positions equal the simulated span's,
    no round is counted, and later rounds continue bit-exactly (the
    array backend resyncs on the state's version bump)."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_simulated_restore_span(self, backend):
        rng = random.Random(20260)
        for _ in range(40):
            n = rng.randint(5, 12)
            seed = rng.randrange(1000)
            model = rng.choice(MODELS)
            dirs = [R, L, I] if model.allows_idle else [R, L]
            probe = [rng.choice(dirs) for _ in range(n)]
            restore = [d.opposite() for d in probe]
            k = rng.randint(1, 4)
            skipped = fresh_sched(backend, n=n, seed=seed, model=model)
            simulated = fresh_sched("fraction", n=n, seed=seed, model=model)
            for sched in (skipped, simulated):
                sched.run_stretch(Stretch(probe, 1))
            skipped.skip_restoring(restore, k)
            simulated.run_stretch(Stretch(restore, k))
            assert skipped.state.snapshot() == simulated.state.snapshot()
            assert skipped.rounds == 1
            assert simulated.rounds == 1 + k
            after = skipped.run_stretch(Stretch(probe, 2))
            ref = simulated.run_stretch(Stretch(probe, 2))
            assert skipped.state.snapshot() == simulated.state.snapshot()
            for j in range(2):
                assert after.observations(j) == ref.observations(j)
