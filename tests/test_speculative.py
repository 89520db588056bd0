"""Speculative fused stretches and unchecked execution.

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
* **Unchecked execution** -- skipping the provably-restoring rounds of
  probe/restore pairs preserves final positions and protocol results
  across all three backends while executing strictly fewer rounds.
"""

import pytest

from repro.api import RingSession, SpeculativeStretch, Stretch
from repro.core.scheduler import Scheduler
from repro.protocols.policies.base import PhasePolicy
from repro.ring.configs import random_configuration
from repro.types import LocalDirection, Model

R, L = LocalDirection.RIGHT, LocalDirection.LEFT

BACKENDS = ("array", "fraction")


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
        # Chunks of 3 force several speculative spans plus a mid-chunk
        # truncation; results must not move.
        from repro.protocols.policies import location_discovery as native

        def run(chunk):
            if chunk is not None:
                monkeypatch.setattr(native, "_MAX_CHUNK", chunk)
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


def result_core(session, result):
    """The unchecked-invariant part of a run: world + protocol output
    (round counts and logs are legitimately different)."""
    payload = result.to_dict()
    payload.pop("rounds", None)
    payload.pop("rounds_by_phase", None)
    return (session.state.snapshot(), payload)


class TestUnchecked:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "protocol,model,n",
        [
            ("coordination", "perceptive", 12),
            ("location-discovery", "perceptive", 12),
            ("coordination", "lazy", 9),
        ],
    )
    def test_positions_and_results_restore(
        self, protocol, model, n, backend
    ):
        checked = RingSession(n=n, model=model, backend=backend, seed=7)
        unchecked = RingSession(
            n=n, model=model, backend=backend, seed=7, unchecked=True,
        )
        r_checked = checked.run(protocol)
        r_unchecked = unchecked.run(protocol)
        assert result_core(unchecked, r_unchecked) == result_core(
            checked, r_checked
        )
        # The fast mode really skipped something.
        assert unchecked.rounds < checked.rounds

    def test_unchecked_identical_across_backends(self):
        fingerprints = []
        for backend in BACKENDS:
            session = RingSession(
                n=12, model="perceptive", backend=backend, seed=3,
                unchecked=True,
            )
            result = session.run("location-discovery")
            fingerprints.append((
                session.rounds,
                result_core(session, result),
                [dict(v.memory) for v in session.views],
                [list(v.log) for v in session.views],
            ))
        assert fingerprints[0] == fingerprints[1]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_push_probe_restores_positions_in_one_round(self, backend):
        sched = fresh_sched(backend, unchecked=True)
        before = sched.state.snapshot()
        policy = PhasePolicy(sched)
        seen = []
        policy.push_probe([R, L] * 4, lambda obs: seen.append(len(obs)))
        policy.run()
        assert seen == [8]
        assert sched.rounds == 1  # the restore never ran ...
        assert sched.state.snapshot() == before  # ... yet positions restored

    def test_cross_validation_disables_skipping(self):
        sched = fresh_sched("array", cross_validate=True, unchecked=True)
        assert sched.unchecked is False
        policy = PhasePolicy(sched)
        policy.push_probe([R, L] * 4)
        policy.run()
        assert sched.rounds == 2

    def test_cli_unchecked_smoke(self, capsys):
        import json

        from repro.__main__ import main

        assert main([
            "run", "coordination", "--n", "8", "--unchecked", "--json",
        ]) == 0
        fast = json.loads(capsys.readouterr().out)
        assert fast["unchecked"] is True
        assert main(["run", "coordination", "--n", "8", "--json"]) == 0
        ref = json.loads(capsys.readouterr().out)
        assert fast["result"]["leader_id"] == ref["result"]["leader_id"]
        assert fast["result"]["rounds"] < ref["result"]["rounds"]

    def test_sweep_unchecked_spec(self):
        from repro.api import sweep

        specs = sweep(sizes=(8,), seeds=(0,), unchecked=True)
        assert all(spec.unchecked for spec in specs)
