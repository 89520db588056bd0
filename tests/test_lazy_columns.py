"""Probe/restore rounds pay only for what is read.

A fused span on the array backend computes its rotations when it
executes (the commit needs them) and each observation column on its
first read, from what it captured at execution.  Pinned here:

* columns read lazily -- in random order, after ``truncated()``, after
  a forced resync -- equal the columns read at once and the
  ``fraction`` backend's observations and integer columns, on both
  numpy axes;
* a span nobody reads builds no column and derives no collision hops,
  and a ``dist()`` read derives no hops either;
* the contention channel's sessions build no column at all and still
  match ``fraction`` byte for byte;
* native Algorithm 2 runs one fused span per ID bit, no scalar round,
  and agrees with the callback driver.
"""

import random

import pytest

from repro import RingSession
from repro.core.agent import id_bits
from repro.protocols.base import KEY_LEADER
from repro.protocols.leader_election import _KEY_SAW_NONZERO
from repro.ring import arrayops, backends
from repro.ring.arrayops import signs_to_directions
from repro.ring.configs import random_configuration
from repro.ring.simulator import RingSimulator
from repro.ring.stretch import Stretch
from repro.types import Model


@pytest.fixture
def builds(monkeypatch):
    """Count column builds and collision-hop derivations."""
    calls = {"dist": 0, "coll": 0, "hops": 0}

    def counted(module, name, key):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(backends, "_span_dist", "dist")
    counted(backends, "_span_coll", "coll")
    counted(backends, "hops_to_opposite", "hops")
    counted(arrayops, "hops_to_opposite_array", "hops")
    return calls


def _ints(column):
    return None if column is None else [int(v) for v in column]


def _random_pairs(rng, n, idle):
    choices = (1, -1, 0) if idle else (1, -1)
    pairs = []
    for _ in range(rng.randint(1, 4)):
        signs = [rng.choice(choices) for _ in range(n)]
        row = signs if rng.random() < 0.5 else signs_to_directions(signs)
        pairs.append((row, rng.randint(1, 3)))
    return pairs


def _simulator(n, seed, model, backend):
    state = random_configuration(n, seed=seed, common_sense=False)
    return RingSimulator(state, model, backend=backend)


class TestColumnsOnFirstRead:
    @pytest.mark.parametrize("model", [Model.PERCEPTIVE, Model.LAZY])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_spans_match_eager_reads_and_fraction(
        self, numpy_axis, builds, model, seed
    ):
        rng = random.Random(f"{model.value}:{seed}")
        n = rng.randint(5, 11)
        idle = model.allows_idle
        warm = Stretch(pairs=_random_pairs(rng, n, idle))
        stretch = Stretch(pairs=_random_pairs(rng, n, idle))
        lazy_sim, eager_sim, spec_sim = (
            _simulator(n, seed, model, backend)
            for backend in ("array", "array", "fraction")
        )
        start = lazy_sim.state.snapshot()
        for sim in (lazy_sim, eager_sim, spec_sim):
            sim.execute_stretch(warm)
        lazy = lazy_sim.execute_stretch(stretch)
        eager = eager_sim.execute_stretch(stretch)
        spec = spec_sim.execute_stretch(stretch)
        k = stretch.rounds
        # Rotations exist from execution on; columns do not.
        assert lazy.rotations == spec.rotations
        assert builds == {"dist": 0, "coll": 0, "hops": 0}
        eager_dist = [_ints(eager.dist_ints(j)) for j in range(k)]
        eager_coll = [_ints(eager.coll_ints(j)) for j in range(k)]
        spec_obs = [spec.observations(j) for j in range(k)]
        assert [eager.observations(j) for j in range(k)] == spec_obs
        # The span replayed on fraction carries the same integer
        # columns (-1 for each missing coll()).
        assert spec.scale == eager.scale
        assert [spec.dist_ints(j) for j in range(k)] == eager_dist
        assert [spec.coll_ints(j) for j in range(k)] == [
            [-1] * n if c is None else c for c in eager_coll
        ]

        kept = k
        if rng.random() < 0.5:
            kept = rng.randint(1, k)
            lazy = lazy.truncated(kept)
            assert lazy.k == kept
            assert lazy.rotations == spec.rotations[:kept]
        if rng.random() < 0.5:
            # An external position write bumps the version; the next
            # round resyncs the backend onto new arrays.
            backend = lazy_sim.backend
            old_prefix = backend._prefix
            lazy_sim.state.restore(start)
            lazy_sim.execute_stretch(warm)
            assert backend._prefix is not old_prefix

        reads = [
            (j, what)
            for j in range(kept)
            for what in ("dist", "coll", "obs", "dists", "colls")
        ]
        rng.shuffle(reads)
        for j, what in reads:
            if what == "dist":
                assert _ints(lazy.dist_ints(j)) == eager_dist[j]
            elif what == "coll":
                assert _ints(lazy.coll_ints(j)) == eager_coll[j]
            elif what == "obs":
                assert lazy.observations(j) == spec_obs[j]
            elif what == "dists":
                assert lazy.dists(j) == [o.dist for o in spec_obs[j]]
            else:
                assert lazy.colls(j) == [o.coll for o in spec_obs[j]]
        if kept == k and lazy.np is not None:
            assert _ints_matrix(lazy.dist_ints_all()) == eager_dist

    def test_unread_span_builds_nothing_and_dist_derives_no_hops(
        self, numpy_axis, builds
    ):
        sim = _simulator(9, 3, Model.PERCEPTIVE, "array")
        row = [1, -1, 1, 1, -1, 1, -1, -1, 1]
        result = sim.execute_stretch(Stretch.probe_restore(row))
        assert builds == {"dist": 0, "coll": 0, "hops": 0}
        result.dist_ints(0)
        assert builds == {"dist": 1, "coll": 0, "hops": 0}
        result.coll_ints(1)
        assert builds == {"dist": 1, "coll": 1, "hops": 2}
        result.observations(0)
        result.colls(1)
        assert builds == {"dist": 1, "coll": 1, "hops": 2}
        # Another span over the same row derives no hops again.
        sim.execute_stretch(Stretch(row, 3)).coll_ints(2)
        assert builds == {"dist": 1, "coll": 2, "hops": 2}

    def test_lattice_pattern_derives_coll_spec_only_when_asked(
        self, builds
    ):
        backend = backends.LatticeBackend()
        backend.attach(random_configuration(6, seed=2))
        vel = (1, -1, 1, 1, -1, -1)
        assert backend._pattern(vel, False)[3] is None
        assert builds["hops"] == 0
        spec = backend._pattern(vel, True)[3]
        assert spec is not None and builds["hops"] == 1
        assert backend._pattern(vel, False)[3] is spec
        assert builds["hops"] == 1


def _ints_matrix(matrix):
    return [[int(v) for v in row] for row in matrix]


class TestContentionBuildsNoColumn:
    @pytest.mark.parametrize("protocol", [
        "contention-backoff", "contention-aloha",
    ])
    @pytest.mark.parametrize("model", ["basic", "perceptive"])
    def test_session_builds_no_column_and_matches_fraction(
        self, numpy_axis, builds, protocol, model
    ):
        result = RingSession(
            n=12, model=model, backend="array", seed=4
        ).run(protocol)
        assert builds == {"dist": 0, "coll": 0, "hops": 0}
        reference = RingSession(
            n=12, model=model, backend="fraction", seed=4
        ).run(protocol)
        assert result.to_dict() == reference.to_dict()


def _elect(n, model, seed, backend, driver):
    """A session that ran coordination (ending with leader election)."""
    session = RingSession(
        n=n, model=model, backend=backend, seed=seed, driver=driver
    )
    session.start("coordination")
    while session.pending_phases:
        session.step()
    return session


class TestNativeLeaderElection:
    @pytest.mark.parametrize("backend", ["array", "fraction"])
    @pytest.mark.parametrize("model", ["lazy", "basic", "perceptive"])
    # Algorithm 2 is the route for even n without common sense.
    @pytest.mark.parametrize("n,seed", [(6, 1), (8, 2), (12, 5), (16, 9)])
    def test_native_matches_callback(
        self, numpy_axis, backend, model, n, seed
    ):
        native = _elect(n, model, seed, backend, "native")
        callback = _elect(n, model, seed, backend, "callback")
        columns = [
            [
                session.scheduler.population.get_column(key)
                for key in (KEY_LEADER, _KEY_SAW_NONZERO)
            ]
            for session in (native, callback)
        ]
        assert columns[0] == columns[1]
        assert all(type(cell) is bool for cell in columns[0][1])
        assert sum(columns[0][0]) == 1
        assert native.phase_rounds == callback.phase_rounds
        bits = id_bits(native.scheduler.population.id_bound)
        assert native.phase_rounds["leader_election"] == 2 * bits

    def test_lazy_run_makes_no_scalar_round(self, monkeypatch):
        calls = {"execute": 0}
        real = RingSimulator.execute

        def counting(self, directions):
            calls["execute"] += 1
            return real(self, directions)

        session = RingSession(n=1024, model="lazy", seed=3)
        session.start("coordination")
        while session.pending_phases:
            name = session.pending_phases[0].name
            if name == "leader_election":
                monkeypatch.setattr(RingSimulator, "execute", counting)
            session.step()
            monkeypatch.undo()
            if name == "leader_election":
                break
        assert session.phase_rounds["leader_election"] == 2 * id_bits(
            session.scheduler.population.id_bound
        )
        assert calls["execute"] == 0
