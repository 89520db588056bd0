"""Compute-or-fetch tests: fetches are bit-identical to computing,
across protocols, models, backends, drivers and executors; fleets
partition and dedup; sessions opt in explicitly; everything uncacheable
or broken degrades to plain recompute."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.api.fleet import Fleet, SessionSpec, run_session_spec, sweep
from repro.api.session import RingSession
from repro.store.keys import run_key
from repro.store.service import (
    cache_enabled_default,
    compute_or_fetch,
    get_store,
    resolve_cache,
    verify_entry,
)
from repro.store.store import RunStore

SPEC = SessionSpec(n=7, protocol="location-discovery", model="basic", seed=3)


@pytest.fixture
def store(tmp_path) -> RunStore:
    return RunStore(tmp_path / "cache")


class TestEnvSwitch:
    def test_default_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert cache_enabled_default() is False
        assert resolve_cache(None) is False

    @pytest.mark.parametrize("value", ["1", "true", "YES", " on "])
    def test_truthy_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_CACHE", value)
        assert cache_enabled_default() is True
        assert resolve_cache(None) is True

    @pytest.mark.parametrize("value", ["0", "false", "off", ""])
    def test_falsy_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_CACHE", value)
        assert cache_enabled_default() is False

    def test_explicit_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "1")
        assert resolve_cache(False) is False
        monkeypatch.delenv("REPRO_CACHE")
        assert resolve_cache(True) is True

    def test_get_store_one_per_directory(self, tmp_path):
        one = get_store(tmp_path / "a")
        again = get_store(tmp_path / "a")
        other = get_store(tmp_path / "b")
        assert one is again
        assert one is not other


class TestComputeOrFetch:
    def test_miss_then_hit_bit_identical(self, store):
        computed, fetched_flag, digest = compute_or_fetch(SPEC, store=store)
        assert fetched_flag is False
        assert digest == run_key(SPEC)
        fetched, fetched_flag, digest2 = compute_or_fetch(SPEC, store=store)
        assert fetched_flag is True
        assert digest2 == digest
        assert fetched == computed
        assert json.dumps(fetched, sort_keys=True) == json.dumps(
            computed, sort_keys=True
        )

    @pytest.mark.parametrize("variant", [
        dict(backend="fraction"),
        dict(backend="array"),
        dict(driver="callback"),
        dict(backend="fraction", driver="callback"),
    ])
    def test_backend_driver_variants_share_entries(self, store, variant):
        compute_or_fetch(SPEC, store=store)  # populate from array/native
        result, was_fetched, _ = compute_or_fetch(
            replace(SPEC, **variant), store=store
        )
        assert was_fetched is True
        assert result == run_session_spec(SPEC)["result"]

    @pytest.mark.parametrize("spec", [
        SessionSpec(n=7, protocol="coordination", model="basic", seed=1),
        SessionSpec(n=8, protocol="coordination", model="perceptive",
                    seed=2),
        SessionSpec(n=9, protocol="location-discovery", model="lazy",
                    seed=0),
        SessionSpec(n=7, protocol="location-discovery", model="basic",
                    seed=5),
    ])
    def test_across_protocols_and_models(self, store, spec):
        computed, _, _ = compute_or_fetch(spec, store=store)
        fetched, was_fetched, _ = compute_or_fetch(spec, store=store)
        assert was_fetched is True
        assert fetched == computed
        assert fetched == run_session_spec(spec)["result"]

    def test_uncacheable_spec_computes(self, store):
        bogus = replace(SPEC, protocol="frisbee")
        with pytest.raises(Exception):
            compute_or_fetch(bogus, store=store)
        # infeasible-but-plannable is different: safe_key fails, so
        # compute_or_fetch surfaces the same error an uncached run
        # would (here at compute time).  A *keyable* spec that cannot
        # run never happens by construction; the digest=None path is
        # covered through the session below.

    def test_corrupt_entry_recomputes(self, store):
        _, _, digest = compute_or_fetch(SPEC, store=store)
        store.entry_path(digest).write_text("{broken")
        fresh = RunStore(store.cache_dir)  # cold memory tier
        result, was_fetched, _ = compute_or_fetch(SPEC, store=fresh)
        assert was_fetched is False
        assert result == run_session_spec(SPEC)["result"]
        # the recompute heals the entry
        _, was_fetched, _ = compute_or_fetch(SPEC, store=fresh)
        assert was_fetched is True


class TestVerifyEntry:
    """``verify_entry`` recomputes a stored entry and always answers with
    a row: a spec that cannot run is a not-ok row, never a traceback."""

    @staticmethod
    def edit_spec(store, digest, **fields):
        path = store.entry_path(digest)
        envelope = json.loads(path.read_text())
        envelope["spec"].update(fields)
        path.write_text(json.dumps(envelope))

    @pytest.mark.parametrize("backend", ["lattice", "decimal"])
    def test_retired_backend_recomputes_on_default(self, store, backend):
        # Entries written while "lattice" was a backend choice record
        # it; run keys exclude the backend, so the default's recompute
        # must match the stored result.
        _, _, digest = compute_or_fetch(SPEC, store=store)
        self.edit_spec(store, digest, backend=backend)
        row = verify_entry(store, digest)
        assert row["ok"] is True, row

    def test_retired_unchecked_entry_is_a_not_ok_row(self, store):
        # An entry written with the unchecked mode on cannot be
        # recomputed now; the row says so and names the reason.
        _, _, digest = compute_or_fetch(SPEC, store=store)
        self.edit_spec(store, digest, unchecked=True)
        row = verify_entry(store, digest)
        assert row["ok"] is False
        assert row["detail"] == (
            "envelope spec refused: the unchecked mode has been removed"
        )

    def test_stored_unchecked_false_still_verifies(self, store):
        # Entries written before the mode was removed record
        # "unchecked": false; their digests and results stay valid.
        _, _, digest = compute_or_fetch(SPEC, store=store)
        self.edit_spec(store, digest, unchecked=False)
        row = verify_entry(store, digest)
        assert row["ok"] is True, row

    @pytest.mark.parametrize("fields,error", [
        (dict(n=3), "ConfigurationError"),
        (dict(protocol="frisbee"), "ProtocolError"),
        (dict(n=8), "InfeasibleProblemError"),
        (dict(model="psychic"), "ValueError"),
    ], ids=["too-small", "unknown-protocol", "infeasible", "bad-model"])
    def test_unrunnable_spec_is_a_not_ok_row(self, store, fields, error):
        _, _, digest = compute_or_fetch(SPEC, store=store)
        self.edit_spec(store, digest, **fields)
        row = verify_entry(store, digest)
        assert row["ok"] is False
        assert row["detail"].startswith(f"recompute failed: {error}: ")


class TestFleetPartition:
    def test_preflight_partition_and_dedup(self, tmp_path):
        cache_dir = tmp_path / "cache"
        specs = sweep(
            sizes=(7,), seeds=(0, 1), models=("basic",),
            backends=("array", "fraction"),
        )
        first = Fleet(
            specs, executor="serial", cache=True, cache_dir=str(cache_dir),
        ).run()
        # 4 rows, 2 distinct keys: each computed once, twins fanned out
        assert first.cache["misses"] == 2
        assert first.cache["deduped"] == 2
        assert first.cache["hits"] == 0
        assert len(first.results) == 4
        second = Fleet(
            specs, executor="serial", cache=True, cache_dir=str(cache_dir),
        ).run()
        assert second.cache["misses"] == 0
        assert second.cache["hits"] + second.cache["deduped"] == 4
        assert second.payloads() == first.payloads()

    def test_cached_equals_uncached_payloads(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        specs = sweep(sizes=(7, 9), seeds=(0, 1), models=("basic",))
        plain = Fleet(specs, executor="serial").run()
        cached = Fleet(
            specs, executor="serial", cache=True,
            cache_dir=str(tmp_path / "cache"),
        ).run()
        recached = Fleet(
            specs, executor="process", workers=2, cache=True,
            cache_dir=str(tmp_path / "cache"),
        ).run()
        assert cached.payloads() == plain.payloads()
        assert recached.payloads() == plain.payloads()
        assert plain.cache is None
        assert "cache" not in plain.to_dict()

    def test_process_executor_receives_only_misses(self, tmp_path):
        cache_dir = tmp_path / "cache"
        specs = sweep(sizes=(7,), seeds=(0, 1, 2), models=("basic",))
        Fleet(
            specs[:2], executor="serial", cache=True,
            cache_dir=str(cache_dir),
        ).run()
        report = Fleet(
            specs, executor="process", workers=2, cache=True,
            cache_dir=str(cache_dir),
        ).run()
        assert report.cache == {
            "enabled": True, "hits": 2, "misses": 1, "deduped": 0,
            "uncacheable": 0, "cache_dir": str(cache_dir),
        }
        serial = Fleet(specs, executor="serial").run()
        assert report.payloads() == serial.payloads()

    def test_row_order_follows_spec_list(self, tmp_path):
        specs = sweep(
            sizes=(7,), seeds=(1, 0), models=("basic",),
            backends=("array", "fraction"),
        )
        report = Fleet(
            specs, executor="serial", cache=True,
            cache_dir=str(tmp_path / "cache"),
        ).run()
        assert [row["spec"] for row in report.results] == [
            spec.to_dict() for spec in specs
        ]

    def test_env_switch_enables_fleet_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        specs = sweep(sizes=(7,), seeds=(0,), models=("basic",))
        report = Fleet(specs, executor="serial").run()
        assert report.cache is not None
        assert report.cache["misses"] == 1
        again = Fleet(specs, executor="serial").run()
        assert again.cache["hits"] == 1
        assert again.payloads() == report.payloads()


class TestSessionCache:
    def test_opt_in_only(self, tmp_path, monkeypatch):
        # Ambient REPRO_CACHE must NOT flip sessions to fetching:
        # callers inspect scheduler state after run(), which a fetch
        # leaves untouched.  Sessions cache by explicit cache=True.
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        session = RingSession(n=7, model="basic", seed=3)
        session.run("location-discovery")
        assert session.rounds > 0  # really computed

    def test_miss_then_hit(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        first = RingSession(
            n=7, model="basic", seed=3, cache=True, cache_dir=cache_dir,
        )
        computed = first.run("location-discovery")
        assert first.rounds > 0
        second = RingSession(
            n=7, model="basic", seed=3, backend="fraction", cache=True,
            cache_dir=cache_dir,
        )
        fetched = second.run("location-discovery")
        assert second.rounds == 0  # served without simulating
        assert fetched.to_dict() == computed.to_dict()
        assert second.phase_rounds == first.phase_rounds
        assert list(second.phase_rounds) == list(first.phase_rounds)
        assert set(second.phase_drivers.values()) == {"cached"}

    def test_wrapped_state_never_caches(self, tmp_path, small_ring):
        session = RingSession.from_state(small_ring, model="basic")
        session.cache = True
        session.cache_dir = str(tmp_path / "cache")
        session.run("location-discovery")
        assert session.rounds > 0
        assert session._cache_args is None

    def test_consumed_session_never_fetches(self, tmp_path):
        from repro.types import LocalDirection

        cache_dir = str(tmp_path / "cache")
        RingSession(
            n=7, model="basic", seed=3, cache=True, cache_dir=cache_dir,
        ).run("location-discovery")
        moved = RingSession(
            n=7, model="basic", seed=3, cache=True, cache_dir=cache_dir,
        )
        moved.run_fixed(LocalDirection.RIGHT)  # rounds > 0 now
        moved.run("location-discovery")
        assert moved.rounds > 1  # computed, not fetched
