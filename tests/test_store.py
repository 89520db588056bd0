"""RunStore tests: the two tiers, atomic writes, and the rule that
every read anomaly is a miss -- corrupt, truncated, version-skewed or
misfiled entries degrade to recompute, never to an error."""

from __future__ import annotations

import json
import multiprocessing
import os

from repro.store.store import STORE_SCHEMA, RunStore, default_cache_dir

DIGEST = "ab" + "cd" * 31  # 64 hex chars, deterministic shard prefix
RESULT = {"kind": "coordination", "rounds": 5, "leader_id": 1,
          "rounds_by_phase": {"leader_election": 5}}


def make_store(tmp_path, **kwargs) -> RunStore:
    return RunStore(tmp_path / "cache", **kwargs)


def put_one(store: RunStore, digest: str = DIGEST, result=None) -> bool:
    return store.put(
        digest,
        dict(RESULT) if result is None else result,
        key={"n": 7},
        spec={"n": 7, "protocol": "coordination"},
        backend="array",
    )


class TestDefaultDir:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert default_cache_dir() == tmp_path / "env"

    def test_home_fallback(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert default_cache_dir().name == "repro"


class TestTwoTiers:
    def test_put_then_get_roundtrips(self, tmp_path):
        store = make_store(tmp_path)
        assert put_one(store) is True
        envelope = store.get(DIGEST)
        assert envelope["result"] == RESULT
        assert envelope["digest"] == DIGEST
        assert envelope["store_schema"] == STORE_SCHEMA
        assert envelope["backend"] == "array"

    def test_disk_survives_new_store_instance(self, tmp_path):
        put_one(make_store(tmp_path))
        fresh = make_store(tmp_path)
        assert fresh.get(DIGEST)["result"] == RESULT
        # served from disk: promoted into the fresh memory tier
        assert len(fresh._memory) == 1

    def test_entry_layout_sharded_by_prefix(self, tmp_path):
        store = make_store(tmp_path)
        put_one(store)
        path = store.entry_path(DIGEST)
        assert path.is_file()
        assert path.parent.name == DIGEST[:2]
        assert path.parent.parent.name == f"v{STORE_SCHEMA}"

    def test_returned_envelope_is_a_private_copy(self, tmp_path):
        store = make_store(tmp_path)
        put_one(store)
        first = store.get(DIGEST)
        first["result"]["rounds"] = 999
        assert store.get(DIGEST)["result"]["rounds"] == RESULT["rounds"]

    def test_memory_lru_evicts_oldest(self, tmp_path):
        store = make_store(tmp_path, memory_slots=2)
        digests = [f"{i:02d}" + "ef" * 31 for i in range(3)]
        for digest in digests:
            put_one(store, digest=digest)
        assert digests[0] not in store._memory
        assert digests[1] in store._memory and digests[2] in store._memory
        # evicted entries still hit from disk
        assert store.get(digests[0])["result"] == RESULT

    def test_zero_memory_slots_disk_only(self, tmp_path):
        store = make_store(tmp_path, memory_slots=0)
        put_one(store)
        assert store._memory == {}
        assert store.get(DIGEST)["result"] == RESULT


class TestReadAnomaliesAreMisses:
    def test_absent_entry(self, tmp_path):
        assert make_store(tmp_path).get(DIGEST) is None

    def test_corrupt_json(self, tmp_path):
        store = make_store(tmp_path)
        put_one(store)
        store.entry_path(DIGEST).write_text("{not json")
        fresh = make_store(tmp_path)
        assert fresh.get(DIGEST) is None
        assert fresh.misses == 1

    def test_truncated_write(self, tmp_path):
        store = make_store(tmp_path)
        put_one(store)
        full = store.entry_path(DIGEST).read_text()
        store.entry_path(DIGEST).write_text(full[: len(full) // 2])
        assert make_store(tmp_path).get(DIGEST) is None

    def test_version_mismatch(self, tmp_path):
        store = make_store(tmp_path)
        put_one(store)
        envelope = json.loads(store.entry_path(DIGEST).read_text())
        envelope["store_schema"] = STORE_SCHEMA + 1
        store.entry_path(DIGEST).write_text(json.dumps(envelope))
        assert make_store(tmp_path).get(DIGEST) is None

    def test_misfiled_digest(self, tmp_path):
        store = make_store(tmp_path)
        put_one(store)
        other = "ab" + "00" * 31
        target = store.entry_path(other)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(store.entry_path(DIGEST).read_text())
        assert make_store(tmp_path).get(other) is None

    def test_missing_result_field(self, tmp_path):
        store = make_store(tmp_path)
        put_one(store)
        envelope = json.loads(store.entry_path(DIGEST).read_text())
        del envelope["result"]
        store.entry_path(DIGEST).write_text(json.dumps(envelope))
        assert make_store(tmp_path).get(DIGEST) is None

    def test_non_dict_payload(self, tmp_path):
        store = make_store(tmp_path)
        put_one(store)
        store.entry_path(DIGEST).write_text('["not", "a", "dict"]')
        assert make_store(tmp_path).get(DIGEST) is None


class TestWriteFailuresDegrade:
    def test_unwritable_disk_keeps_memory_tier(self, tmp_path, monkeypatch):
        store = make_store(tmp_path)

        def refuse(*args, **kwargs):
            raise OSError(30, "Read-only file system")

        monkeypatch.setattr(os, "replace", refuse)
        assert put_one(store) is False
        assert store.store_failures == 1
        # memory tier still serves it in this process...
        assert store.get(DIGEST)["result"] == RESULT
        # ...and nothing (entry or temp litter) landed on disk
        assert not store.entries_dir.is_dir() or not any(
            store.entries_dir.rglob("*.json")
        )
        assert not any(store.cache_dir.rglob("*.tmp"))

    def test_unmakeable_directory(self, tmp_path, monkeypatch):
        store = make_store(tmp_path)
        monkeypatch.setattr(
            "pathlib.Path.mkdir",
            lambda *a, **k: (_ for _ in ()).throw(OSError(13, "denied")),
        )
        assert put_one(store) is False
        assert store.get(DIGEST)["result"] == RESULT  # memory tier


def _race_writer(args):
    cache_dir, digest, worker = args
    store = RunStore(cache_dir, memory_slots=0)
    ok = store.put(
        digest,
        dict(RESULT),
        key={"n": 7},
        spec={"n": 7, "worker": worker},
        backend="array",
    )
    return ok


class TestConcurrentWriters:
    def test_racing_same_key_lands_one_complete_envelope(self, tmp_path):
        cache_dir = tmp_path / "cache"
        with multiprocessing.get_context("spawn").Pool(4) as pool:
            results = pool.map(
                _race_writer,
                [(str(cache_dir), DIGEST, i) for i in range(8)],
            )
        assert all(results)
        store = RunStore(cache_dir)
        envelope = store.get(DIGEST)
        assert envelope["result"] == RESULT  # complete, never interleaved
        # exactly one entry file, no temp litter left behind
        assert len(list(store.entries_dir.rglob("*.json"))) == 1
        assert not list(store.cache_dir.rglob("*.tmp"))


class TestMaintenance:
    def test_stats_and_clear(self, tmp_path):
        store = make_store(tmp_path)
        put_one(store)
        put_one(store, digest="ff" + "aa" * 31)
        stats = store.stats()
        assert stats["entries"] == 2
        assert stats["bytes"] > 0
        assert stats["memory_entries"] == 2
        assert store.clear() == 2
        assert store.stats()["entries"] == 0
        assert store.get(DIGEST) is None  # both tiers emptied

    def test_iter_digests_sorted(self, tmp_path):
        store = make_store(tmp_path)
        digests = ["ff" + "aa" * 31, "00" + "bb" * 31, DIGEST]
        for digest in digests:
            put_one(store, digest=digest)
        assert list(store.iter_digests()) == sorted(digests)

    def test_event_totals_cross_process(self, tmp_path):
        store = make_store(tmp_path)
        put_one(store)
        store.get(DIGEST)
        store.get("00" * 32)
        store.flush_events()
        assert (store.hits, store.misses, store.stores) == (0, 0, 0)
        # a "second process" reads the flushed line plus its own counts
        fresh = make_store(tmp_path)
        fresh.get(DIGEST)
        totals = fresh.event_totals()
        assert totals["hits"] == 2
        assert totals["misses"] == 1
        assert totals["stores"] == 1

    def test_flush_idempotent_when_idle(self, tmp_path):
        store = make_store(tmp_path)
        store.flush_events()
        assert not store.events_path.exists()

    def test_malformed_event_lines_skipped(self, tmp_path):
        store = make_store(tmp_path)
        store.cache_dir.mkdir(parents=True, exist_ok=True)
        store.events_path.write_text(
            'nonsense\n{"hits": 3, "misses": "NaN"}\n[1,2]\n'
        )
        assert store.event_totals()["hits"] == 3
        assert store.event_totals()["misses"] == 0
