"""Warm-pool fleet execution: bit-identical reports across executors
and worker counts, pool persistence across runs, and the slot-overflow
fallback.

The zero-copy executor must be invisible in the results: the same
``{"spec", "result", "seconds"}`` rows (timings aside) whether specs
run serially in-process, through threads, or through the persistent
shared-memory worker pools -- at any worker count, for every model and
backend combination of the sweep.
"""

from __future__ import annotations

import pytest

from repro.api.fleet import Fleet, sweep
from repro.exceptions import ConfigurationError
from repro.parallel.pool import (
    WorkerPool,
    get_pool,
    run_specs_pooled,
    shutdown_pools,
)
from repro.ring.backends import BACKEND_NAMES

#: Models x backends sweep: every combination the bit-exactness story
#: claims, at sizes small enough for pooled tests.
SPECS = sweep(
    protocol="location-discovery",
    sizes=(7, 8),
    seeds=(0,),
    models=("perceptive", "lazy"),
    backends=BACKEND_NAMES,
)

SERIAL = Fleet(SPECS, executor="serial").run()


class TestPooledDeterminism:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_bit_identical_to_serial(self, workers):
        fleet = Fleet(SPECS, workers=workers, executor="process")
        assert fleet.run().payloads() == SERIAL.payloads()

    def test_thread_executor_still_matches(self):
        threads = Fleet(SPECS, workers=2, executor="thread").run()
        assert threads.payloads() == SERIAL.payloads()

    def test_rows_follow_spec_order(self):
        report = Fleet(SPECS, workers=2, executor="process").run()
        assert [row["spec"] for row in report.results] == [
            spec.to_dict() for spec in SPECS
        ]

    def test_faulted_rows_match_serial_executor(self):
        # The faults block (outcome/error/plan) must survive the shm
        # wire format: a pooled faulted sweep produces the exact rows
        # the serial executor does, not bare null results.
        specs = sweep(
            protocol="location-discovery",
            sizes=(8,),
            seeds=(0, 1),
            faults='{"seed":1,"crashes":{"2":1}}',
        )
        serial = Fleet(specs, executor="serial").run()
        pooled = Fleet(specs, workers=2, executor="process").run()
        assert pooled.payloads() == serial.payloads()
        for row in pooled.results:
            assert row["faults"]["outcome"] == "detected"
            assert row["faults"]["error"] == "ProtocolError"


class TestPoolPersistence:
    def test_registry_returns_same_pool(self):
        assert get_pool(2) is get_pool(2)
        assert get_pool(2) is not get_pool(3)

    def test_pool_survives_across_runs(self):
        pool = get_pool(2)
        pool.warm()
        executor = pool.executor
        Fleet(SPECS[:2], workers=2, executor="process").run()
        Fleet(SPECS[:2], workers=2, executor="process").run()
        # same warm executor object served both runs
        assert pool.executor is executor

    def test_warm_is_idempotent(self):
        pool = get_pool(2)
        pool.warm()
        executor = pool.executor
        pool.warm()
        assert pool.executor is executor

    def test_fleet_warm_spins_up_the_registry_pool(self):
        shutdown_pools()
        Fleet(SPECS[:1], workers=2, executor="process").warm()
        assert get_pool(2).alive

    def test_shutdown_then_reuse(self):
        pool = get_pool(2)
        pool.warm()
        pool.shutdown()
        assert pool.alive is False
        # next use lazily rebuilds the executor
        rows = run_specs_pooled(SPECS[:1], workers=2, pool=pool)
        assert rows[0]["result"] == SERIAL.payloads()[0]["result"]

    def test_warm_on_serial_fleet_is_a_no_op(self):
        Fleet(SPECS[:1], executor="serial").warm()


class TestSlotOverflow:
    def test_tiny_slots_fall_back_to_pickle_channel(self):
        # 8-byte slots cannot hold any result row; every row must ride
        # the fallback channel and still match serial bit for bit.
        rows = run_specs_pooled(SPECS, workers=2, slot_bytes=8)
        stripped = [
            {"spec": row["spec"], "result": row["result"]} for row in rows
        ]
        assert stripped == SERIAL.payloads()


class TestValidation:
    def test_worker_pool_rejects_zero_workers(self):
        with pytest.raises(ConfigurationError):
            WorkerPool(0)
