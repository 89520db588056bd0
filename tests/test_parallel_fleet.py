"""Warm-pool fleet execution: bit-identical reports across executors
and worker counts, pool persistence across runs, and rows of any size.

The process executor must be invisible in the results: the same
``{"spec", "result", "seconds"}`` rows (timings aside) whether specs
run serially in-process or through the persistent worker pools -- at
any worker count, for every model and backend combination of the
sweep, for faulted specs and for rows of any size.
"""

from __future__ import annotations

import json

import pytest

from repro.api.fleet import Fleet, sweep
from repro.exceptions import ConfigurationError
from repro.parallel.pool import WorkerPool, get_pool, shutdown_pools
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

    def test_rerun_on_warm_pool_matches_serial(self):
        fleet = Fleet(SPECS, workers=2, executor="process")
        assert fleet.run().payloads() == SERIAL.payloads()
        assert fleet.run().payloads() == SERIAL.payloads()

    def test_rows_follow_spec_order(self):
        report = Fleet(SPECS, workers=2, executor="process").run()
        assert [row["spec"] for row in report.results] == [
            spec.to_dict() for spec in SPECS
        ]

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_faulted_rows_match_serial_executor(self, workers):
        # The faults block (outcome/error/plan) must reach the parent:
        # a pooled faulted sweep produces the exact rows the serial
        # executor does, not bare null results.
        specs = sweep(
            protocol="location-discovery",
            sizes=(8,),
            seeds=(0, 1),
            faults='{"seed":1,"crashes":{"2":1}}',
        )
        serial = Fleet(specs, executor="serial").run()
        pooled = Fleet(specs, workers=workers, executor="process").run()
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

    def test_executor_is_built_lazily(self):
        pool = WorkerPool(1)
        assert pool.alive is False
        try:
            assert pool.executor is pool.executor
            assert pool.alive
        finally:
            pool.shutdown()
        assert pool.alive is False

    def test_shutdown_pools_empties_the_registry(self):
        pool = get_pool(2)
        pool.warm()
        shutdown_pools()
        assert pool.alive is False
        fresh = get_pool(2)
        assert fresh is not pool
        assert fresh.alive is False

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
        report = Fleet(SPECS[:1], workers=2, executor="process").run()
        assert report.payloads() == SERIAL.payloads()[:1]
        assert pool.alive

    def test_warm_on_serial_fleet_is_a_no_op(self):
        Fleet(SPECS[:1], executor="serial").warm()


class TestLargeRows:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_row_over_64_kib_matches_serial(self, workers):
        # Lazy location discovery at n=80 records every agent's full
        # gap vector: one row of about 94 KB, far past a pipe buffer.
        specs = sweep(sizes=(80,), models=("lazy",))
        serial = Fleet(specs, executor="serial").run()
        (row,) = serial.payloads()
        assert len(json.dumps(row)) > 1 << 16
        pooled = Fleet(specs, workers=workers, executor="process").run()
        assert pooled.payloads() == serial.payloads()


class TestValidation:
    def test_worker_pool_rejects_zero_workers(self):
        with pytest.raises(ConfigurationError):
            WorkerPool(0)
