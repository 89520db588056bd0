"""Fleet tests: determinism across executors and worker counts, report
schema, and the sweep spec builder."""

from __future__ import annotations

import json

import pytest

from repro.api.fleet import (
    Fleet,
    RunReport,
    SessionSpec,
    run_session_spec,
    sweep,
)
from repro.exceptions import ConfigurationError
from repro.types import Model

SPECS = sweep(
    protocol="location-discovery",
    sizes=(7, 8),
    seeds=(0, 1),
    models=("perceptive",),
)


class TestSessionSpec:
    def test_round_trip(self):
        spec = SessionSpec(n=8, seed=3, model="lazy", backend="fraction")
        assert SessionSpec.from_dict(spec.to_dict()) == spec
        json.dumps(spec.to_dict())

    def test_run_session_spec_row_shape(self):
        row = run_session_spec(SessionSpec(n=7, model="basic", seed=0))
        assert set(row) == {"spec", "result", "seconds"}
        assert row["spec"]["n"] == 7
        assert row["result"]["kind"] == "location_discovery"
        json.dumps(row)


class TestSweepBuilder:
    def test_cartesian_product(self):
        specs = sweep(
            sizes=(8, 16), seeds=(0, 1, 2),
            models=(Model.LAZY, "perceptive"), backends=("array",),
        )
        assert len(specs) == 2 * 3 * 2
        # sizes-major ordering keeps reports diffable
        assert [s.n for s in specs[:6]] == [8] * 6
        assert {s.model for s in specs} == {"lazy", "perceptive"}

    def test_default_backend_is_array(self):
        (spec,) = sweep(sizes=(8,))
        assert spec.backend == SessionSpec(n=8).backend == "array"

    def test_model_enum_coerced_to_value(self):
        (spec,) = sweep(sizes=(8,), models=(Model.PERCEPTIVE,))
        assert spec.model == "perceptive"


class TestFleetDeterminism:
    def test_identical_across_executors_and_workers(self):
        serial = Fleet(SPECS, executor="serial").run()
        three = Fleet(SPECS, workers=3, executor="process").run()
        two = Fleet(SPECS, workers=2, executor="process").run()
        assert serial.payloads() == three.payloads() == two.payloads()
        # order always follows the spec list
        assert [row["spec"] for row in serial.results] == [
            s.to_dict() for s in SPECS
        ]

    def test_single_worker_pool_equals_serial(self):
        specs = SPECS[:2]
        serial = Fleet(specs, executor="serial").run()
        one = Fleet(specs, workers=1, executor="process").run()
        assert serial.payloads() == one.payloads()


class TestRunReport:
    def test_schema(self):
        report = Fleet(SPECS[:2], executor="serial").run()
        payload = report.to_dict()
        base = {
            "schema", "executor", "workers", "seconds_total", "cpu_count",
            "python", "results",
        }
        # "cache" appears exactly when the fleet ran with caching on
        # (e.g. the REPRO_CACHE CI axis); nothing else may.
        assert base <= set(payload) <= base | {"cache"}
        assert ("cache" in payload) == (report.cache is not None)
        assert payload["schema"] == 1
        assert payload["executor"] == "serial"
        assert payload["workers"] == 1
        assert len(payload["results"]) == 2
        reread = json.loads(report.to_json())
        assert reread == payload

    def test_uncached_payload_shape_unchanged(self):
        # cache=False pins the historic key set even under REPRO_CACHE.
        report = Fleet(SPECS[:2], executor="serial", cache=False).run()
        assert set(report.to_dict()) == {
            "schema", "executor", "workers", "seconds_total", "cpu_count",
            "python", "results",
        }

    def test_canonical_json_round_trips_byte_identical(self):
        # The run store keys and stores these payloads by their
        # canonical serialisation; a payload that did not survive a
        # JSON round trip byte-for-byte could never be fetched
        # bit-identically.
        from repro.store.keys import canonical_json

        report = Fleet(SPECS[:2], executor="serial", cache=False).run()
        text = canonical_json({"results": report.payloads()})
        assert canonical_json(json.loads(text)) == text
        rerun = Fleet(SPECS[:2], executor="serial", cache=False).run()
        assert canonical_json({"results": rerun.payloads()}) == text

    def test_payloads_strip_timings(self):
        report = RunReport(results=[
            {"spec": {"n": 7}, "result": {"rounds": 3}, "seconds": 0.5},
        ])
        assert report.payloads() == [
            {"spec": {"n": 7}, "result": {"rounds": 3}},
        ]


class TestFleetValidation:
    @pytest.mark.parametrize("executor", ["quantum", "thread"])
    def test_unknown_executor(self, executor):
        with pytest.raises(ConfigurationError):
            Fleet(SPECS, executor=executor)

    def test_bad_worker_count(self):
        with pytest.raises(ConfigurationError):
            Fleet(SPECS, workers=0)
