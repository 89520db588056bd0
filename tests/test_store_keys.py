"""Run-key tests: canonical serialisation pinned byte-for-byte, digest
stability, and exactly which spec fields are (and are not) in the key."""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

from repro.api.fleet import SessionSpec
from repro.store.keys import (
    KEY_SCHEMA,
    canonical_json,
    key_document,
    run_key,
    safe_key,
)

SPEC = SessionSpec(n=7, protocol="location-discovery", model="basic", seed=3)

#: The canonical serialisation of ``SPEC``'s key document, pinned
#: byte-for-byte: any drift here silently invalidates (or worse,
#: cross-wires) every stored entry, so it must be a deliberate
#: KEY_SCHEMA bump, never an accident.
PINNED_CANONICAL = (
    '{"common_sense":false,"config":"random","id_bound":null,'
    '"key_schema":1,"model":"basic","n":7,'
    '"phases":["direction_agreement","leader_election",'
    '"nontrivial_move","discovery"],'
    '"protocol":"location-discovery","seed":3,"unchecked":false}'
)

#: SHA-256 of the pinned serialisation -- the known-answer digest.
PINNED_DIGEST = (
    "e1a45a517fc5c804bfd6f30ab67a6a8f8691b3a1c6e8d602ef48dd0289117cfa"
)


class TestCanonicalJson:
    def test_sorted_compact_ascii(self):
        doc = {"b": 1, "a": [1, 2], "c": {"z": None, "y": "é"}}
        text = canonical_json(doc)
        assert text == '{"a":[1,2],"b":1,"c":{"y":"\\u00e9","z":null}}'

    def test_insertion_order_invisible(self):
        one = canonical_json({"a": 1, "b": 2})
        other = canonical_json({"b": 2, "a": 1})
        assert one == other

    def test_round_trips_through_json(self):
        doc = key_document(SPEC)
        assert json.loads(canonical_json(doc)) == doc


class TestPinnedSerialisation:
    def test_exact_bytes(self):
        assert canonical_json(key_document(SPEC)) == PINNED_CANONICAL

    def test_known_answer_digest(self):
        assert run_key(SPEC) == PINNED_DIGEST
        assert run_key(SPEC) == hashlib.sha256(
            PINNED_CANONICAL.encode("ascii")
        ).hexdigest()

    def test_schema_field_present(self):
        assert key_document(SPEC)["key_schema"] == KEY_SCHEMA


class TestBackendIndependence:
    """Backend, driver, executor and workers are equivalent ways of
    computing the same result, so they must not key."""

    def test_backend_excluded(self):
        # The retired "lattice" name included: entries recorded under it
        # keep their key.
        for backend in ("lattice", "fraction", "array"):
            assert run_key(replace(SPEC, backend=backend)) == PINNED_DIGEST

    def test_driver_excluded(self):
        assert run_key(replace(SPEC, driver="callback")) == PINNED_DIGEST

    def test_document_never_mentions_them(self):
        doc = key_document(SPEC)
        assert "backend" not in doc
        assert "driver" not in doc


class TestResultDeterminingFieldsKey:
    @pytest.mark.parametrize("field,value", [
        ("n", 9),
        ("seed", 4),
        ("protocol", "coordination"),
        ("model", "perceptive"),
        ("config", "jittered"),
        ("id_bound", 4096),
        ("common_sense", True),
    ])
    def test_changing_field_changes_digest(self, field, value):
        assert run_key(replace(SPEC, **{field: value})) != PINNED_DIGEST

    def test_phase_plan_keys(self):
        # coordination and location-discovery plan different phases;
        # the phases list is itself part of the key, so a protocol
        # routing change can never serve a stale result.
        ld = key_document(SPEC)
        coord = key_document(replace(SPEC, protocol="coordination"))
        assert ld["phases"] != coord["phases"]

    def test_model_changes_plan_and_digest(self):
        # perceptive coordination reorders/changes phases vs. basic.
        basic = key_document(replace(SPEC, protocol="coordination"))
        perceptive = key_document(
            replace(SPEC, protocol="coordination", model="perceptive")
        )
        assert basic != perceptive


class TestSafeKey:
    def test_matches_run_key(self):
        digest, doc = safe_key(SPEC)
        assert digest == run_key(SPEC)
        assert doc == key_document(SPEC)

    def test_unknown_protocol_uncacheable(self):
        assert safe_key(replace(SPEC, protocol="frisbee")) is None

    def test_infeasible_setting_uncacheable(self):
        # Location discovery on an even basic ring is paper-proven
        # infeasible; the plan raises, so the spec cannot be keyed --
        # the failure surfaces at compute time, exactly as uncached.
        assert safe_key(replace(SPEC, n=8)) is None

    def test_bad_model_uncacheable(self):
        assert safe_key(replace(SPEC, model="psychic")) is None


class TestFaults:
    """The fault plan is result-determining, so it keys -- but only
    when present: fault-free documents keep their historical bytes."""

    PLAN = '{"seed":1,"crashes":{"2":1}}'

    def test_fault_free_document_has_no_faults_field(self):
        # The pinned bytes above already prove this; assert it directly
        # so the conditional-inclusion contract is named, not implied.
        assert "faults" not in key_document(SPEC)

    def test_faulted_spec_keys_differently_from_twin(self):
        faulted = replace(SPEC, faults=self.PLAN)
        assert run_key(faulted) != PINNED_DIGEST
        assert run_key(replace(faulted, faults=None)) == PINNED_DIGEST

    def test_document_carries_the_full_plan(self):
        doc = key_document(replace(SPEC, faults=self.PLAN))
        assert doc["faults"]["crashes"] == {"2": 1}
        assert doc["faults"]["seed"] == 1

    def test_equal_plans_key_equal_regardless_of_spelling(self):
        # SessionSpec normalises any parseable plan to canonical JSON,
        # so key-order / whitespace variants dedup to one digest.
        respelled = '{"crashes": {"2": 1}, "seed": 1}'
        assert run_key(replace(SPEC, faults=self.PLAN)) == run_key(
            replace(SPEC, faults=respelled)
        )

    def test_different_plans_key_differently(self):
        one = run_key(replace(SPEC, faults=self.PLAN))
        other = run_key(
            replace(SPEC, faults='{"seed":1,"crashes":{"2":2}}')
        )
        assert one != other

    def test_malformed_plan_uncacheable(self):
        # Unparseable JSON is kept verbatim on the spec (it must stay
        # constructible so the failure surfaces at run time), but such
        # a spec cannot be keyed.
        assert safe_key(replace(SPEC, faults="{not json")) is None

    def test_out_of_range_plan_uncacheable(self):
        # Slot 9 does not exist on a 7-ring: validate_for raises in
        # key_document, so safe_key declines rather than keying a spec
        # that cannot run.
        assert safe_key(
            replace(SPEC, faults='{"seed":1,"crashes":{"9":0}}')
        ) is None

    def test_backend_still_excluded_for_faulted_specs(self):
        faulted = replace(SPEC, faults=self.PLAN)
        digests = {
            run_key(replace(faulted, backend=backend))
            for backend in ("lattice", "fraction", "array")
        }
        assert len(digests) == 1
