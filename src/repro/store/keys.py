"""Canonical run keys: the content address of a deterministic run.

A run's result is a pure function of its *backend-independent* spec:
protocol, ring size, model, seed, configuration generator, ID bound,
common sense of direction, and the phase plan the registry routes
that setting to.  Backend, driver, executor kind and worker count are
deliberately **excluded** from the key: results are property-tested
bit-identical across every combination of them, so excluding them is
what lets a report computed once on the array backend serve later
fraction, callback and pooled requests.  The document also carries
one constant field, left by a removed execution mode, so digests
stored while that mode existed still address their entries.

The key document is serialised as canonical JSON -- sorted keys,
compact separators, ASCII only -- and hashed with SHA-256.  The exact
serialisation (and a known-answer digest) is pinned by
``tests/test_store_keys.py`` so digests are stable across Python
versions, processes and machines; hash randomisation cannot touch it
because every dict is emitted sorted.

The phase plan is recovered without building a ring: the registry's
``plan`` callables only consult the scheduler's model and ring parity,
so a tiny duck-typed probe stands in for the real
:class:`~repro.core.scheduler.Scheduler`.  Protocols whose plan needs
more than the probe offers are simply uncacheable (:func:`safe_key`
returns ``None`` and the caller computes as before) -- the cache can
only ever decline, never corrupt.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.api.registry import DEFAULT_DRIVER, get_protocol
from repro.types import Model

if TYPE_CHECKING:  # circular only at type-check time
    from repro.api.fleet import SessionSpec

#: Schema version of the key document; bumping it invalidates every
#: stored digest at once.
KEY_SCHEMA = 1


def canonical_json(document: object) -> str:
    """The one true JSON serialisation digests are computed over.

    Sorted keys, compact separators, ASCII escapes: byte-identical for
    equal documents regardless of dict insertion order, Python version
    or hash seed.
    """
    return json.dumps(
        document, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )


class _ProbeState:
    """Just enough ring state for the registry's plan routing."""

    __slots__ = ("n", "parity_even")

    def __init__(self, n: int) -> None:
        self.n = n
        self.parity_even = n % 2 == 0


class _PlanProbe:
    """Duck-typed Scheduler stand-in: plan() only reads model/parity."""

    __slots__ = ("state", "model")

    def __init__(self, n: int, model: Model) -> None:
        self.state = _ProbeState(n)
        self.model = model


def phase_plan(spec: "SessionSpec") -> List[str]:
    """The phase names the registry would run for ``spec``'s setting.

    Included in the key so a routing change (a protocol gaining,
    losing or reordering phases) can never serve a stale report.
    Raises whatever the registry's plan raises -- unknown protocols,
    infeasible settings, or probe-incompatible custom plans; callers
    going through :func:`safe_key` treat any failure as "uncacheable".
    """
    proto = get_protocol(spec.protocol)
    probe = _PlanProbe(spec.n, Model(spec.model))
    # Phase *names* are driver-independent (the driver only selects
    # between two bit-exact implementations of each phase).
    phases = proto.plan(probe, spec.common_sense, DEFAULT_DRIVER)  # type: ignore[arg-type]
    return [phase.name for phase in phases]


def key_document(spec: "SessionSpec") -> Dict[str, object]:
    """The backend-independent key payload for ``spec``.

    Everything that determines the result is here; everything that is
    merely an equivalent way of computing it (backend, driver,
    executor, workers) is not.
    """
    document: Dict[str, object] = {
        "key_schema": KEY_SCHEMA,
        "protocol": spec.protocol,
        "n": spec.n,
        "model": spec.model,
        "seed": spec.seed,
        "config": spec.config,
        "common_sense": spec.common_sense,
        "id_bound": spec.id_bound,
        # Constant: keeps digests stored before the mode's removal.
        "unchecked": False,
        "phases": phase_plan(spec),
    }
    # The fault plan is part of what determines the outcome, so an
    # active plan joins the key; fault-free specs keep the exact
    # historical document (and digest bytes).  An unparseable or
    # out-of-range plan raises here, which safe_key maps to
    # "uncacheable" -- a spec that cannot run cannot be keyed either.
    if spec.faults is not None:
        from repro.faults.plan import FaultPlan

        plan = FaultPlan.from_json(spec.faults)
        plan.validate_for(spec.n)
        document["faults"] = plan.to_dict()
    return document


def run_key(spec: "SessionSpec") -> str:
    """SHA-256 hex digest of ``spec``'s canonical key document."""
    payload = canonical_json(key_document(spec))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def safe_key(spec: "SessionSpec") -> Optional[Tuple[str, Dict[str, object]]]:
    """``(digest, key_document)`` for ``spec``, or ``None`` if it
    cannot be keyed (unknown protocol, infeasible setting, a plan the
    probe cannot drive).  ``None`` means "compute as if there were no
    cache" -- the failure will surface, if at all, exactly where it
    always did.
    """
    try:
        document = key_document(spec)
    except Exception:  # noqa: BLE001 -- any failure means "uncacheable"
        return None
    payload = canonical_json(document)
    return hashlib.sha256(payload.encode("ascii")).hexdigest(), document
