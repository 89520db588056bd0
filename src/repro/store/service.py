"""The compute-or-fetch service layer over the run store.

This module owns the policy half of the cache: when caching is on
(explicit flag, or the ``REPRO_CACHE`` environment switch), which
store serves a directory (one :class:`~repro.store.store.RunStore`
per resolved path, process-wide), and the one-call primitive
:func:`compute_or_fetch` that the session, fleet and CLI wiring all
reduce to.

The contract everywhere: a fetch returns a result **bit-identical** to
what computing would have produced (property-tested across protocols,
models, backends, drivers and executors), and any cache problem --
unkeyable spec, corrupt entry, unwritable directory -- silently falls
back to computing.  Enabling the cache can change how fast an answer
arrives, never which answer.
"""

from __future__ import annotations

import os
from dataclasses import replace
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.api.fleet import SessionSpec, run_session_spec
from repro.exceptions import ConfigurationError, ReproError
from repro.ring.backends import BACKEND_NAMES, DEFAULT_BACKEND
from repro.store.keys import safe_key
from repro.store.store import RunStore, default_cache_dir

_TRUTHY = frozenset({"1", "true", "yes", "on"})

#: Process-wide store registry, one per resolved cache directory.
_STORES: Dict[str, RunStore] = {}


def cache_enabled_default() -> bool:
    """Whether the ``REPRO_CACHE`` environment switch turns caching on
    for surfaces that default to "ambient" (Fleet and the CLI)."""
    return os.environ.get("REPRO_CACHE", "").strip().lower() in _TRUTHY


def resolve_cache(flag: Optional[bool]) -> bool:
    """An explicit flag wins; ``None`` defers to ``REPRO_CACHE``."""
    if flag is None:
        return cache_enabled_default()
    return bool(flag)


def get_store(cache_dir: Optional[object] = None) -> RunStore:
    """The process-wide store for ``cache_dir`` (default directory when
    ``None``), created on first use."""
    path = Path(str(cache_dir)) if cache_dir is not None else (
        default_cache_dir()
    )
    key = str(path)
    store = _STORES.get(key)
    if store is None:
        store = RunStore(path)
        _STORES[key] = store
    return store


def reset_stores() -> None:
    """Flush and forget every registered store (test isolation)."""
    for store in _STORES.values():
        store.flush_events()
    _STORES.clear()


def compute_or_fetch(
    spec: SessionSpec,
    *,
    store: Optional[RunStore] = None,
    cache_dir: Optional[object] = None,
) -> Tuple[Dict[str, object], bool, Optional[str]]:
    """``(result, fetched, digest)`` for ``spec``.

    Fetches the stored result when the spec keys to an existing entry;
    otherwise computes through :func:`~repro.api.fleet.run_session_spec`
    and files the result.  ``fetched`` says which happened; ``digest``
    is ``None`` for uncacheable specs (which always compute).
    """
    if store is None:
        store = get_store(cache_dir)
    keyed = safe_key(spec)
    if keyed is not None:
        digest, key_doc = keyed
        entry = store.get(digest)
        if entry is not None:
            return entry["result"], True, digest  # type: ignore[return-value]
    row = run_session_spec(spec)
    result: Dict[str, object] = row["result"]  # type: ignore[assignment]
    if keyed is not None:
        store.put(
            digest, result, key=key_doc, spec=spec.to_dict(),
            backend=spec.backend,
        )
        return result, False, digest
    return result, False, None


def verify_entry(store: RunStore, digest: str) -> Dict[str, object]:
    """Recompute one stored entry and compare bit-for-bit.

    Reruns the envelope's recorded producing spec through the normal
    session path and asserts the fresh result equals the stored one.
    A recorded backend that is no longer offered (entries written when
    ``lattice`` was a choice) recomputes on the default backend: run
    keys exclude the backend, so the stored result must still match.
    A spec that cannot run, or that :meth:`SessionSpec.from_dict`
    refuses (one asking for a removed mode), is a not-ok row naming
    the error.  Returns a JSON-ready row: ``{"digest", "ok",
    "detail"}``.
    """
    envelope = store.load_entry(digest)
    if envelope is None:
        return {
            "digest": digest, "ok": False,
            "detail": "entry unreadable or invalid",
        }
    try:
        spec = SessionSpec.from_dict(dict(envelope["spec"]))  # type: ignore[arg-type]
    except (KeyError, TypeError, ValueError):
        return {
            "digest": digest, "ok": False,
            "detail": "envelope spec does not round-trip",
        }
    except ConfigurationError as exc:
        return {
            "digest": digest, "ok": False,
            "detail": f"envelope spec refused: {exc}",
        }
    if spec.backend not in BACKEND_NAMES:
        spec = replace(spec, backend=DEFAULT_BACKEND)
    try:
        fresh = run_session_spec(spec)["result"]
    except (ReproError, ValueError) as exc:
        return {
            "digest": digest, "ok": False,
            "detail": f"recompute failed: {type(exc).__name__}: {exc}",
        }
    if fresh != envelope["result"]:
        return {
            "digest": digest, "ok": False,
            "detail": "stored result differs from recompute",
        }
    return {
        "digest": digest, "ok": True,
        "detail": f"recomputed {spec.protocol} n={spec.n} bit-identical",
    }
