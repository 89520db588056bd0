"""Content-addressed run cache: compute-or-fetch for deterministic runs.

Every run in this repo is deterministic end to end: Fleet results are
bit-identical across executors, worker counts, backends and drivers,
and RunReport JSON carries exact ``"p/q"`` rationals.  That makes each
result a pure function of its backend-independent spec -- so a repeated
request is a dictionary hit, not a simulation (ROADMAP open item 1).

This package is that dictionary:

* :mod:`repro.store.keys` -- the canonical run key: a SHA-256 digest
  over a pinned canonical-JSON serialisation of the backend-independent
  spec (protocol, n, model, seed, config, id bound, common sense,
  unchecked, and the registry's phase plan).  Backend, driver and
  executor are deliberately excluded: results are property-tested
  bit-identical across all of them, which is what lets a
  lattice-computed report serve an array request.

* :mod:`repro.store.store` -- :class:`~repro.store.store.RunStore`, a
  two-tier store: an in-process LRU dict in front of an on-disk
  content-addressed layout (``~/.cache/repro`` or ``--cache-dir``,
  atomic write-then-rename).  Corrupt, truncated or version-mismatched
  entries are misses, never errors.

* :mod:`repro.store.service` -- :func:`compute_or_fetch` and the store
  registry, wired into :meth:`RingSession.run <repro.api.session.RingSession.run>`,
  :class:`~repro.api.fleet.Fleet` (pre-flight hit/miss partition plus
  intra-sweep dedup) and the CLI (``--cache`` / ``--no-cache`` /
  ``--cache-dir``; ``python -m repro cache stats|verify|clear``).

The committed ``BENCH_cache.json`` report gates the win: warm hits
>= 20x over recompute and intra-sweep dedup >= 1.5x on a
duplicate-heavy fleet, bit-exactness enforced before timing.
"""

from repro.store.keys import canonical_json, key_document, run_key, safe_key
from repro.store.service import (
    cache_enabled_default,
    compute_or_fetch,
    get_store,
    resolve_cache,
    verify_entry,
)
from repro.store.store import RunStore, default_cache_dir

__all__ = [
    "RunStore",
    "cache_enabled_default",
    "canonical_json",
    "compute_or_fetch",
    "default_cache_dir",
    "get_store",
    "key_document",
    "resolve_cache",
    "run_key",
    "safe_key",
    "verify_entry",
]
