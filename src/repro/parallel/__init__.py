"""Zero-copy shared-memory execution: arenas and warm pools.

Two rungs, the second building on the first:

* :mod:`repro.parallel.shm` -- a named-column allocator over
  :mod:`multiprocessing.shared_memory`: int64 and byte columns packed
  into one segment, numpy ``frombuffer`` views when numpy is available
  and stdlib ``memoryview("q")`` casts when it is not, with an explicit
  create/attach/close/unlink lifecycle (context-manager owner, atexit
  sweep) so CI never leaks segments.

* :mod:`repro.parallel.pool` -- persistent *warm* worker pools: one
  process pool per worker count, reused across runs, whose workers
  attach to a shm arena once per run and keep the attachment cached.
  Fleet jobs pass only ``(arena name, spec index)``-sized tuples; spec
  payloads and result rows travel through shm slots, not pickles.

Results are bit-identical to the serial executor, with or without
numpy.
"""

from repro.parallel.pool import (
    WorkerPool,
    get_pool,
    run_specs_pooled,
    shutdown_pools,
)
from repro.parallel.shm import ShmArena

__all__ = [
    "ShmArena",
    "WorkerPool",
    "get_pool",
    "run_specs_pooled",
    "shutdown_pools",
]
