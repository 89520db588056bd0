"""Persistent warm worker pools for the fleet's process executor.

The original :class:`~repro.api.fleet.Fleet` spun up a fresh
``ProcessPoolExecutor`` inside every ``run()``; on the committed
benchmark the spin-up alone ate the parallel win.  This module keeps
one :class:`WorkerPool` per worker count (module registry via
:func:`get_pool`) and reuses it for every subsequent run;
:meth:`WorkerPool.warm` pre-spawns the workers and pre-imports the
session stack so none of that cost lands inside a timed region.

Specs and result rows cross processes on the executor's own pickle
channel: the fleet maps :func:`~repro.api.fleet.run_session_spec`
over :attr:`WorkerPool.executor`, so a pooled row is exactly the row
the serial executor builds.
"""

from __future__ import annotations

import atexit
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, Optional

from repro.exceptions import ConfigurationError


def _warm_job(_index: int) -> bool:
    """Pre-import the session stack so the first real job pays nothing."""
    import repro.api.session  # noqa: F401  (import for side effect)
    import repro.protocols.policies  # noqa: F401

    return True


class WorkerPool:
    """A process pool created once and kept warm across runs.

    The underlying executor is built lazily on first use and reused for
    every subsequent submission; :meth:`warm` spawns all workers and
    pre-imports the session stack, so benchmarks can keep pool spin-up
    out of their timed regions.  :meth:`shutdown` tears the pool down
    (the module registry does this for every pool at interpreter exit).
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        self.workers = workers
        self._executor: Optional[ProcessPoolExecutor] = None
        self._warm = False

    @property
    def executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
            self._warm = False
        return self._executor

    @property
    def alive(self) -> bool:
        return self._executor is not None

    def warm(self) -> None:
        """Spawn every worker and pre-import the session stack (no-op
        when the pool is already warm)."""
        if self._warm:
            return
        futures = [
            self.executor.submit(_warm_job, i) for i in range(self.workers)
        ]
        for future in futures:
            future.result()
        self._warm = True

    def shutdown(self) -> None:
        executor, self._executor = self._executor, None
        self._warm = False
        if executor is not None:
            executor.shutdown(wait=True)


_POOLS: Dict[int, WorkerPool] = {}
_SHUTDOWN_REGISTERED = False


def get_pool(workers: int) -> WorkerPool:
    """The persistent pool for ``workers`` workers (one per count)."""
    global _SHUTDOWN_REGISTERED
    pool = _POOLS.get(workers)
    if pool is None:
        pool = _POOLS[workers] = WorkerPool(workers)
        if not _SHUTDOWN_REGISTERED:
            _SHUTDOWN_REGISTERED = True
            atexit.register(shutdown_pools)
    return pool


def shutdown_pools() -> None:
    """Shut down every registry pool (tests and interpreter exit)."""
    for workers in list(_POOLS):
        pool = _POOLS.pop(workers, None)
        if pool is not None:
            pool.shutdown()
