"""Warm worker pools for the fleet's process executor.

:mod:`repro.parallel.pool` keeps one process pool per worker count,
reused across runs; :meth:`~repro.parallel.pool.WorkerPool.warm`
pre-spawns the workers and pre-imports the session stack.  Specs and
result rows travel on the pool's own pickle channel, so pooled rows
are exactly the rows the serial executor builds, with or without
numpy.
"""

from repro.parallel.pool import WorkerPool, get_pool, shutdown_pools

__all__ = ["WorkerPool", "get_pool", "shutdown_pools"]
