"""Fleet execution: many independent ring sessions, one structured report.

A :class:`Fleet` takes a list of :class:`SessionSpec` values (seed /
size / model / backend / protocol combinations -- see :func:`sweep` for
the cartesian-product builder), runs each as its own
:class:`~repro.api.session.RingSession` across a
:mod:`concurrent.futures` worker pool, and emits a :class:`RunReport`
whose payload is plain JSON.  Sessions share nothing, so results are
bit-identical regardless of executor kind or worker count (tested);
ordering always follows the spec list.

Executors: ``"process"`` (default; real parallelism for this CPU-bound
workload on multicore hosts) and ``"serial"`` (in-process baseline,
also the timing reference for the fleet benchmark).

The process executor rides the persistent warm pools of
:mod:`repro.parallel`: the pool for a worker count is created once and
reused across every subsequent ``run()``, and :meth:`Fleet.warm`
pre-spawns the workers so benchmarks can keep pool spin-up out of their
timed regions.  Specs and result rows cross processes on the pool's own
pickle channel, so a pooled row is exactly the row the serial executor
builds.

With caching on (``cache=True``, or ``REPRO_CACHE=1`` in the
environment), ``run()`` first partitions the sweep against the
content-addressed run store (:mod:`repro.store`): specs whose key is
already stored are served by fetch, the remaining *distinct* keys are
computed once each through the configured executor (so warm pools only
ever receive misses), and duplicate specs -- including specs differing
only in backend or driver, which are bit-exact equivalent -- fan out
from the one computation.  Rows keep their ``{"spec", "result",
"seconds"}`` shape and spec order either way; the report additionally
carries a ``cache`` summary (hits / misses / deduped).
"""

from __future__ import annotations

import copy
import json
import os
import platform
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.api.registry import DEFAULT_DRIVER
from repro.exceptions import ConfigurationError, ReproError
from repro.faults.plan import FaultPlan
from repro.ring.backends import DEFAULT_BACKEND
from repro.types import Model

#: Schema version of the RunReport JSON payload.
REPORT_SCHEMA = 1

_EXECUTORS = ("serial", "process")


@dataclass(frozen=True)
class SessionSpec:
    """One session of a fleet, as plain (picklable, JSON-able) data.

    Mirrors the :class:`~repro.api.session.RingSession` builder
    arguments; ``protocol`` names a registry entry and ``backend`` one
    of :data:`~repro.ring.backends.BACKEND_NAMES` (``fraction`` or
    ``array``).
    """

    n: int
    protocol: str = "location-discovery"
    model: str = "basic"
    backend: str = DEFAULT_BACKEND
    seed: int = 0
    common_sense: bool = False
    id_bound: Optional[int] = None
    config: str = "random"
    driver: str = DEFAULT_DRIVER
    #: Fault plan as canonical JSON (``None`` = fault-free).  Accepts a
    #: FaultPlan, a document dict or a JSON string at construction;
    #: parseable inputs normalise to the canonical string (so equal
    #: plans compare and dedup as equal specs), unparseable strings are
    #: kept verbatim -- such a spec is constructible but unkeyable
    #: (``safe_key`` returns None) and fails at run time.
    faults: Optional[str] = None

    def __post_init__(self) -> None:
        if self.faults is None:
            return
        try:
            plan = FaultPlan.coerce(self.faults)  # type: ignore[arg-type]
        except ConfigurationError:
            if not isinstance(self.faults, str):
                raise
            return
        object.__setattr__(
            self, "faults", None if plan is None else plan.canonical()
        )

    def to_dict(self) -> Dict[str, object]:
        data = asdict(self)
        # Fault-free specs serialise exactly as they did before the
        # fault axis existed: payload bytes and store documents are
        # unchanged unless a plan is actually present.
        if data.get("faults") is None:
            del data["faults"]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SessionSpec":
        """Rebuild a spec from a :meth:`to_dict` document.

        Documents stored before the ``unchecked`` mode was removed
        (corpus entries, cache envelopes) carry ``"unchecked": false``,
        which is dropped; one that asks for the mode raises
        :class:`~repro.exceptions.ConfigurationError`.
        """
        fields = dict(data)
        if fields.pop("unchecked", False) is not False:
            raise ConfigurationError("the unchecked mode has been removed")
        return cls(**fields)


def run_session_spec(spec: SessionSpec) -> Dict[str, object]:
    """Execute one spec in the current process; returns its JSON row.

    Module-level (not a method) so process-pool workers can pickle it.
    """
    from repro.api.session import RingSession

    session = RingSession(
        n=spec.n,
        model=Model(spec.model),
        backend=spec.backend,
        seed=spec.seed,
        common_sense=spec.common_sense,
        id_bound=spec.id_bound,
        config=spec.config,
        driver=spec.driver,
        faults=spec.faults,
    )
    start = time.perf_counter()
    if session.faults is None:
        result = session.run(spec.protocol)
        elapsed = time.perf_counter() - start
        return {
            "spec": spec.to_dict(),
            "result": result.to_dict(),
            "seconds": round(elapsed, 6),
        }
    # Faulted specs degrade gracefully instead of failing the fleet:
    # a run the protocol's own checks abort ("detect") becomes a row
    # with a null result and the error recorded in the faults block; a
    # run that completes carries its (possibly degraded) result plus
    # the plan that produced it.
    faults_block: Dict[str, object] = {
        "schema": REPORT_SCHEMA,
        "plan": json.loads(session.faults.canonical()),
    }
    try:
        result = session.run(spec.protocol)
    except ReproError as exc:
        elapsed = time.perf_counter() - start
        faults_block["outcome"] = "detected"
        faults_block["error"] = type(exc).__name__
        faults_block["message"] = str(exc)
        return {
            "spec": spec.to_dict(),
            "result": None,
            "faults": faults_block,
            "seconds": round(elapsed, 6),
        }
    elapsed = time.perf_counter() - start
    faults_block["outcome"] = "completed"
    return {
        "spec": spec.to_dict(),
        "result": result.to_dict(),
        "faults": faults_block,
        "seconds": round(elapsed, 6),
    }


@dataclass
class RunReport:
    """Structured outcome of one fleet run (JSON-ready).

    Attributes:
        results: One row per spec, in spec order: ``{"spec": ...,
            "result": ..., "seconds": ...}``.
        executor: Which executor kind ran the fleet.
        workers: Worker count used (1 for serial).
        seconds_total: Wall-clock of the whole fleet run.
        cpu_count: Host CPU count (parallel speedup context).
        cache: Run-cache summary (hits / misses / deduped /
            uncacheable) when the fleet ran with caching on, else
            ``None`` -- the payload shape is unchanged for uncached
            runs.
    """

    results: List[Dict[str, object]] = field(default_factory=list)
    executor: str = "serial"
    workers: int = 1
    seconds_total: float = 0.0
    cpu_count: int = 1
    cache: Optional[Dict[str, object]] = None

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "schema": REPORT_SCHEMA,
            "executor": self.executor,
            "workers": self.workers,
            "seconds_total": round(self.seconds_total, 6),
            "cpu_count": self.cpu_count,
            "python": platform.python_version(),
            "results": self.results,
        }
        if self.cache is not None:
            payload["cache"] = dict(self.cache)
        return payload

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def payloads(self) -> List[Dict[str, object]]:
        """The timing-free rows (what determinism tests compare).

        Fault-free rows keep their historical two-key shape exactly;
        rows produced under a fault plan additionally carry their
        ``faults`` block (plan + outcome + error, no timings).
        """
        payloads: List[Dict[str, object]] = []
        for row in self.results:
            payload: Dict[str, object] = {
                "spec": row["spec"], "result": row["result"]
            }
            if "faults" in row:
                payload["faults"] = row["faults"]
            payloads.append(payload)
        return payloads


class Fleet:
    """Runs many sessions across a worker pool.

    Args:
        specs: Session specs, executed in order (results keep the
            order regardless of completion order).
        workers: Pool size; defaults to ``min(len(specs), cpu_count)``.
        executor: ``"process"`` or ``"serial"``.
        cache: Compute-or-fetch against the content-addressed run
            store (:mod:`repro.store`).  ``None`` (the default) defers
            to the ``REPRO_CACHE`` environment switch; fetched and
            deduplicated results are bit-identical to computed ones.
        cache_dir: Store directory override (default
            ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``).
    """

    def __init__(
        self,
        specs: Sequence[SessionSpec],
        workers: Optional[int] = None,
        executor: str = "process",
        cache: Optional[bool] = None,
        cache_dir: Optional[str] = None,
    ) -> None:
        if executor not in _EXECUTORS:
            raise ConfigurationError(
                f"unknown executor {executor!r}; expected one of "
                f"{', '.join(_EXECUTORS)}"
            )
        self.specs = list(specs)
        cpu = os.cpu_count() or 1
        if workers is None:
            workers = max(1, min(len(self.specs), cpu))
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        self.workers = 1 if executor == "serial" else workers
        self.executor = executor
        self.cache = cache
        self.cache_dir = cache_dir

    def warm(self) -> None:
        """Pre-spawn the process pool (no-op for the serial executor).

        Benchmarks call this before their timed repeats so pool
        spin-up and worker imports never land inside a timed region;
        the pool spawns its workers on first use anyway, so calling it
        is optional.
        """
        if self.executor == "process":
            from repro.parallel.pool import get_pool

            get_pool(self.workers).warm()

    def _execute(
        self, specs: Sequence[SessionSpec]
    ) -> List[Dict[str, object]]:
        """Run ``specs`` through the configured executor, in order."""
        if not specs:
            return []
        if self.executor == "serial":
            return [run_session_spec(spec) for spec in specs]
        from repro.parallel.pool import get_pool

        return list(get_pool(self.workers).executor.map(
            run_session_spec, specs
        ))

    def _run_cached(self) -> RunReport:
        """The compute-or-fetch path: partition, dedup, fan out.

        Specs already in the store are served by fetch; the remaining
        *distinct* keys are computed once each through the configured
        executor (warm pools only ever see misses); duplicates copy the
        one computed row with ``seconds`` 0.0.  Row shape and spec
        order match the uncached path exactly.
        """
        from repro.store.keys import safe_key
        from repro.store.service import get_store

        store = get_store(self.cache_dir)
        start = time.perf_counter()
        rows: List[Optional[Dict[str, object]]] = [None] * len(self.specs)
        hits = misses = deduped = uncacheable = 0
        # digest -> list of spec indices sharing it (dedup groups).
        to_compute: "OrderedDict[str, List[int]]" = OrderedDict()
        keyed_docs: Dict[str, Dict[str, object]] = {}
        for index, spec in enumerate(self.specs):
            # Faulted specs are addressable (their plan is part of the
            # run key) but always computed: a faulted run's outcome may
            # be an error row, which the store's result envelope does
            # not model.
            keyed = safe_key(spec) if spec.faults is None else None
            if keyed is None:
                uncacheable += 1
                row = run_session_spec(spec)
                rows[index] = row
                continue
            digest, key_doc = keyed
            if digest in to_compute:
                to_compute[digest].append(index)
                deduped += 1
                continue
            fetch_start = time.perf_counter()
            entry = store.get(digest)
            if entry is not None:
                hits += 1
                rows[index] = {
                    "spec": spec.to_dict(),
                    "result": entry["result"],
                    "seconds": round(time.perf_counter() - fetch_start, 6),
                }
                continue
            misses += 1
            to_compute[digest] = [index]
            keyed_docs[digest] = key_doc
        computed = self._execute(
            [self.specs[group[0]] for group in to_compute.values()]
        )
        for (digest, group), row in zip(to_compute.items(), computed):
            primary = group[0]
            rows[primary] = row
            store.put(
                digest,
                row["result"],  # type: ignore[arg-type]
                key=keyed_docs[digest],
                spec=self.specs[primary].to_dict(),
                backend=self.specs[primary].backend,
            )
            for index in group[1:]:
                rows[index] = {
                    "spec": self.specs[index].to_dict(),
                    "result": copy.deepcopy(row["result"]),
                    "seconds": 0.0,
                }
        elapsed = time.perf_counter() - start
        return RunReport(
            results=[row for row in rows if row is not None],
            executor=self.executor,
            workers=self.workers,
            seconds_total=elapsed,
            cpu_count=os.cpu_count() or 1,
            cache={
                "enabled": True,
                "hits": hits,
                "misses": misses,
                "deduped": deduped,
                "uncacheable": uncacheable,
                "cache_dir": str(store.cache_dir),
            },
        )

    def run(self) -> RunReport:
        """Execute every spec; returns the structured report."""
        from repro.store.service import resolve_cache

        if resolve_cache(self.cache):
            return self._run_cached()
        start = time.perf_counter()
        rows = self._execute(self.specs)
        elapsed = time.perf_counter() - start
        return RunReport(
            results=rows,
            executor=self.executor,
            workers=self.workers,
            seconds_total=elapsed,
            cpu_count=os.cpu_count() or 1,
        )


def sweep(
    protocol: str = "location-discovery",
    sizes: Iterable[int] = (8,),
    seeds: Iterable[int] = (0,),
    models: Iterable[Union[Model, str]] = (Model.PERCEPTIVE,),
    backends: Iterable[str] = (DEFAULT_BACKEND,),
    common_sense: bool = False,
    id_bound: Optional[int] = None,
    config: str = "random",
    driver: str = DEFAULT_DRIVER,
    faults: Optional[str] = None,
) -> List[SessionSpec]:
    """Cartesian-product spec builder: sizes x seeds x models x backends.

    The iteration order is sizes-major (then seeds, models, backends),
    so reports stay diffable across runs.
    """
    specs: List[SessionSpec] = []
    for n in sizes:
        for seed in seeds:
            for model in models:
                model_name = (
                    model.value if isinstance(model, Model) else str(model)
                )
                for backend in backends:
                    specs.append(SessionSpec(
                        n=n,
                        protocol=protocol,
                        model=model_name,
                        backend=backend,
                        seed=seed,
                        common_sense=common_sense,
                        id_bound=id_bound,
                        config=config,
                        driver=driver,
                        faults=faults,
                    ))
    return specs
