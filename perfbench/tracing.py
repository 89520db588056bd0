"""Per-layer tracing by wrapping each layer's public entry points.

The program has no tracing of its own, so this module patches the
public methods named below on their classes for the duration of one
traced run and restores them afterwards.  Each wrapper opens a span:
its duration is charged to its layer, minus the part covered by child
spans (a layer's *self* time), and it updates the layer's counters as
it closes.  Spans are aggregated as they close instead of being kept
one by one: the perceptive workload opens about a million of them.

Lazy observation rows and gap columns are counted per ``__iter__``
call (one per column read), never per cell.
"""

from __future__ import annotations

import resource
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Phase names of every registry protocol, reported on every workload
#: (0 where a workload's plans never run the phase).
PHASES = (
    "nontrivial_move",
    "direction_agreement",
    "leader_election",
    "neighbor_discovery",
    "ring_distances",
    "ring_size_broadcast",
    "discovery",
    "contention",
)


#: Every per-layer metric of a traced run: (name, unit, better).  The
#: ``fleet.*`` pair and ``trace_overhead_share`` are computed by
#: ``run.py`` from the untraced iterations; the rest by :class:`Tracer`.
PER_LAYER: List[Tuple[str, str, str]] = [
    metric
    for phase in PHASES
    for metric in (
        (f"api.phase.{phase}.s", "s", "lower"),
        (f"api.phase.{phase}.rounds", "rounds", "lower"),
        (f"api.phase.{phase}.rss_mb", "MB", "lower"),
    )
] + [
    ("api.collect_s", "s", "lower"),
    ("api.to_dict_s", "s", "lower"),
    ("fleet.pool_warm_s", "s", "lower"),
    ("fleet.worker_busy_share", "ratio", "higher"),
    ("policies.decide_calls", "count", "lower"),
    ("policies.decide_self_s", "s", "lower"),
    ("scheduler.run_round_calls", "count", "lower"),
    ("scheduler.run_stretch_calls", "count", "lower"),
    ("scheduler.skipped_restore_rounds", "rounds", "higher"),
    ("scheduler.self_s", "s", "lower"),
    ("ring.scalar_rounds", "rounds", "lower"),
    ("ring.stretch_rounds", "rounds", "lower"),
    ("ring.speculative_rounds_planned", "rounds", "lower"),
    ("ring.speculative_rounds_committed", "rounds", "lower"),
    ("ring.speculative_commit_ratio", "ratio", "higher"),
    ("ring.self_s", "s", "lower"),
    ("population.record_calls", "count", "lower"),
    ("population.lazy_columns_read", "count", "lower"),
    ("population.self_s", "s", "lower"),
    ("analysis.systems", "count", "lower"),
    ("analysis.eq_adds", "count", "lower"),
    ("analysis.eq_rank_ups", "count", "lower"),
    ("analysis.eq_useful_ratio", "ratio", "higher"),
    ("analysis.self_s", "s", "lower"),
    ("trace_overhead_share", "ratio", "lower"),
]


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set so far, in MB (ru_maxrss is KiB on Linux), of
    this process or (``RUSAGE_CHILDREN``) its largest reaped child."""
    return resource.getrusage(who).ru_maxrss / 1024.0


class Tracer:
    """Aggregated spans and counters for one traced run.

    ``install()`` patches the entry points, ``uninstall()`` restores
    them; ``metrics()`` turns what was recorded into the per-layer
    metric table.
    """

    def __init__(self) -> None:
        self.counts: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.phase_s: Dict[str, float] = defaultdict(float)
        self.phase_rounds: Dict[str, int] = defaultdict(int)
        self.phase_rss: Dict[str, float] = defaultdict(float)
        self.collect_s = 0.0
        self.to_dict_s = 0.0
        # One child-time accumulator per open span.
        self._open: List[float] = []
        # Names of the open spans (to tell nested ring calls apart).
        self._names: List[str] = []
        self._patches: List[Tuple[type, str, object]] = []

    # -- span machinery ---------------------------------------------------

    def _wrap(
        self,
        fn: Callable,
        layer: str,
        name: str,
        on_exit: Optional[Callable] = None,
    ) -> Callable:
        open_spans = self._open
        names = self._names
        self_s = self.self_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if on_exit is not None:
                parent = names[-1] if names else None
            open_spans.append(0.0)
            names.append(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                names.pop()
                child = open_spans.pop()
                self_s[layer] += duration - child
                self_s[name] += duration - child
                if open_spans:
                    open_spans[-1] += duration
            if on_exit is not None:
                on_exit(args, kwargs, result, duration, parent)
            return result

        return traced

    def _patch(self, owner: type, attr: str, layer: str,
               on_exit: Optional[Callable] = None) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(
            original, layer, f"{owner.__name__}.{attr}", on_exit
        ))

    def _count(self, key: str, amount: float = 1) -> None:
        self.counts[key] += amount

    # -- the layers ---------------------------------------------------------

    def install(self) -> None:
        from repro.analysis.equations import EquationSystem
        from repro.analysis.int_equations import IntEquationSystem
        from repro.api.session import RingSession
        from repro.core.population import LazyObsRow, Population
        from repro.core.scheduler import Scheduler
        from repro.protocols.base import (
            ContentionResult,
            CoordinationResult,
            LocationDiscoveryResult,
        )
        from repro.protocols.policies.base import PhasePolicy
        from repro.protocols.policies.location_discovery import LazyGapColumn
        from repro.ring.simulator import RingSimulator
        from repro.ring.stretch import SpeculativeStretch

        count = self._count

        # api: phases, collect (resume minus the phases it ran), to_dict.
        def on_step(args, kwargs, result, duration, parent):
            name, rounds = result
            self.phase_s[name] += duration
            self.phase_rounds[name] += rounds
            self.phase_rss[name] = max(self.phase_rss[name], peak_rss_mb())

        self._patch(RingSession, "step", "api", on_step)
        resume = RingSession.__dict__["resume"]

        def resume_traced(session):
            phases_before = sum(self.phase_s.values())
            start = time.perf_counter()
            result = resume(session)
            duration = time.perf_counter() - start
            self.collect_s += duration - (
                sum(self.phase_s.values()) - phases_before
            )
            return result

        self._patches.append((RingSession, "resume", resume))
        RingSession.resume = self._wrap(  # type: ignore[method-assign]
            resume_traced, "api", "RingSession.resume"
        )

        def on_to_dict(args, kwargs, result, duration, parent):
            self.to_dict_s += duration

        for cls in (LocationDiscoveryResult, CoordinationResult,
                    ContentionResult):
            self._patch(cls, "to_dict", "api", on_to_dict)

        # policies
        self._patch(PhasePolicy, "decide", "policies",
                    lambda *a: count("policies.decide_calls"))
        self._patch(PhasePolicy, "observe", "policies")
        self._patch(PhasePolicy, "observe_stretch", "policies")

        # scheduler
        self._patch(Scheduler, "run_round", "scheduler",
                    lambda *a: count("scheduler.run_round_calls"))
        self._patch(Scheduler, "run_stretch", "scheduler",
                    lambda *a: count("scheduler.run_stretch_calls"))
        self._patch(Scheduler, "run_fixed", "scheduler")

        def on_skip(args, kwargs, result, duration, parent):
            k = args[2] if len(args) > 2 else kwargs.get("k", 1)
            count("scheduler.skipped_restore_rounds", k)

        self._patch(Scheduler, "skip_restoring", "scheduler", on_skip)

        # ring: rounds a stretch falls back to running one by one are
        # stretch rounds, not scalar ones.
        stretch_span = "RingSimulator.execute_stretch"

        def on_execute(args, kwargs, result, duration, parent):
            if parent != stretch_span:
                count("ring.scalar_rounds")

        def on_batch(args, kwargs, result, duration, parent):
            if parent != stretch_span:
                count("ring.scalar_rounds", len(result))

        def on_stretch(args, kwargs, result, duration, parent):
            count("ring.stretch_rounds", result.k)
            stretch = args[1]
            if isinstance(stretch, SpeculativeStretch):
                count("ring.speculative_rounds_planned", stretch.rounds)
                count("ring.speculative_rounds_committed", result.k)

        self._patch(RingSimulator, "execute", "ring", on_execute)
        self._patch(RingSimulator, "execute_batch", "ring", on_batch)
        self._patch(RingSimulator, "execute_stretch", "ring", on_stretch)
        self._patch(RingSimulator, "apply_restoring_span", "ring")

        # population
        def on_record(*a):
            count("population.record_calls")

        def on_column(*a):
            count("population.lazy_columns_read")

        self._patch(Population, "record_round", "population", on_record)
        self._patch(Population, "record_stretch", "population", on_record)
        self._patch(LazyObsRow, "__iter__", "population", on_column)
        self._patch(LazyGapColumn, "__iter__", "population", on_column)

        # analysis
        def on_system(*a):
            count("analysis.systems")

        def on_add(args, kwargs, result, duration, parent):
            count("analysis.eq_adds")
            if result:
                count("analysis.eq_rank_ups")

        for cls in (EquationSystem, IntEquationSystem):
            self._patch(cls, "__init__", "analysis", on_system)
            self._patch(cls, "add", "analysis", on_add)
            self._patch(cls, "solve", "analysis")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """The per-layer metric table (every name, 0 where unused)."""
        c = self.counts
        out: Dict[str, float] = {}
        for phase in PHASES:
            out[f"api.phase.{phase}.s"] = self.phase_s.get(phase, 0.0)
            out[f"api.phase.{phase}.rounds"] = self.phase_rounds.get(phase, 0)
            out[f"api.phase.{phase}.rss_mb"] = self.phase_rss.get(phase, 0.0)
        out["api.collect_s"] = self.collect_s
        out["api.to_dict_s"] = self.to_dict_s
        out["policies.decide_calls"] = c["policies.decide_calls"]
        out["policies.decide_self_s"] = self.self_s["PhasePolicy.decide"]
        for key in ("run_round_calls", "run_stretch_calls",
                    "skipped_restore_rounds"):
            out[f"scheduler.{key}"] = c[f"scheduler.{key}"]
        out["scheduler.self_s"] = self.self_s["scheduler"]
        for key in ("scalar_rounds", "stretch_rounds",
                    "speculative_rounds_planned",
                    "speculative_rounds_committed"):
            out[f"ring.{key}"] = c[f"ring.{key}"]
        out["ring.speculative_commit_ratio"] = _ratio(
            c["ring.speculative_rounds_committed"],
            c["ring.speculative_rounds_planned"],
        )
        out["ring.self_s"] = self.self_s["ring"]
        out["population.record_calls"] = c["population.record_calls"]
        out["population.lazy_columns_read"] = c["population.lazy_columns_read"]
        out["population.self_s"] = self.self_s["population"]
        out["analysis.systems"] = c["analysis.systems"]
        out["analysis.eq_adds"] = c["analysis.eq_adds"]
        out["analysis.eq_rank_ups"] = c["analysis.eq_rank_ups"]
        out["analysis.eq_useful_ratio"] = _ratio(
            c["analysis.eq_rank_ups"], c["analysis.eq_adds"]
        )
        out["analysis.self_s"] = self.self_s["analysis"]
        return out


def _ratio(useful: float, attempted: float) -> float:
    return useful / attempted if attempted else 0.0
