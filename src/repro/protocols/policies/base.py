"""Shared machinery for the native phase drivers.

A native driver is a :class:`PhasePolicy`: a queue of *steps*, one per
round.  Each step carries the round's direction vector (a precomputed
list, a callable evaluated at decide time for data-dependent rounds, or
one of the :data:`REPEAT` / :data:`RESTORE` markers for the paper's
ubiquitous probe/REVERSEDROUND pairs) and an optional *harvest* hook run
after the round with the whole population's observations.  The
scheduler calls :meth:`PhasePolicy.decide` exactly once per round, so a
whole phase executes with zero per-agent Python dispatch on the
decision path; harvests write round results straight into the
population's columns.

Data-dependent drivers (rotation classification, bisection, selective
family search) extend their own queue from inside a harvest -- the
queue is empty beyond the current step at that point, so continuation
steps land in order.

Fused stretches: a step pushed with :meth:`PhasePolicy.push_stretch`
carries a whole :class:`~repro.ring.stretch.Stretch` plan (several
rounds whose vectors are known up front -- probe/restore pairs, bit
exchange frames).  ``decide`` returns the plan itself; the scheduler
executes the span in one backend call on stretch-capable backends and
the step's harvest receives the columnar *stretch outcome* instead of
one round's observations.  :meth:`PhasePolicy.push_probe` plans the
paper's probe/REVERSEDROUND pair as one such span, so every
``push_probe``-based driver fuses automatically.  Restore rounds are
executed and counted like any other round (the paper's accounting);
on a stretch-capable backend their observations never materialise.

Vector helpers mirror the legacy per-agent vocabulary:
:func:`aligned_vector` is the column form of
:func:`repro.protocols.base.aligned_direction`, :func:`common_dists` of
:func:`repro.protocols.base.common_dist`.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from typing import Any, Callable, List, Optional, Sequence, Union

from repro.api.policy import Policy
from repro.core.agent import AgentView
from repro.core.population import MISSING, Population
from repro.core.scheduler import Scheduler
from repro.exceptions import ProtocolError
from repro.ring.stretch import (
    Stretch,
    opposite_row,
    row_directions,
    row_is_signs,
)
from repro.types import LocalDirection, Observation, RoundOutcome

RIGHT = LocalDirection.RIGHT
LEFT = LocalDirection.LEFT
IDLE = LocalDirection.IDLE

#: Step marker: play the previous round's vector again.
REPEAT = type("_Repeat", (), {"__repr__": lambda self: "<repeat>"})()
#: Step marker: play the opposite of the previous round's vector (the
#: paper's REVERSEDROUND).
RESTORE = type("_Restore", (), {"__repr__": lambda self: "<restore>"})()

Vector = List[LocalDirection]
VectorSpec = Union[Vector, Callable[[], Vector], Any]
Harvest = Callable[[Sequence[Observation]], None]
#: Harvest signature of a fused step: receives the stretch outcome.
StretchHarvest = Callable[[Any], None]


class _StretchStep:
    """Queue marker wrapping a :class:`Stretch` (or its builder)."""

    __slots__ = ("spec",)

    def __init__(self, spec: Any) -> None:
        self.spec = spec


def opposite_vector(vector: Sequence[LocalDirection]) -> Vector:
    """The whole-population REVERSEDROUND of ``vector``."""
    return [d.opposite() for d in vector]


def aligned_vector(
    flips: Sequence[bool], commons: Sequence[LocalDirection]
) -> Vector:
    """Translate per-slot common-frame directions into local frames."""
    return [
        c if c is IDLE or not f else c.opposite()
        for f, c in zip(flips, commons)
    ]


def common_dists(
    flips: Sequence[bool], observations: Sequence[Observation]
) -> List[Fraction]:
    """Each slot's ``dist()`` converted into the common frame."""
    return [
        (Fraction(1) - o.dist if o.dist != 0 else Fraction(0))
        if f
        else o.dist
        for f, o in zip(flips, observations)
    ]


def require_column(
    population: Population, key: str, message: str
) -> List[Any]:
    """The fully-set column for ``key``; :class:`ProtocolError` with
    ``message`` if any slot is missing it."""
    column = population.get_column(key)
    if column is None or any(cell is MISSING for cell in column):
        raise ProtocolError(message)
    return column


class PhasePolicy(Policy):
    """A native phase driver: a self-scheduling queue of round steps.

    Subclasses (or callers, via :meth:`push`) enqueue steps; :meth:`run`
    drives the scheduler until the queue drains, then calls
    :meth:`finalize`.  ``decide`` resolves the head step's vector;
    ``observe`` pops the step and runs its harvest with the round's
    observations.
    """

    def __init__(self, sched: Scheduler) -> None:
        self.sched = sched
        self.population: Population = sched.population
        self.n: int = sched.population.n
        #: numpy when the backend exposes vectorised stretch columns
        #: (the array backend with numpy installed), else None; fused
        #: drivers key their internal representation off this.
        self.xp = sched.array_module
        self._queue: "deque" = deque()
        #: The most recent row actually played (REPEAT/RESTORE base) --
        #: a direction vector, or a local sign row under ``xp``.
        self.last_vector: Optional[Vector] = None

    # -- plan construction ----------------------------------------------

    def push(
        self, vector: VectorSpec, harvest: Optional[Harvest] = None
    ) -> None:
        """Enqueue one round: its direction vector (or marker/callable)
        and an optional post-round harvest."""
        self._queue.append((vector, harvest))

    def push_stretch(
        self, spec: Any, harvest: Optional[StretchHarvest] = None
    ) -> None:
        """Enqueue one fused span: a :class:`Stretch` (or a callable
        building one at decide time) and an optional harvest that
        receives the whole stretch outcome."""
        self._queue.append((_StretchStep(spec), harvest))

    def push_probe_span(
        self, vector: VectorSpec, harvest: Optional[StretchHarvest] = None
    ) -> None:
        """Enqueue a probe/REVERSEDROUND pair as one fused span whose
        harvest receives the *stretch outcome* (round 0 is the probe;
        the restore round's observations are never read, so on a
        stretch-capable backend they are never materialised)."""

        def build() -> Stretch:
            row = vector() if callable(vector) else vector
            return Stretch.probe_restore(row)

        self.push_stretch(build, harvest)

    def push_probe(
        self, vector: VectorSpec, harvest: Optional[Harvest] = None
    ) -> None:
        """As :meth:`push_probe_span`, with a legacy observation-row
        harvest: it receives the probe round's materialised
        observations instead of the stretch outcome."""
        wrapped: Optional[StretchHarvest] = None
        if harvest is not None:
            def wrapped(result, _harvest=harvest):
                _harvest(result.observations(0))

        self.push_probe_span(vector, wrapped)

    def push_restore(self, k: int = 1) -> None:
        """Enqueue ``k`` REVERSEDROUNDs of the last played row as one
        fused span (observations never materialise)."""

        def build() -> Stretch:
            return Stretch(opposite_row(self.last_vector), k)

        self.push_stretch(build)

    def push_classify(
        self,
        vector: VectorSpec,
        weak: bool,
        on_verdict: Callable[[bool], None],
    ) -> None:
        """Enqueue the Lemma 2 (weak) nontrivial-move classification of
        ``vector``, mirroring the legacy ``nontrivial_move._classify``
        round for round: 1 probe + 1 restore when the rotation index is
        zero (or the weak test passes), else 2 probes + 2 restores with
        the half-turn verdict posted to the ``nmove._half`` column.
        ``on_verdict(nontrivial)`` fires once the verdict is known (the
        trailing restore rounds still execute, as a fused span).

        The probes are single-round stretches so that on a stretch
        backend the dist columns are read as raw integers -- the
        half-turn test ``d1 + d2 == 1`` becomes one vectorised integer
        compare against the shared denominator.
        """

        def first_harvest(result) -> None:
            d1_ints = result.dist_ints(0)
            vectorised = d1_ints is not None and result.np is not None
            if vectorised:
                zero = int(d1_ints[0]) == 0
            else:
                zero = result.observations(0)[0].dist == 0
            if zero:
                self.push_restore()
                on_verdict(False)
                return
            if weak:
                self.push_restore()
                on_verdict(True)
                return

            def second_harvest(result2) -> None:
                d2_ints = result2.dist_ints(0)
                if (
                    vectorised
                    and d2_ints is not None
                    and result2.np is not None
                    and result.scale == result2.scale
                ):
                    halfs = (
                        (d1_ints + d2_ints) == result.scale
                    ).tolist()
                else:
                    halfs = [
                        d1 + d2 == 1
                        for d1, d2 in zip(result.dists(0), result2.dists(0))
                    ]
                self.population.set_column("nmove._half", halfs)
                self.push_restore(2)
                on_verdict(not halfs[0])

            self.push_stretch(
                lambda: Stretch(self.last_vector, 1), second_harvest
            )

        def build_first() -> Stretch:
            row = vector() if callable(vector) else vector
            return Stretch(row, 1)

        self.push_stretch(build_first, first_harvest)

    # -- Policy interface ------------------------------------------------

    @property
    def pending(self) -> int:
        """Rounds still queued."""
        return len(self._queue)

    def decide(self, views: Sequence[AgentView]):
        if not self._queue:
            raise ProtocolError(
                f"{type(self).__name__} has no round queued"
            )
        vector = self._queue[0][0]
        if isinstance(vector, _StretchStep):
            spec = vector.spec
            stretch = spec() if callable(spec) else spec
            self.last_vector = stretch.last_row
            return stretch
        if vector is REPEAT:
            vector = self.last_vector
        elif vector is RESTORE:
            vector = opposite_row(self.last_vector)
        elif callable(vector):
            vector = vector()
        self.last_vector = vector
        if row_is_signs(vector):
            # A plain step may follow a sign-row stretch (REPEAT /
            # RESTORE): single rounds always run as direction vectors.
            return row_directions(vector)
        return vector

    def observe(
        self, views: Sequence[AgentView], outcome: RoundOutcome
    ) -> None:
        _vector, harvest = self._queue.popleft()
        if harvest is not None:
            harvest(outcome.observations)

    def observe_stretch(self, views: Sequence[AgentView], result) -> None:
        """Pop the fused step and run its harvest with the stretch
        outcome (called by the scheduler instead of ``observe`` when
        ``decide`` returned a :class:`Stretch`)."""
        _spec, harvest = self._queue.popleft()
        if harvest is not None:
            harvest(result)

    # -- driving ---------------------------------------------------------

    def run(self) -> "PhasePolicy":
        """Execute every queued round (including any the harvests add),
        then :meth:`finalize`; returns self for chaining."""
        sched = self.sched
        queue = self._queue
        while queue:
            sched.run_round(self)
        self.finalize()
        return self

    def finalize(self) -> None:
        """Post-run conclusion (column writes); default no-op."""


def run_vector(sched: Scheduler, vector: Vector) -> Sequence[Observation]:
    """Run one ad-hoc round from a precomputed vector; returns the
    population's observations for that round."""
    from repro.api.policy import VectorPolicy

    outcome = sched.run_round(VectorPolicy(vector))
    return outcome.observations
