"""Shared machinery for the native phase drivers.

A native driver is a :class:`PhasePolicy`: a queue of *spans*.  Each
span is a :class:`~repro.ring.stretch.Stretch` plan (or a callable that
builds one at decide time, for data-dependent rounds) with an optional
*harvest* hook that receives the span's stretch outcome.  The scheduler
calls :meth:`PhasePolicy.decide` once per span, so a whole phase
executes with zero per-agent Python dispatch on the decision path;
harvests write round results straight into the population's columns.

Data-dependent drivers (rotation classification, bisection, selective
family search) extend their own queue from inside a harvest -- the
queue is empty beyond the current span at that point, so continuation
spans land in order.

Every native round is part of a span.  :meth:`PhasePolicy.
push_probe_span` plans the paper's probe/REVERSEDROUND pair,
:meth:`PhasePolicy.push_restore` reverses the last row played, and
phases that drive the scheduler directly hand their spans to
:meth:`~repro.core.scheduler.Scheduler.run_stretch`.  On a
stretch-capable backend (``array``) a span runs fused in one backend
call and its restore rounds never materialise observations; on
``fraction``, under a fault plan and under cross-validation it replays
round by round behind the same outcome surface, integer columns
included (``dist_ints(j)``, ``coll_ints(j)``, ...), so each harvest
reads integers along one path.  Restore rounds are executed and
counted like any other round (the paper's accounting).

Rows are direction vectors or local sign rows;
:meth:`PhasePolicy.sign_row` builds a sign row in the representation
the backend reads (int8 under numpy, an int list otherwise).  Vector
helpers mirror the legacy per-agent vocabulary: :func:`aligned_vector`
is the column form of :func:`repro.protocols.base.aligned_direction`,
:func:`common_dists` of :func:`repro.protocols.base.common_dist`.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Union,
)

from repro.api.policy import Policy
from repro.core.agent import AgentView
from repro.core.population import MISSING, Population
from repro.core.scheduler import Scheduler
from repro.exceptions import ProtocolError
from repro.ring.stretch import Row, Stretch, opposite_row
from repro.types import LocalDirection, RoundOutcome

RIGHT = LocalDirection.RIGHT
LEFT = LocalDirection.LEFT
IDLE = LocalDirection.IDLE

Vector = List[LocalDirection]
#: A row, or a callable building one at decide time.
VectorSpec = Union[Row, Callable[[], Row]]
#: A span, or a callable building one at decide time.
StretchSpec = Union[Stretch, Callable[[], Stretch]]
#: Harvest signature of a span: receives the stretch outcome.
StretchHarvest = Callable[[Any], None]


def aligned_vector(
    flips: Sequence[bool], commons: Sequence[LocalDirection]
) -> Vector:
    """Translate per-slot common-frame directions into local frames."""
    return [
        c if c is IDLE or not f else c.opposite()
        for f, c in zip(flips, commons)
    ]


def common_dists(
    flips: Sequence[bool], dists: Sequence[Fraction]
) -> List[Fraction]:
    """Each slot's ``dist()`` (one round's dist column) converted into
    the common frame."""
    return [
        (Fraction(1) - d if d != 0 else Fraction(0)) if f else d
        for f, d in zip(flips, dists)
    ]


def intern_fractions(
    numerators: Iterable[int], scale: int, cache: Dict[int, Fraction]
) -> List[Optional[Fraction]]:
    """``Fraction(v, scale)`` for each integer numerator (None for a
    negative one, the integer columns' "no value"), one object per
    numerator through ``cache``, which must belong to ``scale``.  The
    native harvests' one mint for the rationals they publish."""
    out: List[Optional[Fraction]] = []
    for v in numerators:
        if v < 0:
            out.append(None)
            continue
        value = cache.get(v)
        if value is None:
            value = cache[v] = Fraction(v, scale)
        out.append(value)
    return out


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
    """A native phase driver: a self-scheduling queue of spans.

    Subclasses (or callers, via :meth:`push_stretch` and the helpers
    built on it) enqueue spans; :meth:`run` drives the scheduler until
    the queue drains, then calls :meth:`finalize`.  ``decide`` builds
    the head span; ``observe_stretch`` pops it and runs its harvest
    with the span's stretch outcome.
    """

    def __init__(self, sched: Scheduler) -> None:
        self.sched = sched
        self.population: Population = sched.population
        self.n: int = sched.population.n
        #: numpy when the backend exposes vectorised stretch columns
        #: (the array backend with numpy installed), else None; drivers
        #: key their sign rows and harvest columns off this.
        self.xp = sched.array_module
        self._queue: "deque" = deque()
        #: The last row of the most recent span played (the base of
        #: :meth:`push_restore` and of a repeated probe).
        self.last_vector: Optional[Row] = None

    def sign_row(self, signs: Sequence[int]) -> Row:
        """A local sign row (+1 own RIGHT, -1 own LEFT, 0 idle) in the
        representation the backend reads: int8 under :attr:`xp`, else
        an int list."""
        xp = self.xp
        if xp is None:
            return list(signs)
        return xp.asarray(signs, dtype=xp.int8)

    # -- plan construction ----------------------------------------------

    def push_stretch(
        self, spec: StretchSpec, harvest: Optional[StretchHarvest] = None
    ) -> None:
        """Enqueue one span: a :class:`Stretch` (or a callable building
        one at decide time) and an optional harvest that receives the
        whole stretch outcome."""
        self._queue.append((spec, harvest))

    def push_probe_span(
        self, vector: VectorSpec, harvest: Optional[StretchHarvest] = None
    ) -> None:
        """Enqueue a probe/REVERSEDROUND pair as one span whose harvest
        receives the *stretch outcome* (round 0 is the probe; the
        restore round's observations are never read, so on a
        stretch-capable backend they are never materialised)."""

        def build() -> Stretch:
            row = vector() if callable(vector) else vector
            return Stretch.probe_restore(row)

        self.push_stretch(build, harvest)

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

        The probes are single-round stretches whose dist columns are
        read as integer numerators, so the half-turn test
        ``d1 + d2 == 1`` is ``d1 + d2 == scale``: one vectorised
        compare under numpy, one list pass otherwise.
        """

        def first_harvest(result) -> None:
            d1 = result.dist_ints(0)
            if d1[0] == 0:
                self.push_restore()
                on_verdict(False)
                return
            if weak:
                self.push_restore()
                on_verdict(True)
                return

            def second_harvest(result2) -> None:
                d2 = result2.dist_ints(0)
                scale = result.scale
                if result.np is not None:
                    halfs = ((d1 + d2) == scale).tolist()
                else:
                    halfs = [a + b == scale for a, b in zip(d1, d2)]
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
        """Spans still queued."""
        return len(self._queue)

    def decide(self, views: Sequence[AgentView]):
        if not self._queue:
            raise ProtocolError(
                f"{type(self).__name__} has no span queued"
            )
        spec = self._queue[0][0]
        stretch = spec() if callable(spec) else spec
        self.last_vector = stretch.last_row
        return stretch

    def observe(
        self, views: Sequence[AgentView], outcome: RoundOutcome
    ) -> None:
        """Never reached: ``decide`` always returns a span, so the
        scheduler reports to :meth:`observe_stretch`.  Defined on this
        class because ``perfbench/tracing.py`` patches it by name."""
        raise ProtocolError(
            f"{type(self).__name__} plans spans only; it has no "
            "single-round step to harvest"
        )

    def observe_stretch(self, views: Sequence[AgentView], result) -> None:
        """Pop the head span and run its harvest with the span's
        stretch outcome (the scheduler's report for every span
        ``decide`` returns)."""
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

