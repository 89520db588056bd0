"""Fused-stretch execution plans and their round-by-round fallback.

A :class:`Stretch` is a *plan* for several consecutive rounds whose
direction vectors are all known up front -- the paper's ubiquitous
probe/REVERSEDROUND pairs, the four rounds of a collision-channel bit
exchange, a ``run_fixed`` batch.  A whole-population policy may return
one from ``decide`` instead of a single direction vector; the scheduler
then hands the whole span to the kinematics backend in one call.  A
backend that understands stretches (:class:`~repro.ring.backends.
ArrayBackend`) advances all ``k`` rounds in closed form and returns a
*stretch outcome* whose observations stay columnar -- the columns are
computed on their first read, and per-agent
:class:`~repro.types.Observation` objects are only materialised if
something actually reads them (restore rounds typically never are).

Every stretch outcome exposes the same duck-typed surface:

* ``k``, ``n``, ``rotations`` (per-round rotation indices),
  ``collision_events``, ``scale`` (the ring's shared denominator
  ``D``), ``np`` (the numpy module when the integer columns are
  int64 ndarrays, else None);
* ``observations(j)`` / ``outcome(j)`` -- materialised round views;
* ``dists(j)`` / ``colls(j)`` -- per-round observation columns as
  interned Fractions;
* ``dist_ints(j)`` / ``coll_ints(j)`` -- integer numerator columns
  (over ``scale`` and ``2 * scale`` respectively; ``-1`` encodes a
  ``coll() = None``).  ``dist_ints`` never returns None, and a fused
  span's ``coll_ints`` only when the model reports no collisions;
* ``dist_ints_all()`` -- the whole span's dist numerators as one
  ``(k, n)`` matrix when the vectorised representation has one, else
  None (columnar harvests branch on it);
* ``release_columns()`` -- drop the integer columns computed so far
  (a harvest calls it once it has read them); later reads rebuild
  what they ask for, so the round history pins no ``(k, n)`` matrix.

Positions stay on ``Z/D`` for the whole run (Lemma 1), so the integer
columns exist on every backend.  :class:`MaterialisedStretch` is the
implementation wrapping plain :class:`~repro.types.RoundOutcome`
values, used whenever a span runs one round at a time (the
``fraction`` backend, a fault plan, cross-validation, or a span the
array backend declines); it derives its integer columns from the
rounds' Fractions.

Speculative spans
-----------------

A :class:`SpeculativeStretch` extends the plan with a per-round *stop
predicate* for the paper's data-dependent phases (the location
discovery sweeps that close when an agent has seen a full turn of
gaps, the Convolution/Pivot schedule that ends when every equation
system reaches full rank).  The planned span is an optimistic upper
bound: a stretch-capable backend advances the whole span vectorised,
then evaluates the predicate against the emitted observation columns
round by round and **cuts the span short at the first firing round**
-- committed state rolls back to that boundary, which under lazy
position commits is a rotation-offset rewind, not a copy.  Scalar
backends interleave instead: execute one round, evaluate, stop --
exactly the legacy observe-then-decide loop.

The predicate contract: ``stop(result, j) -> bool`` is called once per
executed round, for ``j = 0, 1, ...`` in order, where ``result`` is a
stretch outcome holding at least rounds ``0..j``; returning True marks
round ``j`` as the span's last round (that round is kept).  Predicates
may therefore carry running state (cumulative sums, equation systems)
-- which also means they usually double as the span's harvest.

Rows of a stretch may be given either as ``LocalDirection`` sequences
or as local-frame *sign rows* (+1 = own RIGHT, -1 = own LEFT, 0 =
idle) -- numpy int8 arrays from vectorised policies, any int sequence
otherwise.  Signs are in each agent's own frame; chirality mapping
stays inside the simulator.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    cast,
)

from repro.exceptions import SimulationError
from repro.types import LocalDirection, Observation, RoundOutcome

#: Per-round stop predicate of a speculative span: ``stop(result, j)``
#: is called once per executed round in order; True keeps round ``j``
#: as the last round of the span.
StopPredicate = Callable[[Any, int], bool]

#: A LocalDirection sequence or a local-sign int sequence (numpy int8
#: arrays from vectorised policies, any int sequence otherwise).
Row = Sequence[Any]


def row_is_signs(row: Row) -> bool:
    """Whether ``row`` is a sign row (ints) rather than directions."""
    if len(row) == 0:
        return False
    first = row[0]
    return not isinstance(first, LocalDirection)


def row_directions(row: Row) -> List[LocalDirection]:
    """``row`` as a LocalDirection list (identity for direction rows)."""
    if row_is_signs(row):
        from repro.ring.arrayops import signs_to_directions

        return signs_to_directions(row)
    return list(row)


def opposite_row(row: Row) -> Row:
    """The REVERSEDROUND of ``row``, in the row's own representation."""
    if row_is_signs(row):
        neg = getattr(row, "__neg__", None)
        if neg is not None:
            return cast(Row, neg())  # numpy fast path
        return [-s for s in row]
    return [d.opposite() for d in row]


class Stretch:
    """A plan of ``rounds`` consecutive rounds with known vectors.

    ``Stretch(row, k)`` plays one row ``k`` times; :meth:`of` builds a
    heterogeneous span; ``pairs`` is the internal run-length form
    ``[(row, count), ...]`` consumed by the simulator.  Every stretch
    executor -- the fused path and speculative execution -- plans from
    this same run-length form, so a plan built once runs
    bit-identically on either of them.
    """

    __slots__ = ("pairs", "rounds")

    def __init__(self, row: Optional[Row] = None, k: int = 1,
                 pairs: Optional[List[Tuple[Row, int]]] = None) -> None:
        if pairs is None:
            if row is None:
                raise ValueError("Stretch needs a row or explicit pairs")
            pairs = [(row, k)]
        self.pairs: List[Tuple[Row, int]] = []
        total = 0
        for r, count in pairs:
            if count < 1:
                raise ValueError("stretch round counts must be >= 1")
            self.pairs.append((r, count))
            total += count
        if total < 1:
            raise ValueError("a stretch must span at least one round")
        self.rounds = total

    @classmethod
    def of(cls, rows: Sequence[Row]) -> "Stretch":
        """A span playing each row of ``rows`` once, in order."""
        return cls(pairs=[(row, 1) for row in rows])

    @classmethod
    def probe_restore(cls, row: Row) -> "Stretch":
        """The probe/REVERSEDROUND pair of ``row`` (2 rounds)."""
        return cls(pairs=[(row, 1), (opposite_row(row), 1)])

    @property
    def last_row(self) -> Row:
        """The final round's row (what a following REVERSEDROUND
        reverses)."""
        return self.pairs[-1][0]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Stretch rounds={self.rounds} spans={len(self.pairs)}>"


class SpeculativeStretch(Stretch):
    """A planned span that a stop predicate may cut short.

    ``rounds`` is the *optimistic* span length -- an upper bound the
    plan is allowed to execute; the actual number of rounds committed
    is decided by ``stop`` (see the module docstring for the predicate
    contract).  ``stop=None`` degrades to a plain full-span stretch
    that still flows through the speculative execution path.
    """

    __slots__ = ("stop",)

    def __init__(
        self,
        row: Optional[Row] = None,
        k: int = 1,
        pairs: Optional[List[Tuple[Row, int]]] = None,
        stop: Optional[StopPredicate] = None,
    ) -> None:
        super().__init__(row, k, pairs)
        self.stop = stop

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<SpeculativeStretch rounds<={self.rounds} "
            f"spans={len(self.pairs)}>"
        )


class MaterialisedStretch:
    """Stretch outcome assembled from per-round outcomes (replay).

    Supports incremental construction (:meth:`append`) so the scalar
    speculative path can evaluate the stop predicate after each
    executed round against the rounds materialised so far.

    ``scale`` is the ring's shared denominator ``D`` when the span
    started (:attr:`~repro.ring.state.RingState.scale`).  Each round's
    integer columns are built on first read from its Fractions, as
    ``numerator * (grid // denominator)`` over ``D`` for ``dist()`` and
    ``2D`` for ``coll()`` (``-1`` for no collision) -- the contract of
    the array backend's stdlib rows.  A value off that grid raises
    :class:`~repro.exceptions.SimulationError`; it is never rounded.
    """

    __slots__ = ("_outcomes", "n", "scale", "rotations",
                 "collision_events", "_ints")

    #: The integer columns are int lists, never ndarrays.
    np: ClassVar[None] = None

    def __init__(self, scale: int,
                 outcomes: Sequence[RoundOutcome] = ()) -> None:
        self._outcomes: List[RoundOutcome] = []
        self.n = 0
        self.scale = scale
        self.rotations: List[int] = []
        self.collision_events = 0
        self._ints: Dict[Tuple[int, bool], List[int]] = {}
        for outcome in outcomes:
            self.append(outcome)

    @property
    def k(self) -> int:
        return len(self._outcomes)

    def append(self, outcome: RoundOutcome) -> None:
        """File one more executed round of the span."""
        if not self._outcomes:
            self.n = len(outcome.observations)
        self._outcomes.append(outcome)
        self.rotations.append(outcome.rotation_index)
        self.collision_events += outcome.collision_events

    def outcome(self, j: int) -> RoundOutcome:
        return self._outcomes[j]

    def observations(self, j: int) -> Tuple[Observation, ...]:
        return self._outcomes[j].observations

    def dists(self, j: int) -> List[Any]:
        return [o.dist for o in self._outcomes[j].observations]

    def colls(self, j: int) -> List[Any]:
        return [o.coll for o in self._outcomes[j].observations]

    def _numerators(self, j: int, coll: bool) -> List[int]:
        """Round ``j``'s dist (or coll) column as numerators over
        ``scale`` (or ``2 * scale``), built once."""
        key = (j, coll)
        column = self._ints.get(key)
        if column is None:
            grid = 2 * self.scale if coll else self.scale
            column = []
            for o in self._outcomes[j].observations:
                value = o.coll if coll else o.dist
                if value is None:
                    column.append(-1)
                    continue
                den = value.denominator
                if grid % den:
                    raise SimulationError(
                        f"observation {value} is off the 1/{grid} grid"
                    )
                column.append(value.numerator * (grid // den))
            self._ints[key] = column
        return column

    def dist_ints(self, j: int) -> List[int]:
        """Round ``j``'s dist numerators over ``scale`` (agent frame)."""
        return self._numerators(j, False)

    def coll_ints(self, j: int) -> List[int]:
        """Round ``j``'s coll numerators over ``2 * scale`` (-1 = None)."""
        return self._numerators(j, True)

    def dist_ints_all(self) -> None:
        """No ``(k, n)`` matrix on this representation."""
        return None

    def release_columns(self) -> None:
        """Drop the integer columns built so far; the rounds stay, so
        a later read builds its column again."""
        self._ints.clear()
