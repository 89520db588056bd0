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
  ``collision_events``, ``scale`` (shared denominator, or None),
  ``np`` (the numpy module when raw integer columns are available
  through it, else None);
* ``observations(j)`` / ``outcome(j)`` -- materialised round views;
* ``dists(j)`` / ``colls(j)`` -- per-round observation columns as
  interned Fractions;
* ``dist_ints(j)`` / ``coll_ints(j)`` -- raw integer numerator columns
  (over ``scale`` and ``2 * scale`` respectively; ``-1`` encodes a
  ``coll() = None``), or None when the span was executed round by
  round;
* ``dist_ints_all()`` -- the whole span's dist numerators as one
  ``(k, n)`` matrix when the vectorised representation has one, else
  None (columnar harvests branch on it).

:class:`MaterialisedStretch` is the fallback implementation wrapping
plain :class:`~repro.types.RoundOutcome` values, used whenever the
backend executes the span one round at a time (Fraction and lattice
backends, cross-validated runs).

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
    List,
    Optional,
    Sequence,
    Tuple,
    cast,
)

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
    """Stretch outcome assembled from per-round outcomes (fallback).

    Supports incremental construction (:meth:`append`) so the scalar
    speculative path can evaluate the stop predicate after each
    executed round against the rounds materialised so far.
    """

    __slots__ = ("_outcomes", "n", "rotations", "collision_events")

    #: No raw integer columns on this implementation.
    np: ClassVar[None] = None
    scale: ClassVar[Optional[int]] = None

    def __init__(self, outcomes: Sequence[RoundOutcome] = ()) -> None:
        self._outcomes: List[RoundOutcome] = []
        self.n = 0
        self.rotations: List[int] = []
        self.collision_events = 0
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

    def dist_ints(self, j: int) -> Optional[Sequence[int]]:
        return None

    def coll_ints(self, j: int) -> Optional[Sequence[int]]:
        return None

    def dist_ints_all(self) -> Optional[Any]:
        return None
