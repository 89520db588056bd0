"""Shared conventions and result types for the protocol suite."""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.agent import AgentView
from repro.exceptions import ProtocolError
from repro.types import LocalDirection

# Memory keys shared across protocols.  A key's value is always written
# by the protocol that owns the phase and read by later phases.
KEY_FRAME_FLIP = "frame.flip"          # bool: does my RIGHT differ from the
                                       # agreed common clockwise?
KEY_LEADER = "leader.is_leader"        # bool
KEY_NMOVE_DIR = "nmove.dir"            # LocalDirection giving a nontrivial move
KEY_LABEL = "ringdist.label"           # int: right ring distance from leader
KEY_RING_SIZE = "ld.n"                 # int: n, once published
KEY_LD_GAPS = "ld.gaps"                # list[Fraction]: gaps from own slot


def aligned_direction(view: AgentView, common: LocalDirection) -> LocalDirection:
    """Translate a direction in the agreed common frame into the agent's
    local frame, honouring the flip decided during direction agreement."""
    if common is LocalDirection.IDLE:
        return LocalDirection.IDLE
    if view.memory.get(KEY_FRAME_FLIP, False):
        return common.opposite()
    return common


def common_dist(view: AgentView, dist: Fraction) -> Fraction:
    """Convert a ``dist()`` observation from the agent's own clockwise
    frame into the agreed common clockwise frame."""
    if not view.memory.get(KEY_FRAME_FLIP, False):
        return dist
    return (Fraction(1) - dist) if dist != 0 else Fraction(0)


@dataclass
class CoordinationResult:
    """Outcome of solving the coordination problems on a ring.

    Attributes:
        rounds: Total rounds consumed.
        leader_id: The elected leader's ID (None if leader election was
            not part of the requested pipeline).
        rounds_by_phase: Round counts per phase name, for benchmarks.
    """

    rounds: int
    leader_id: Optional[int] = None
    rounds_by_phase: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready payload (consumed by RunReport and ``--json``)."""
        return {
            "kind": "coordination",
            "rounds": self.rounds,
            "leader_id": self.leader_id,
            "rounds_by_phase": dict(self.rounds_by_phase),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CoordinationResult":
        """Inverse of :meth:`to_dict` (the run-cache fetch path)."""
        leader = data.get("leader_id")
        return cls(
            rounds=int(data["rounds"]),  # type: ignore[arg-type]
            leader_id=None if leader is None else int(leader),  # type: ignore[arg-type]
            rounds_by_phase={
                str(name): int(rounds)  # type: ignore[arg-type]
                for name, rounds in dict(data["rounds_by_phase"]).items()  # type: ignore[arg-type]
            },
        )


def rotation_sign(base: Sequence[object], row: Sequence[object],
                  i: int = 1) -> Optional[int]:
    """The direction ``row`` is ``base`` rotated in, ``i`` places.

    +1 when ``row`` is ``base`` rotated left by ``i`` places (its entry
    k is ``base[k + i]``) and -1 when it is ``base`` rotated right by
    ``i``.  None when it is neither (a doctored row, or one of another
    length) or both (the two rotations coincide).  Agent i's gap vector
    is agent 0's rotated left by i when the common frame runs with the
    ring's index order, right by i when it runs against it.
    """
    base, row = list(base), list(row)
    width = len(base)
    if len(row) != width:
        return None
    k = i % width if width else 0
    doubled = base + base
    left = row == doubled[k:k + width]
    right = row == doubled[width - k:2 * width - k]
    if left == right:
        return None
    return 1 if left else -1


def rotations_coincide(base: Sequence[object]) -> bool:
    """Whether ``base`` rotated left and right by i places agree for
    every i (it is invariant under a rotation by two places), so that
    no row can pick a rotation sign."""
    base = list(base)
    width = len(base)
    k = 2 % width if width else 0
    return base == (base + base)[k:k + width]


def _rotation_split(rows: Iterable[Sequence[object]]
                    ) -> Tuple[List[object], int, int, Dict[int, List[object]]]:
    """``(row 0, row count, sign, outliers)`` of any rows.

    The first row i >= 1 that is row 0 rotated by exactly one of +i and
    -i picks the sign (:func:`rotation_sign`; +1 when no row does).
    Every row is compared with the rotation of row 0 by ``sign * i`` as
    one list compare, and a row that differs is kept among the
    outliers.  A row before the deciding one is a rotation by neither
    (an outlier under either sign) or by both (under neither).
    """
    it = iter(rows)
    first = next(it, None)
    if first is None:
        return [], 0, 1, {}
    base = list(first)
    width = len(base)
    doubled = base + base
    sign: Optional[int] = 1 if rotations_coincide(base) else None
    outliers: Dict[int, List[object]] = {}
    count = 1
    for i, row in enumerate(it, 1):
        row = row if type(row) is list else list(row)
        count += 1
        if sign is None:
            sign = rotation_sign(base, row, i)
            if sign is None:
                k = i % width
                if row != doubled[k:k + width]:
                    outliers[i] = row
                continue
        k = (sign * i) % width if width else 0
        if row != doubled[k:k + width]:
            outliers[i] = row
    return base, count, sign or 1, outliers


class GapRows(SequenceABC):
    """Every agent's gap vector, held as one base row plus rotations.

    In the agreed common frame, agent i's gap vector is agent 0's
    rotated left by ``sign * i`` places.  ``sign`` is +1 when the
    common clockwise runs with the ring's index order, and -1 when it
    runs against it.  So the rows are stored in three parts:

    * ``base``: row 0, one list of interned :class:`Fraction` values;
    * ``sign``: the direction of the rotation;
    * the *outliers*: the agents whose vector is not that rotation (a
      doctored run, say), each with its own row.

    The container is read-only.  Every row it hands out is a fresh
    list, a slice of the doubled base, and it compares equal (from
    either side) to the list of lists it stands for.

    :meth:`from_rows` builds one from any rows, and :meth:`from_strings`
    from :meth:`to_strings` output; the sweeps' integer harvest builds
    one directly, after checking the rotations on its numerators.
    """

    __slots__ = ("_doubled", "_width", "_count", "_sign", "_outliers")

    def __init__(
        self,
        base: Sequence[Fraction] = (),
        count: Optional[int] = None,
        sign: int = 1,
        outliers: Optional[Dict[int, Sequence[Fraction]]] = None,
    ) -> None:
        base = list(base)
        count = len(base) if count is None else count
        if sign not in (1, -1):
            raise ValueError(f"rotation sign must be 1 or -1, not {sign!r}")
        rows = {i: list(row) for i, row in (outliers or {}).items()}
        if any(not 0 < i < count for i in rows):
            raise ValueError(f"outlier agents must lie in 1..{count - 1}")
        self._doubled: List[Fraction] = base + base
        self._width = len(base)
        self._count = count
        self._sign = sign
        self._outliers: Dict[int, List[Fraction]] = rows

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[Fraction]]) -> "GapRows":
        """The reference constructor: any rows, rotations or not.

        Each row is compared with its rotation of row 0 as one list
        compare (interned values mostly stop at identity); a row that
        differs becomes an outlier, so ``from_rows(rows) == rows``.
        """
        base, count, sign, outliers = _rotation_split(rows)
        return cls(base, count, sign, outliers)  # type: ignore[arg-type]

    @classmethod
    def from_strings(cls, rows: Iterable[Sequence[object]]) -> "GapRows":
        """Parse ``"p/q"`` rows (:meth:`to_strings` output).

        Row 0 parses once.  Every other row's strings are compared with
        the rotation of row 0's, and only a row that differs is parsed
        on its own; equal strings share one :class:`Fraction`.
        """
        base, count, sign, outliers = _rotation_split(rows)
        values: Dict[object, Fraction] = {}

        def parse(texts: List[object]) -> List[Fraction]:
            out = []
            for text in texts:
                value = values.get(text)
                if value is None:
                    value = values[text] = Fraction(str(text))
                out.append(value)
            return out

        return cls(
            parse(base), count, sign,
            {i: parse(row) for i, row in outliers.items()},
        )

    @property
    def base(self) -> List[Fraction]:
        """Row 0 (a fresh list)."""
        return self._doubled[:self._width]

    @property
    def sign(self) -> int:
        """+1 or -1: row i is ``base`` rotated left by ``sign * i``."""
        return self._sign

    @property
    def outliers(self) -> frozenset:
        """The agents whose row is not the rotation of ``base``."""
        return frozenset(self._outliers)

    def to_strings(self) -> List[List[str]]:
        """Every row as exact ``"p/q"`` strings.

        The base row renders once and each rotation is a slice of it
        (the same rows over the rendered values), so the rows share at
        most ``len(base)`` string objects besides the outliers' own.
        """
        rendered = GapRows(
            [str(g) for g in self.base], self._count, self._sign,
            {i: [str(g) for g in row] for i, row in self._outliers.items()},
        )
        return list(rendered)  # type: ignore[arg-type]

    def _row(self, i: int) -> List[Fraction]:
        row = self._outliers.get(i)
        if row is not None:
            return list(row)
        width = self._width
        k = (self._sign * i) % width if width else 0
        return self._doubled[k:k + width]

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return [self._row(i) for i in range(*index.indices(self._count))]
        i = index.__index__()
        if i < 0:
            i += self._count
        if not 0 <= i < self._count:
            raise IndexError("gap row index out of range")
        return self._row(i)

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[List[Fraction]]:
        return (self._row(i) for i in range(self._count))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GapRows):
            if (
                self._count == other._count
                and self._sign == other._sign
                and self._doubled == other._doubled
                and self._outliers == other._outliers
            ):
                return True
        elif not isinstance(other, (list, tuple)):
            return NotImplemented
        return len(other) == self._count and all(
            mine == theirs for mine, theirs in zip(self, other)
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"GapRows(base={self.base!r}, count={self._count}, "
            f"sign={self._sign}, outliers={self._outliers!r})"
        )


class GapRowView(SequenceABC):
    """Row ``i`` of a :class:`GapRows`, as one agent's ``ld.gaps`` value.

    The list is sliced on first access and cached.  The view compares
    (and hashes) like the equivalent plain list, so consumers of the
    ``ld.gaps`` column keep working unchanged, and the collect hands
    back the :class:`GapRows` itself when every cell is its own view.
    """

    __slots__ = ("rows", "index", "_cells")

    def __init__(self, rows: GapRows, index: int) -> None:
        self.rows = rows
        self.index = index
        self._cells: Optional[List[Fraction]] = None

    def _materialise(self) -> List[Fraction]:
        cells = self._cells
        if cells is None:
            cells = self._cells = self.rows[self.index]
        return cells

    def __getitem__(self, index):  # type: ignore[override]
        return self._materialise()[index]

    def __len__(self) -> int:
        return len(self._materialise())

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self._materialise())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (GapRowView, tuple, list)):
            return self._materialise() == list(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self._materialise()))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return repr(self._materialise())


@dataclass
class LocationDiscoveryResult:
    """Outcome of location discovery.

    Attributes:
        rounds: Total rounds consumed (including coordination phases).
        rounds_by_phase: Round counts per phase name.
        gaps_by_agent: For each ring index i (harness-side bookkeeping),
            the gap vector that agent reconstructed, expressed in the
            common frame starting from its own slot: entry k is the arc
            from the k-th agent to the (k+1)-th agent, counting common-
            clockwise from the reconstructing agent itself.  Held as a
            read-only :class:`GapRows` (one base row plus rotations; any
            rows passed in are converted): each row read is a fresh
            list, and the whole compares equal to the list of lists.
    """

    rounds: int
    rounds_by_phase: Dict[str, int] = field(default_factory=dict)
    gaps_by_agent: GapRows = field(default_factory=GapRows)

    def __post_init__(self) -> None:
        if not isinstance(self.gaps_by_agent, GapRows):
            self.gaps_by_agent = GapRows.from_rows(self.gaps_by_agent)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready payload (consumed by RunReport and ``--json``).

        Gaps are exact ``"p/q"`` strings -- floats would destroy the
        bit-exactness the cross-backend tests rely on.  Each distinct
        value renders once (:meth:`GapRows.to_strings`).
        """
        return {
            "kind": "location_discovery",
            "rounds": self.rounds,
            "rounds_by_phase": dict(self.rounds_by_phase),
            "gaps_by_agent": self.gaps_by_agent.to_strings(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "LocationDiscoveryResult":
        """Inverse of :meth:`to_dict` (the run-cache fetch path).

        ``"p/q"`` strings parse back to exact :class:`Fraction` values,
        so a fetched result round-trips byte-identically through
        :meth:`to_dict`; rows that are rotations of row 0 are not
        parsed again (:meth:`GapRows.from_strings`).
        """
        return cls(
            rounds=int(data["rounds"]),  # type: ignore[arg-type]
            rounds_by_phase={
                str(name): int(rounds)  # type: ignore[arg-type]
                for name, rounds in dict(data["rounds_by_phase"]).items()  # type: ignore[arg-type]
            },
            gaps_by_agent=GapRows.from_strings(
                data["gaps_by_agent"]  # type: ignore[arg-type]
            ),
        )


@dataclass
class ContentionResult:
    """Outcome of a contention-channel (medium access) protocol run.

    Attributes:
        rounds: Total ring rounds consumed (each channel slot costs two
            physical rounds -- a probe and its restoring reverse; fused
            idle runs cost two rounds per fused slot).
        rounds_by_phase: Round counts per phase name.
        slots: Channel slots simulated (idle, busy and collision slots).
        attempts: Total transmission attempts across all agents.
        collisions: Slots adjudicated as collisions.
        lost: Transmissions dropped by the loss model (ALOHA only).
        delivered_order: Agent slots in the order their message got
            through the channel.
        undelivered: Agent slots whose message never got through (e.g.
            crash-stopped transmitters under a fault plan) -- the
            partial-result surface of the graceful-degradation
            contract.
    """

    rounds: int
    rounds_by_phase: Dict[str, int] = field(default_factory=dict)
    slots: int = 0
    attempts: int = 0
    collisions: int = 0
    lost: int = 0
    delivered_order: List[int] = field(default_factory=list)
    undelivered: List[int] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready payload (consumed by RunReport and ``--json``)."""
        return {
            "kind": "contention",
            "rounds": self.rounds,
            "rounds_by_phase": dict(self.rounds_by_phase),
            "slots": self.slots,
            "attempts": self.attempts,
            "collisions": self.collisions,
            "lost": self.lost,
            "delivered_order": list(self.delivered_order),
            "undelivered": list(self.undelivered),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ContentionResult":
        """Inverse of :meth:`to_dict` (the run-cache fetch path)."""
        return cls(
            rounds=int(data["rounds"]),  # type: ignore[arg-type]
            rounds_by_phase={
                str(name): int(rounds)  # type: ignore[arg-type]
                for name, rounds in dict(data["rounds_by_phase"]).items()  # type: ignore[arg-type]
            },
            slots=int(data["slots"]),  # type: ignore[arg-type]
            attempts=int(data["attempts"]),  # type: ignore[arg-type]
            collisions=int(data["collisions"]),  # type: ignore[arg-type]
            lost=int(data["lost"]),  # type: ignore[arg-type]
            delivered_order=[int(s) for s in data["delivered_order"]],  # type: ignore[union-attr]
            undelivered=[int(s) for s in data["undelivered"]],  # type: ignore[union-attr]
        )


#: Result classes by their ``to_dict()["kind"]`` discriminator.
_RESULT_KINDS = {
    "contention": ContentionResult,
    "coordination": CoordinationResult,
    "location_discovery": LocationDiscoveryResult,
}


def result_from_dict(data: Dict[str, object]) -> object:
    """Rebuild a protocol result object from its ``to_dict`` payload.

    The run cache stores results as their JSON payloads; this is the
    dispatcher that turns a fetched payload back into the object
    :meth:`RingSession.run <repro.api.session.RingSession.run>` would
    have returned.
    """
    kind = data.get("kind")
    cls = _RESULT_KINDS.get(str(kind))
    if cls is None:
        known = ", ".join(sorted(_RESULT_KINDS))
        raise ProtocolError(
            f"unknown result kind {kind!r} in stored payload; known: {known}"
        )
    return cls.from_dict(data)
