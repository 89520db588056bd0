"""Columnar population state: one array per memory key, not one dict
per agent.

Historically every :class:`~repro.core.agent.AgentView` owned a private
``memory`` dict, so whole-population protocol steps paid one dict lookup
per agent per key per round.  :class:`Population` turns that layout on
its side: the scheduler owns a single store of *columns* -- for each
memory key, one list indexed by agent slot -- and each view's ``memory``
becomes a :class:`MemorySlot`, a thin mapping adapter that reads and
writes its own slot of the shared columns.  Per-agent protocol code is
unchanged; native whole-population policies
(:mod:`repro.protocols.policies`) bypass the adapter entirely and work
on the raw column lists.

The slot adapter preserves dict semantics exactly (``in``, ``get``,
``pop``, ``setdefault``, iteration over the keys *this* slot has set,
equality with plain dicts), so the columnar store is invisible to
legacy per-agent drivers -- which is what the native-vs-callback
equivalence tests rely on.

Information-flow note: a column holds only what the matching per-agent
dicts used to hold; the anonymity contract (nothing may be derived from
an agent's slot index) is unchanged and still rests on the protocols.
"""

from __future__ import annotations

from collections.abc import MutableMapping, Sequence as SequenceABC
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from repro.types import Observation

#: Sentinel for "this slot has not set this key" (``None`` is a real,
#: storable value for several protocol keys, e.g. ``ringdist.label``).
MISSING = type("_Missing", (), {"__repr__": lambda self: "<missing>"})()


class LazyObsRow(SequenceABC):
    """One round's observations, materialised only when read.

    Wraps a stretch outcome (see :mod:`repro.ring.stretch`) and a round
    index; the per-agent :class:`~repro.types.Observation` tuple is
    built on first access and cached (on the stretch outcome, so rows
    shared between the history and ``last_obs`` materialise once).
    Restore rounds of a fused span are typically never read, so they
    never materialise at all.
    """

    __slots__ = ("_result", "_j")

    def __init__(self, result, j: int) -> None:
        self._result = result
        self._j = j

    def _cells(self):
        return self._result.observations(self._j)

    def __getitem__(self, index):
        return self._cells()[index]

    def __len__(self) -> int:
        return self._result.n

    def __iter__(self):
        return iter(self._cells())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (LazyObsRow, tuple, list)):
            return tuple(self._cells()) == tuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self._cells()))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return repr(tuple(self._cells()))


class RoundHistory:
    """All executed rounds' observation rows, in round order.

    The scheduler appends one *row* (slot-indexed observation sequence)
    per executed round -- a materialised tuple on the scalar path, a
    :class:`LazyObsRow` for fused stretches.  Agent logs are
    per-slot column views over this store (:class:`AgentLog`), so
    recording a round is O(1) instead of one append per agent.
    """

    __slots__ = ("_rows",)

    def __init__(self) -> None:
        self._rows: List[Sequence[Observation]] = []

    def __len__(self) -> int:
        return len(self._rows)

    def append(self, row: Sequence[Observation]) -> None:
        self._rows.append(row)

    def row(self, r: int) -> Sequence[Observation]:
        return self._rows[r]


class AgentLog(SequenceABC):
    """One agent's observation log: a slot column over the history.

    List-compatible for everything protocols and tests do with logs
    (indexing, iteration, ``len``, equality with lists); reading an
    entry of a fused-stretch round materialises that round's row once,
    shared across all agents.
    """

    __slots__ = ("_history", "_slot")

    def __init__(self, history: RoundHistory, slot: int) -> None:
        self._history = history
        self._slot = slot

    def __len__(self) -> int:
        return len(self._history)

    def __getitem__(self, index):
        rows = self._history._rows
        if isinstance(index, slice):
            return [row[self._slot] for row in rows[index]]
        return rows[index][self._slot]

    def __iter__(self):
        slot = self._slot
        for row in self._history._rows:
            yield row[slot]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (AgentLog, list, tuple)):
            if len(self) != len(other):
                return False
            return all(a == b for a, b in zip(self, other))
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return repr(list(self))


class Population:
    """Columnar store of all agents' protocol memory plus the latest
    round's observations.

    Attributes:
        n: Number of agents (column length).
        ids: Agent IDs in view order (the same values each view exposes
            as ``agent_id``; kept here so native policies can build
            whole direction vectors without touching views).
        id_bound: The common ID bound N.
        parity_even: The public parity bit.
        last_obs: The most recent round's observations in slot order, or
            ``None`` before the first round.  Updated by the scheduler
            after every executed round; native policies read their
            ``dist``/``coll`` columns from it.
    """

    __slots__ = ("n", "ids", "id_bound", "parity_even", "_columns",
                 "last_obs", "history")

    def __init__(
        self,
        n: int,
        ids: Sequence[int],
        id_bound: int,
        parity_even: bool,
    ) -> None:
        if len(ids) != n:
            raise ValueError(f"{len(ids)} ids for {n} slots")
        self.n = n
        self.ids: List[int] = list(ids)
        self.id_bound = id_bound
        self.parity_even = parity_even
        self._columns: Dict[str, List[Any]] = {}
        self.last_obs: Optional[Sequence[Observation]] = None
        self.history = RoundHistory()

    # -- scheduler interface --------------------------------------------

    def slot(self, index: int) -> "MemorySlot":
        """The per-agent mapping adapter for slot ``index``."""
        if not 0 <= index < self.n:
            raise IndexError(f"slot {index} out of range for n={self.n}")
        return MemorySlot(self, index)

    def log_view(self, index: int) -> AgentLog:
        """The per-agent log view for slot ``index``."""
        return AgentLog(self.history, index)

    def observe(self, observations: Sequence[Observation]) -> None:
        """Record the latest round's observations (slot order)."""
        self.last_obs = observations

    def record_round(self, observations: Sequence[Observation]) -> None:
        """File one executed round: history row plus ``last_obs``."""
        self.history.append(observations)
        self.last_obs = observations

    def record_stretch(self, result) -> None:
        """File a fused stretch: one lazy history row per round."""
        history = self.history
        row = None
        for j in range(result.k):
            row = LazyObsRow(result, j)
            history.append(row)
        if row is not None:
            self.last_obs = row

    # -- column interface (native policies) -----------------------------

    def column(self, key: str) -> List[Any]:
        """The raw column for ``key`` (shared, mutable; cells may be
        :data:`MISSING`).  Raises ``KeyError`` if no slot ever set it."""
        return self._columns[key]

    def get_column(self, key: str, default: Any = None) -> Optional[List[Any]]:
        """The raw column for ``key``, or ``default`` if absent."""
        return self._columns.get(key, default)

    def set_column(self, key: str, values: Sequence[Any]) -> List[Any]:
        """Replace the whole column for ``key`` with ``values``."""
        values = list(values)
        if len(values) != self.n:
            raise ValueError(
                f"column {key!r}: {len(values)} values for {self.n} slots"
            )
        self._columns[key] = values
        return values

    def fill(self, key: str, value: Any) -> List[Any]:
        """Set every slot of ``key`` to the same (immutable) value."""
        column = [value] * self.n
        self._columns[key] = column
        return column

    def fill_with(self, key: str, factory: Callable[[], Any]) -> List[Any]:
        """Set every slot of ``key`` to a fresh ``factory()`` value (for
        mutable cells such as per-agent accumulator lists)."""
        column = [factory() for _ in range(self.n)]
        self._columns[key] = column
        return column

    def drop(self, key: str) -> None:
        """Remove a column entirely (missing key is a no-op)."""
        self._columns.pop(key, None)

    def has_column(self, key: str) -> bool:
        """Whether any slot has ever set ``key``."""
        return key in self._columns

    def all_set(self, key: str) -> bool:
        """Whether *every* slot currently holds a value for ``key``."""
        column = self._columns.get(key)
        if column is None:
            return False
        return all(cell is not MISSING for cell in column)

    def first_unset(self, key: str) -> Optional[int]:
        """The lowest slot index missing ``key``, or None if all set
        (used to mirror legacy per-agent precondition error messages)."""
        column = self._columns.get(key)
        if column is None:
            return 0 if self.n else None
        for i, cell in enumerate(column):
            if cell is MISSING:
                return i
        return None


class MemorySlot(MutableMapping):
    """Dict-compatible view of one agent's slot across all columns.

    ``memory[key]`` reads ``population.column(key)[slot]``; setting a
    key creates the column on demand.  Iteration yields only the keys
    this slot has actually set, so ``dict(view.memory)`` looks exactly
    like the per-agent dict it replaces.
    """

    __slots__ = ("_population", "_slot")

    def __init__(self, population: Population, slot: int) -> None:
        self._population = population
        self._slot = slot

    def __getitem__(self, key: str) -> Any:
        column = self._population._columns.get(key)
        if column is None:
            raise KeyError(key)
        value = column[self._slot]
        if value is MISSING:
            raise KeyError(key)
        return value

    def __setitem__(self, key: str, value: Any) -> None:
        population = self._population
        column = population._columns.get(key)
        if column is None:
            column = population._columns[key] = [MISSING] * population.n
        column[self._slot] = value

    def __delitem__(self, key: str) -> None:
        column = self._population._columns.get(key)
        if column is None or column[self._slot] is MISSING:
            raise KeyError(key)
        column[self._slot] = MISSING

    def __iter__(self) -> Iterator[str]:
        slot = self._slot
        for key, column in self._population._columns.items():
            if column[slot] is not MISSING:
                yield key

    def __len__(self) -> int:
        slot = self._slot
        return sum(
            1
            for column in self._population._columns.values()
            if column[slot] is not MISSING
        )

    def __contains__(self, key: object) -> bool:
        column = self._population._columns.get(key)
        return column is not None and column[self._slot] is not MISSING

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MemorySlot):
            return dict(self) == dict(other)
        if isinstance(other, dict):
            return dict(self) == other
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __repr__(self) -> str:
        return repr(dict(self))
