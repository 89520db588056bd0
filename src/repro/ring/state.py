"""Ground-truth world state of a ring network.

:class:`RingState` holds what an omniscient observer knows: every agent's
exact position, its unique ID, and its private chirality.  Agents never
read this object -- the scheduler mediates all information flow through
:class:`repro.types.Observation` values.

Performance notes
-----------------

``RingState`` caches the clockwise gap array (and its prefix sums) so
that per-round consumers -- the closed-form ``coll()`` cascade and the
kinematics backends -- do not recompute them from positions every round.
The caches are invalidated whenever positions are written, and *rotated*
(O(n) pointer moves, no arithmetic) when a round result is committed:
by Lemma 1 a round only rotates which agent sits before which gap, so
the gap sequence itself merely shifts.

The shared denominator :attr:`scale` (the lcm of the position
denominators) is cached the same way.  Only a position write drops
it: a committed round rotates the positions (Lemma 1), which leaves
their lcm unchanged.

A monotonically increasing :attr:`version` counter is bumped on every
position write.  Kinematics backends (see :mod:`repro.ring.backends`)
snapshot the version after each round they commit and re-derive their
internal representation whenever the version moved underneath them
(e.g. after :meth:`restore` or a manual ``state.positions = ...``).

Positions must be replaced wholesale (``state.positions = [...]``);
mutating individual elements of the returned list bypasses cache
invalidation and is unsupported.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError
from repro.geometry import cw_arc, is_ring_ordered, normalize
from repro.types import Chirality


class RingState:
    """Positions, IDs and chiralities of the n agents, in ring order.

    Index ``i`` refers to the i-th agent in the (objective) clockwise
    ring order -- the paper's implicit periodic order a_1 .. a_n, shifted
    to be 0-based.  The ring order never changes because agents cannot
    overpass (collisions only exchange velocities).

    Attributes:
        positions: Current position of each agent, rationals in [0, 1),
            strictly increasing along the clockwise direction.
        ids: The unique identifier of each agent, a value in [1, N].
        chiralities: Each agent's private sense of direction.
        id_bound: The common knowledge bound N with ``N >= n``.
        initial_positions: Immutable copy of the starting positions.
        version: Bumped on every position write; lets kinematics
            backends detect external mutation and resynchronise.
    """

    __slots__ = (
        "_positions",
        "_lazy",
        "_n",
        "ids",
        "chiralities",
        "id_bound",
        "initial_positions",
        "version",
        "_gaps",
        "_prefix",
        "_scale",
    )

    def __init__(
        self,
        positions: List[Fraction],
        ids: List[int],
        chiralities: List[Chirality],
        id_bound: int,
    ) -> None:
        n = len(positions)
        if not (len(ids) == len(chiralities) == n):
            raise ConfigurationError(
                "positions, ids and chiralities must have equal length; got "
                f"{n}, {len(ids)}, {len(chiralities)}"
            )
        if n <= 4:
            raise ConfigurationError(
                f"the paper assumes n > 4 agents; got n={n}"
            )
        self._positions = [normalize(p) for p in positions]
        if not is_ring_ordered(self._positions):
            raise ConfigurationError(
                "positions must be distinct and listed in clockwise ring order"
            )
        if len(set(ids)) != n:
            raise ConfigurationError("agent IDs must be unique")
        if any(not (1 <= x <= id_bound) for x in ids):
            raise ConfigurationError(
                f"agent IDs must lie in [1, N] with N={id_bound}"
            )
        if id_bound < n:
            raise ConfigurationError(
                f"ID bound N={id_bound} must be at least n={n}"
            )
        self.ids = list(ids)
        self.chiralities = list(chiralities)
        self.id_bound = id_bound
        self.initial_positions = tuple(self._positions)
        self.version = 0
        self._n = n
        self._lazy = None
        self._gaps: Optional[List[Fraction]] = None
        self._prefix: Optional[List[Fraction]] = None
        self._scale: Optional[int] = None

    def _pos(self) -> List[Fraction]:
        """The live position list, materialising a lazy commit.

        After a fused stretch (see :meth:`commit_stretch`) the position
        list is a pending thunk; any read -- internal or external --
        builds it exactly once.  Materialisation is a read, so it does
        not bump :attr:`version`.
        """
        positions = self._positions
        if positions is None:
            positions = self._positions = self._lazy()
            self._lazy = None
        return positions

    @property
    def positions(self) -> List[Fraction]:
        """Current positions, in ring order.

        Returns a copy: in-place element writes would bypass cache
        invalidation (and backend resynchronisation) silently.  Replace
        wholesale (``state.positions = [...]``) to write.
        """
        return list(self._pos())

    @positions.setter
    def positions(self, value: Sequence[Fraction]) -> None:
        self._positions = [normalize(p) for p in value]
        self._invalidate()

    def _invalidate(self) -> None:
        self._lazy = None
        self._gaps = None
        self._prefix = None
        self._scale = None
        self.version += 1

    @property
    def scale(self) -> int:
        """The shared denominator ``D``: the lcm of the position
        denominators.

        Every position lies on ``Z/D`` for the whole run (rounds only
        rotate them), so every ``dist()`` is a numerator over ``D`` and
        every ``coll()`` a numerator over ``2D``, on every backend.
        """
        scale = self._scale
        if scale is None:
            scale = self._scale = math.lcm(
                *(p.denominator for p in self._pos())
            )
        return scale

    @property
    def n(self) -> int:
        """Number of agents on the ring."""
        return self._n

    @property
    def parity_even(self) -> bool:
        """Whether n is even (the only fact about n agents know a priori)."""
        return self.n % 2 == 0

    def _gaps_cached(self) -> List[Fraction]:
        """The cached clockwise gap array itself (callers must not mutate)."""
        if self._gaps is None:
            n = self.n
            pos = self._pos()
            self._gaps = [
                cw_arc(pos[i], pos[(i + 1) % n]) for i in range(n)
            ]
        return self._gaps

    def gaps(self) -> List[Fraction]:
        """Current clockwise gaps x_i between agent i and agent i+1.

        The multiset (indeed the cyclic sequence) of gaps is invariant
        under rounds; rounds merely rotate which agent sits before which
        gap (Lemma 1).  The array is cached between rounds.
        """
        return list(self._gaps_cached())

    def _prefix_cached(self) -> List[Fraction]:
        """The cached prefix-sum array itself (callers must not mutate)."""
        if self._prefix is None:
            gaps = self._gaps_cached()
            prefix = [Fraction(0)] * (len(gaps) + 1)
            for i, g in enumerate(gaps):
                prefix[i + 1] = prefix[i] + g
            self._prefix = prefix
        return self._prefix

    def gap_prefix(self) -> List[Fraction]:
        """Cached prefix sums of the gap array: ``prefix[i]`` is the
        clockwise arc from agent 0 to agent i; ``prefix[n] == 1``.
        Returns a copy (the cache itself must not be mutated)."""
        return list(self._prefix_cached())

    def initial_gaps(self) -> List[Fraction]:
        """Clockwise gaps of the *initial* configuration."""
        n = self.n
        return [
            cw_arc(self.initial_positions[i], self.initial_positions[(i + 1) % n])
            for i in range(n)
        ]

    def index_of_id(self, agent_id: int) -> int:
        """Ring index of the agent carrying ``agent_id``."""
        try:
            return self.ids.index(agent_id)
        except ValueError:
            raise ConfigurationError(f"no agent has ID {agent_id}") from None

    def apply_rotation(self, r: int) -> None:
        """Advance every agent by ``r`` ring places clockwise (Lemma 1).

        Agent i moves to the (pre-round) position of agent i+r.  Gaps
        travel with the positions, so the gap sequence seen from a fixed
        agent shifts by r.
        """
        n = self.n
        old = self._pos()
        self.commit_round([old[(i + r) % n] for i in range(n)], r)

    def commit_round(self, final: Sequence[Fraction], r: int) -> None:
        """Fast-path position write used by kinematics backends.

        ``final`` must be a freshly built list of the post-round
        positions (already canonical representatives in [0, 1), already
        ring ordered; ownership transfers to the state) and ``r`` the
        round's rotation index.  The gap cache is rotated rather than
        invalidated; the prefix cache cannot be rotated and is dropped.
        """
        self._positions = final if isinstance(final, list) else list(final)
        self._lazy = None
        gaps = self._gaps
        if gaps is not None and r:
            n = len(gaps)
            self._gaps = [gaps[(i + r) % n] for i in range(n)]
        self._prefix = None
        self.version += 1

    def commit_stretch(self, materialise, rounds: int, r_total: int) -> None:
        """Lazy position write used by fused-stretch backends.

        ``materialise`` builds the post-span position list (canonical,
        ring-ordered) on demand; nothing is allocated until something
        actually reads :attr:`positions` -- restore spans typically end
        where they began and are never read.  ``rounds`` spans were
        executed with cumulative rotation ``r_total``; the version
        counter advances by ``rounds`` so that per-round observers stay
        monotonic, and the gap cache rotates by the cumulative rotation
        exactly as ``rounds`` individual commits would have rotated it.
        """
        self._positions = None
        self._lazy = materialise
        gaps = self._gaps
        r = r_total % self._n
        if gaps is not None and r:
            n = len(gaps)
            self._gaps = [gaps[(i + r) % n] for i in range(n)]
        self._prefix = None
        self.version += rounds

    def snapshot(self) -> Tuple[Fraction, ...]:
        """Immutable copy of the current positions."""
        return tuple(self._pos())

    def restore(self, snapshot: Sequence[Fraction]) -> None:
        """Reset positions to a previously taken snapshot."""
        if len(snapshot) != self.n:
            raise ConfigurationError("snapshot length mismatch")
        self.positions = list(snapshot)
