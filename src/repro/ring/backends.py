"""Pluggable kinematics backends: exact Fractions vs. integer columns.

A *kinematics backend* owns the arithmetic of round execution.  Given a
:class:`~repro.ring.state.RingState` and the objective velocities of
one round it produces the full :class:`~repro.types.RoundOutcome`
(per-agent ``dist()``/``coll()`` observations, the rotation index, the
collision-event count) and commits the post-round positions back to the
state.  :class:`~repro.ring.simulator.RingSimulator` delegates every
round to its backend, and the two user-facing backends are
property-tested to produce bit-identical outcomes:

* :class:`FractionBackend` (``"fraction"``) -- the executable spec.
  All positions, gaps and collision arcs are
  :class:`fractions.Fraction` values; every addition pays a gcd.  Kept
  both as the semantics anchor and for states whose positions would
  induce an awkwardly large common denominator.

* :class:`ArrayBackend` (``"array"``, the default) -- single rounds
  in integer arithmetic on the scalar path it inherits from
  :class:`LatticeBackend`, plus whole *fused stretches* (probe/restore
  pairs, bit-exchange frames, ``run_fixed`` batches -- see
  :mod:`repro.ring.stretch`) advanced in one closed-form step over
  numpy int64 columns (stdlib :mod:`array` buffers when numpy is
  absent -- see :mod:`repro.ring.arrayops`) and memoised by (velocity
  rows, rotation offset).

:class:`LatticeBackend` is array's scalar base class, not a
user-facing choice (:func:`make_backend` does not resolve it by name);
the shootouts time it as the scalar integer baseline.  At attach time
it rescales all positions to integers over the single common
denominator ``D`` (the lcm of the position denominators).  Velocities
are in {-1, 0, +1} and rounds last one unit, so every reachable
end-of-round position stays on the lattice ``Z/D`` forever (Lemma 1:
rounds merely rotate the position multiset), and every collision
time/place within a round lands on ``Z/(2D)`` (token crossings meet at
half-gaps).  The scalar path therefore tracks one shared scale integer
instead of per-value gcds, and each round is pure integer arithmetic:

- positions are never rebuilt: a single rotation ``offset`` into the
  frozen base arrays replaces per-round list rebuilds, and the
  committed position list reuses the original ``Fraction`` objects;
- gap and prefix-sum arrays over the base slots are computed once at
  attach and never again (the gap *sequence* only rotates);
- per-velocity-pattern derivations (rotation index, nearest-opposite
  hop counts) and per-rotation displacement arcs are memoised, so
  batched execution of repeating rounds does no re-derivation;
- ``Fraction`` and :class:`~repro.types.Observation` objects are
  interned by integer numerator, so repeated observations cost one
  dictionary lookup instead of a gcd plus two allocations;
- when the event engine is needed (cross-validation, or lazy rounds
  under a collision-reporting model) it runs in integer tick space
  (:func:`~repro.ring.collisions.simulate_collisions_ticks`).

Backends hold derived state, so they detect external position writes
(``restore()``, manual assignment) through ``RingState.version`` and
resynchronise automatically.
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.exceptions import SimulationError
from repro.geometry import ccw_arc, cw_arc
from repro.ring.collisions import (
    simulate_collisions,
    simulate_collisions_ticks,
)
from repro.ring.kinematics import (
    first_collisions_basic,
    hops_to_opposite,
    rotation_index,
)
from repro.ring.state import RingState
from repro.types import Chirality, Observation, RoundOutcome

#: Backend used when none is requested explicitly.
DEFAULT_BACKEND = "array"

#: Names :func:`make_backend` recognises (the CLI choices derive from
#: this -- extend it when registering a new backend).
BACKEND_NAMES = ("fraction", "array")

BackendSpec = Union[None, str, "KinematicsBackend"]


class KinematicsBackend(ABC):
    """Executes rounds against an attached :class:`RingState`."""

    name: str = "abstract"

    def __init__(self) -> None:
        self.state: Optional[RingState] = None

    def attach(self, state: RingState) -> None:
        """Bind the backend to a world state (derives internal caches).

        A backend instance serves exactly one world: silently re-pointing
        a shared instance would make one simulator mutate another's
        state.
        """
        if self.state is not None and self.state is not state:
            raise SimulationError(
                "backend is already attached to a different RingState; "
                "create one backend instance per simulator"
            )
        self.state = state

    @abstractmethod
    def execute_round(
        self,
        velocities: Sequence[int],
        need_coll: bool,
        cross_validate: bool = False,
    ) -> RoundOutcome:
        """Run one unit round and commit the result to the state.

        Args:
            velocities: Objective per-agent velocities in {-1, 0, +1}.
            need_coll: Whether ``coll()`` observations must be produced
                (the perceptive model).  Event simulation is skipped
                whenever the round provably does not need it: closed
                forms cover all-moving rounds, and no-collision rounds
                are recognised from the velocity pattern alone.
            cross_validate: Additionally run the event-driven engine and
                assert it agrees with the closed form (slow; tests).
        """


def make_backend(spec: BackendSpec) -> "KinematicsBackend":
    """Resolve a backend spec: an instance, a name, or None (default).

    Recognised names: ``"fraction"`` and ``"array"`` (default).
    """
    if isinstance(spec, KinematicsBackend):
        return spec
    if spec is None:
        spec = DEFAULT_BACKEND
    if spec == "fraction":
        return FractionBackend()
    if spec == "array":
        return ArrayBackend()
    raise SimulationError(
        f"unknown kinematics backend {spec!r}; expected one of "
        f"{', '.join(repr(n) for n in BACKEND_NAMES)}, or a "
        "KinematicsBackend instance"
    )


def _dist_row_pair(
    prefix: List[int],
    scale: int,
    r: int,
    memo: Dict[int, Tuple[List[int], List[int]]],
) -> Tuple[List[int], List[int]]:
    """Per-slot ``dist()`` numerators of a rotation-r round over the
    slot prefix sums ``prefix``, in both frames ``(clockwise_row,
    anticlockwise_row)``, memoised in ``memo`` (which must belong to
    the same prefix sums)."""
    rows = memo.get(r)
    if rows is None:
        n = len(prefix) - 1
        cw = [
            prefix[s + r] - prefix[s] if s + r <= n
            else scale - prefix[s] + prefix[s + r - n]
            for s in range(n)
        ]
        ccw = [scale - a if a else 0 for a in cw]
        rows = memo[r] = (cw, ccw)
    return rows


def _intern(table: Dict[int, Fraction], numerator: int,
            denominator: int) -> Fraction:
    """``Fraction(numerator, denominator)``, one object per numerator.

    ``table`` belongs to one denominator: a backend keeps one per
    scale (replaced, never cleared, on a resync) and a fused span
    keeps the ones it executed under, so a late read interns through
    the scale its numerators are over.
    """
    value = table.get(numerator)
    if value is None:
        value = table[numerator] = Fraction(numerator, denominator)
    return value


def _coll_spec(velocities: Sequence[int]) -> List[Tuple[int, int]]:
    """Per agent of an idle-free mixed round, ``(rel, hops)``: its
    first-collision arc spans ``hops`` slots starting ``rel`` slots from
    its own (clockwise movers look ahead from their slot, anticlockwise
    movers from ``hops`` slots behind)."""
    return [
        (0, h) if velocities[i] > 0 else (-h, h)
        for i, h in enumerate(hops_to_opposite(velocities))
    ]


class FractionBackend(KinematicsBackend):
    """Reference backend: exact :class:`fractions.Fraction` arithmetic."""

    name = "fraction"

    def execute_round(
        self,
        velocities: Sequence[int],
        need_coll: bool,
        cross_validate: bool = False,
    ) -> RoundOutcome:
        state = self.state
        n = state.n
        start = state._pos()  # internal read; never mutated here
        r = rotation_index(velocities, n)
        has_idle = any(v == 0 for v in velocities)
        need_events = cross_validate or (need_coll and has_idle)

        coll: List[Optional[Fraction]] = [None] * n
        events = 0
        if need_coll and not has_idle:
            coll = first_collisions_basic(
                start, velocities, prefix=state._prefix_cached()
            )
        final_closed = [start[(i + r) % n] for i in range(n)]
        if need_events:
            traces, events = simulate_collisions(start, velocities)
            final_event = [tr.final_position for tr in traces]
            if need_coll:
                coll_event = [tr.coll_distance for tr in traces]
                if not has_idle and coll_event != coll:
                    raise SimulationError(
                        "closed-form and event-driven first collisions "
                        f"disagree: closed={coll} event={coll_event}"
                    )
                coll = coll_event
            if final_event != final_closed:
                raise SimulationError(
                    "closed-form and event-driven final positions disagree "
                    f"(rotation index {r}); closed={final_closed} "
                    f"event={final_event}"
                )

        chir = state.chiralities
        observations = tuple(
            Observation(
                dist=(
                    cw_arc(start[i], final_closed[i])
                    if chir[i] is Chirality.CLOCKWISE
                    else ccw_arc(start[i], final_closed[i])
                ),
                coll=coll[i],
            )
            for i in range(n)
        )

        state.commit_round(final_closed, r)
        return RoundOutcome(
            observations=observations,
            rotation_index=r,
            collision_events=events,
        )


class LatticeBackend(KinematicsBackend):
    """Integer-lattice rounds: one shared denominator, int arithmetic.

    :class:`ArrayBackend`'s scalar base class and the shootouts' scalar
    baseline; not resolvable by name.  See the module docstring for the
    representation.  All arcs are
    integer numerators over the shared scale ``D`` (positions, dists)
    or ``2D`` (first-collision arcs); the event engine runs on a
    ``1/(4D)`` tick grid so that tentative heap entries stay integral.
    """

    name = "lattice"

    def attach(self, state: RingState) -> None:
        super().attach(state)
        self._sync()

    def _sync(self) -> None:
        """(Re)derive the lattice representation from the state."""
        state = self.state
        pos = state.positions
        n = len(pos)
        scale = state.scale
        num = [p.numerator * (scale // p.denominator) for p in pos]
        gap = [(num[(i + 1) % n] - num[i]) % scale for i in range(n)]
        prefix = [0] * (n + 1)
        for i in range(n):
            prefix[i + 1] = prefix[i] + gap[i]
        if prefix[n] != scale:
            raise SimulationError(
                "positions are not in clockwise ring order: gaps sum to "
                f"{prefix[n]}/{scale}, expected 1"
            )
        self.n = n
        self.scale = scale
        self.offset = 0
        self._ring = list(pos)  # frozen base Fractions, slot-indexed
        self._ring2 = self._ring + self._ring  # doubled: rotation by slice
        self._num = num  # slot-indexed integer positions over `scale`
        self._gap = gap
        self._prefix = prefix
        self._chir_cw = [
            c is Chirality.CLOCKWISE for c in state.chiralities
        ]
        # Memoisation tables (see module docstring).
        self._patterns: Dict[
            Tuple[int, ...],
            Tuple[int, bool, bool, Optional[List[Tuple[int, int]]]],
        ] = {}
        self._dist_rows: Dict[int, Tuple[List[int], List[int]]] = {}
        self._fracs1: Dict[int, Fraction] = {}  # numerator over scale
        self._fracs2: Dict[int, Fraction] = {}  # numerator over 2*scale
        self._obs_plain: Dict[int, Observation] = {}  # dist only
        self._obs_coll: Dict[Tuple[int, int], Observation] = {}
        self._obs_quarter: Dict[Tuple[int, int], Observation] = {}
        # Whole-round memo: (velocities, offset, need_coll) -> (outcome,
        # rotation).  Cyclic workloads (probe/restore loops, sweeps)
        # repeat exact (pattern, offset) states, collapsing a round to
        # one dictionary hit plus the state commit.
        self._outcomes: Dict[
            Tuple[Tuple[int, ...], int, bool], Tuple[RoundOutcome, int]
        ] = {}
        self._version = state.version

    def _arc_slots(self, s: int, hops: int) -> int:
        """Clockwise arc numerator over ``hops`` slots starting at ``s``."""
        prefix = self._prefix
        j = s + hops
        if j <= self.n:
            return prefix[j] - prefix[s]
        return self.scale - prefix[s] + prefix[j - self.n]

    def _frac2(self, numerator: int) -> Fraction:
        """Interned ``Fraction(numerator, 2 * scale)``."""
        return _intern(self._fracs2, numerator, 2 * self.scale)

    def _pattern(
        self, velocities: Tuple[int, ...], need_coll: bool
    ) -> Tuple[int, bool, bool, Optional[List[Tuple[int, int]]]]:
        """Memoised per-velocity-pattern derivations.

        Returns ``(r, has_idle, mixed, coll_spec)``.  ``coll_spec``
        (:func:`_coll_spec`) is only derived when ``need_coll`` asks for
        it, and only exists for idle-free mixed rounds, the only rounds
        with closed-form collisions.
        """
        pat = self._patterns.get(velocities)
        if pat is None:
            if len(self._patterns) > 8192:  # bound adversarial growth
                self._patterns.clear()
            # rotation_index, with C-speed counting on the tuple.
            r = (velocities.count(1) - velocities.count(-1)) % self.n
            has_idle = 0 in velocities
            mixed = 1 in velocities and -1 in velocities
            pat = (r, has_idle, mixed, None)
            self._patterns[velocities] = pat
        if need_coll and pat[3] is None and pat[2] and not pat[1]:
            pat = (pat[0], pat[1], pat[2], _coll_spec(velocities))
            self._patterns[velocities] = pat
        return pat

    def _dist_row(self, r: int) -> Tuple[List[int], List[int]]:
        """Per-slot ``dist()`` numerators of a rotation-r round, in both
        frames: ``(clockwise_row, anticlockwise_row)``."""
        return _dist_row_pair(self._prefix, self.scale, r, self._dist_rows)

    def _event_round(
        self, velocities: Sequence[int]
    ) -> Tuple[List[Optional[int]], List[int], int]:
        """Run the integer event engine for the current round.

        Returns ``(coll_quarter_ticks, final_coords, events)`` with
        collision arcs in ``1/(4*scale)`` ticks.
        """
        n, off = self.n, self.offset
        num = self._num
        coords = [4 * num[(i + off) % n] for i in range(n)]
        traces, events = simulate_collisions_ticks(
            coords, velocities, ring_ticks=4 * self.scale
        )
        coll = [tr.coll_ticks for tr in traces]
        final = [tr.final_coord for tr in traces]
        return coll, final, events

    def execute_round(
        self,
        velocities: Sequence[int],
        need_coll: bool,
        cross_validate: bool = False,
    ) -> RoundOutcome:
        state = self.state
        if state.version != self._version:
            self._sync()
        if not isinstance(velocities, tuple):
            velocities = tuple(velocities)
        n, off, scale = self.n, self.offset, self.scale
        if not cross_validate:
            hit = self._outcomes.get((velocities, off, need_coll))
            if hit is not None:
                outcome, r = hit
                off += r
                if off >= n:
                    off -= n
                self.offset = off
                state.commit_round(self._ring2[off:off + n], r)
                self._version = state.version
                return outcome
        r, has_idle, mixed, coll_spec = self._pattern(velocities, need_coll)
        need_events = cross_validate or (need_coll and has_idle)

        events = 0
        coll_quarter: Optional[List[Optional[int]]] = None
        if need_events:
            coll_quarter, events = self._validate_events(
                velocities, r, need_coll,
                closed_coll=need_coll and coll_spec is not None,
            )

        # Assemble observations from interned values.  The loops are
        # deliberately flat int/dict code: this is the innermost hot
        # path of every simulation in the library.
        if len(self._obs_coll) > 1 << 18:  # bound adversarial growth
            self._obs_coll.clear()
            self._obs_quarter.clear()
        cw_row, ccw_row = self._dist_row(r)
        chir_cw = self._chir_cw
        prefix = self._prefix
        obs_list: List[Observation] = [None] * n  # type: ignore[list-item]
        s = off
        if need_coll and coll_spec is not None:
            obs_cache = self._obs_coll
            fracs1 = self._fracs1
            for i in range(n):
                d = cw_row[s] if chir_cw[i] else ccw_row[s]
                rel, h = coll_spec[i]
                s0 = s + rel
                if s0 < 0:
                    s0 += n
                elif s0 >= n:
                    s0 -= n
                j = s0 + h
                if j <= n:
                    a = prefix[j] - prefix[s0]
                else:
                    a = scale - prefix[s0] + prefix[j - n]
                key = (d, a)
                ob = obs_cache.get(key)
                if ob is None:
                    df = fracs1.get(d)
                    if df is None:
                        df = fracs1[d] = Fraction(d, scale)
                    ob = Observation(dist=df, coll=self._frac2(a))
                    obs_cache[key] = ob
                obs_list[i] = ob
                s += 1
                if s == n:
                    s = 0
        elif coll_quarter is not None and need_coll:
            # Lazy rounds under a collision-reporting model: arcs from
            # the event engine, in 1/(4*scale) ticks.
            obs_cache_q = self._obs_quarter
            obs_plain = self._obs_plain
            scale4 = 4 * scale
            for i in range(n):
                d = cw_row[s] if chir_cw[i] else ccw_row[s]
                q = coll_quarter[i]
                if q is None:
                    ob = obs_plain.get(d)
                    if ob is None:
                        ob = Observation(dist=self._frac1(d))
                        obs_plain[d] = ob
                else:
                    keyq = (d, q)
                    ob = obs_cache_q.get(keyq)
                    if ob is None:
                        ob = Observation(
                            dist=self._frac1(d), coll=Fraction(q, scale4)
                        )
                        obs_cache_q[keyq] = ob
                obs_list[i] = ob
                s += 1
                if s == n:
                    s = 0
        else:
            obs_plain = self._obs_plain
            fracs1 = self._fracs1
            for i in range(n):
                d = cw_row[s] if chir_cw[i] else ccw_row[s]
                ob = obs_plain.get(d)
                if ob is None:
                    df = fracs1.get(d)
                    if df is None:
                        df = fracs1[d] = Fraction(d, scale)
                    ob = Observation(dist=df)
                    obs_plain[d] = ob
                obs_list[i] = ob
                s += 1
                if s == n:
                    s = 0

        outcome = RoundOutcome(
            observations=tuple(obs_list),
            rotation_index=r,
            collision_events=events,
        )
        if not need_events:
            # Closed-form rounds are pure functions of (pattern, offset):
            # memoise the whole immutable outcome.
            if len(self._outcomes) > 1 << 16:
                self._outcomes.clear()
            self._outcomes[(velocities, self.offset, need_coll)] = (
                outcome, r,
            )

        # Commit: rotate the offset; the position list reuses the frozen
        # base Fraction objects (no arithmetic, no gcd).
        off = off + r
        if off >= n:
            off -= n
        self.offset = off
        state.commit_round(self._ring2[off:off + n], r)
        self._version = state.version
        return outcome

    def _frac1(self, numerator: int) -> Fraction:
        """Interned ``Fraction(numerator, scale)``."""
        return _intern(self._fracs1, numerator, self.scale)

    def _validate_events(
        self,
        velocities: Tuple[int, ...],
        r: int,
        need_coll: bool,
        closed_coll: bool,
    ) -> Tuple[Optional[List[Optional[int]]], int]:
        """Run the integer event engine; cross-check the closed forms.

        Returns ``(coll_quarter_ticks, events)`` where the collision
        arcs are only returned when the closed form cannot supply them
        (idle rounds under a collision-reporting model).
        """
        n, off, scale = self.n, self.offset, self.scale
        ev_coll, ev_final, events = self._event_round(velocities)
        num = self._num
        expected = [4 * num[(i + off + r) % n] for i in range(n)]
        if ev_final != expected:
            raise SimulationError(
                "closed-form and event-driven final positions disagree "
                f"(rotation index {r}); closed={expected} "
                f"event={ev_final} (in 1/(4*{scale}) ticks)"
            )
        if not need_coll:
            return None, events
        if closed_coll:
            # Recompute the closed-form arcs here (tick-doubled) and
            # compare; the main loop then uses the closed form.
            _, _, _, coll_spec = self._pattern(velocities, True)
            arc = self._arc_slots
            for i in range(n):
                rel, h = coll_spec[i]
                a = arc((i + off + rel) % n, h)
                if ev_coll[i] != 2 * a:
                    raise SimulationError(
                        "closed-form and event-driven first collisions "
                        f"disagree for agent {i}: closed={2 * a} "
                        f"event={ev_coll[i]} (in 1/(4*{scale}) ticks)"
                    )
            return None, events
        if all(v == velocities[0] for v in velocities) and 0 not in velocities:
            if any(c is not None for c in ev_coll):
                raise SimulationError(
                    "event engine reported collisions in a "
                    "uniform-direction round"
                )
            return None, events
        return ev_coll, events


class _VelocityRow:
    """One fused row's objective velocities and what a plan derives.

    A plan derives only the rotation index and the idle and mixed flags
    (two counts).  The nearest-opposite hop offsets a closed-form
    ``coll()`` column needs are derived by the first read that wants
    them and kept here, so spans sharing the row through the backend's
    row memo derive them once.  They depend on the velocities alone.
    """

    __slots__ = ("vel", "r", "has_idle", "mixed", "_offsets")

    def __init__(self, vel, r: int, has_idle: bool, mixed: bool) -> None:
        self.vel = vel  # int8 ndarray (vectorised path) or int tuple
        self.r = r
        self.has_idle = has_idle
        self.mixed = mixed
        self._offsets = None

    def coll_offsets(self, np):
        """Where each agent's first-collision arc starts, relative to
        its own slot, and how many slots it spans: ``(rel, hops)``
        int64 arrays under numpy, else :func:`_coll_spec`'s list of
        pairs.  None unless the row is idle-free and mixed, the only
        rows with closed-form collisions."""
        if not self.mixed or self.has_idle:
            return None
        offsets = self._offsets
        if offsets is None:
            vel = self.vel
            if np is not None:
                from repro.ring.arrayops import hops_to_opposite_array

                hops = hops_to_opposite_array(np, vel.astype(np.int64))
                offsets = (np.where(vel > 0, 0, -hops), hops)
            else:
                offsets = _coll_spec(vel)
            self._offsets = offsets
        return offsets


class _FusedSpan:
    """What a fused span's observation columns are computed from.

    Captured when the span executes: the backend's slot prefix sums
    (doubled, on the vectorised path) and chirality mask, the scale,
    the start offset, the per-round rotations and the planned rows,
    and the interning tables its Fractions and Observations come from.
    ``_sync`` replaces those arrays and tables instead of mutating
    them, so a resync between execution and a read (an external
    position write bumps ``state.version``) changes neither the
    columns nor the values they intern to.  The span holds no
    reference to the backend, so a backend's span memo forms no
    reference cycle with it.
    """

    __slots__ = ("np", "n", "scale", "start", "rotations", "rows",
                 "need_coll", "prefix", "chir", "base", "dist_memo",
                 "fracs1", "fracs2", "obs_plain", "obs_coll")

    def __init__(self, backend: "ArrayBackend", rotations: List[int],
                 rows: List[Tuple[_VelocityRow, int]],
                 need_coll: bool) -> None:
        np = backend.np
        self.np = np
        self.n = backend.n
        self.scale = backend.scale
        self.start = backend.offset
        self.rotations = rotations
        self.rows = rows
        self.need_coll = need_coll
        self.fracs1 = backend._fracs1
        self.fracs2 = backend._fracs2
        self.obs_plain = backend._obs_plain
        self.obs_coll = backend._obs_coll
        if np is not None:
            self.prefix = backend._p2
            self.chir = backend._chir_np
            self.base = backend._base_idx
            self.dist_memo = None
        else:
            self.prefix = backend._prefix
            self.chir = backend._chir_cw
            self.base = None
            self.dist_memo = backend._dist_rows

    def truncated(self, kept: int) -> "_FusedSpan":
        """The same span cut to its first ``kept`` rounds."""
        span = copy.copy(self)
        span.rotations = self.rotations[:kept]
        return span

    def round(self, j: int) -> "_FusedSpan":
        """Round ``j`` of this span as a one-round span: it starts at
        ``start`` plus the rotations of the rounds before it."""
        span = copy.copy(self)
        rotations = self.rotations
        span.start = (self.start + sum(rotations[:j])) % self.n
        span.rotations = rotations[j:j + 1]
        for row, count in self.rows:
            if j < count:
                span.rows = [(row, 1)]
                break
            j -= count
        return span


def _span_dist(span: _FusedSpan):
    """A span's agent-frame ``dist()`` numerators over ``scale``: a
    ``(k, n)`` int64 matrix on the vectorised path, else one
    ``array('q')`` row per round."""
    n, scale, np = span.n, span.scale, span.np
    off = span.start
    if np is not None:
        p2, chir, base = span.prefix, span.chir, span.base
        dist = np.empty((len(span.rotations), n), dtype=np.int64)
        for j, r in enumerate(span.rotations):
            s = base + off
            s = np.where(s >= n, s - n, s)
            cw = p2[s + r] - p2[s]
            dist[j] = np.where(chir, cw, (scale - cw) % scale)
            off += r
            if off >= n:
                off -= n
        return dist
    from array import array

    prefix, chir = span.prefix, span.chir
    rows: List[array] = []
    for r in span.rotations:
        cw_row, ccw_row = _dist_row_pair(prefix, scale, r, span.dist_memo)
        drow = array("q", bytes(8 * n))
        s = off
        for i in range(n):
            drow[i] = cw_row[s] if chir[i] else ccw_row[s]
            s += 1
            if s == n:
                s = 0
        rows.append(drow)
        off += r
        if off >= n:
            off -= n
    return rows


def _span_coll(span: _FusedSpan):
    """A span's closed-form ``coll()`` numerators over ``2 * scale``
    (``-1`` = no collision): a ``(k, n)`` int64 matrix on the
    vectorised path, else one ``array('q')`` row per round."""
    n, scale, np = span.n, span.scale, span.np
    rotations = span.rotations
    k = len(rotations)
    off = span.start
    j = 0
    if np is not None:
        p2, base = span.prefix, span.base
        coll = np.full((k, n), -1, dtype=np.int64)
        for row, count in span.rows:
            if j == k:
                break
            offsets = row.coll_offsets(np)
            for _ in range(min(count, k - j)):
                if offsets is not None:
                    rel, hops = offsets
                    s = base + off
                    s = np.where(s >= n, s - n, s)
                    s0 = s + rel
                    s0 = np.where(s0 < 0, s0 + n, s0)
                    coll[j] = p2[s0 + hops] - p2[s0]
                off += rotations[j]
                if off >= n:
                    off -= n
                j += 1
        return coll
    from array import array

    prefix = span.prefix
    rows: List[array] = []
    for row, count in span.rows:
        if j == k:
            break
        spec = row.coll_offsets(None)
        for _ in range(min(count, k - j)):
            if spec is None:
                rows.append(array("q", [-1]) * n)
            else:
                crow = array("q", bytes(8 * n))
                s = off
                for i in range(n):
                    rel, h = spec[i]
                    s0 = s + rel
                    if s0 < 0:
                        s0 += n
                    e = s0 + h
                    if e <= n:
                        crow[i] = prefix[e] - prefix[s0]
                    else:
                        crow[i] = scale - prefix[s0] + prefix[e - n]
                    s += 1
                    if s == n:
                        s = 0
                rows.append(crow)
            off += rotations[j]
            if off >= n:
                off -= n
            j += 1
    return rows


class ArrayStretchResult:
    """Columnar outcome of one fused stretch (see :mod:`repro.ring.stretch`).

    The span's rotations exist from execution on, because the commit
    needs them.  Its observation columns are computed on their first
    read, each on its own (a ``dist()`` read never derives collision
    hops), from what the :class:`_FusedSpan` captured at execution, and
    kept: ``dist`` over ``scale``, ``coll`` over ``2 * scale`` with
    ``-1`` encoding "no collision".  A span nobody reads (a restore
    round, a contention slot) never computes either.  Per-agent
    :class:`~repro.types.Observation` rows materialise only when
    something reads them, through the interning tables the span
    captured from its backend (so a materialised row is bit-identical
    to, and shares objects with, the scalar path's output at that
    scale).  A result holds no reference to its backend.

    The columns are a cache, not state: once a harvest has read them it
    calls :meth:`release_columns`, and every later read recomputes
    just what it asks for, so a span in the round history pins no
    ``(k, n)`` matrix.

    ``np`` is the numpy module when the columns are int64 ndarrays
    (vectorised consumers branch on it), else None (stdlib ``array``
    fallback rows).
    """

    __slots__ = (
        "k", "n", "scale", "rotations", "collision_events",
        "np", "_span", "_dist", "_coll", "_obs", "_released",
    )

    def __init__(self, span: _FusedSpan) -> None:
        self._span = span
        self.rotations = span.rotations
        self.k = len(span.rotations)
        self.n = span.n
        self.scale = span.scale
        self.collision_events = 0
        self.np = span.np
        self._dist = None
        self._coll = None
        self._obs: Dict[int, Tuple[Observation, ...]] = {}
        self._released = False

    def release_columns(self) -> None:
        """Drop the computed ``dist()``/``coll()`` columns.  From now on
        a round's read recomputes only that round (:meth:`_FusedSpan.
        round`), and a whole-span read is recomputed and not kept, so a
        matrix handed out before is its reader's to reuse."""
        self._dist = self._coll = None
        self._released = True

    def _dist_columns(self):
        dist = self._dist
        if dist is None:
            dist = _span_dist(self._span)
            if not self._released:
                self._dist = dist
        return dist

    def dist_ints(self, j: int):
        """Round ``j``'s dist numerators over ``scale`` (agent frame)."""
        if self._released:
            return _span_dist(self._span.round(j))[0]
        return self._dist_columns()[j]

    def coll_ints(self, j: int):
        """Round ``j``'s coll numerators over ``2 * scale`` (-1 = None),
        or None when the model reports no collisions."""
        if not self._span.need_coll:
            return None
        if self._released:
            return _span_coll(self._span.round(j))[0]
        coll = self._coll
        if coll is None:
            coll = self._coll = _span_coll(self._span)
        return coll[j]

    def dist_ints_all(self):
        """The whole span's dist numerators as a ``(k, n)`` int64
        matrix on the vectorised representation, else None (columnar
        harvests fall back to per-round reads)."""
        if self.np is None:
            return None
        return self._dist_columns()

    def truncated(self, kept: int) -> "ArrayStretchResult":
        """The first ``kept`` rounds of this span as a fresh outcome.

        Used by speculative execution to cut an optimistically
        computed span back to the stop predicate's firing round.
        Columns already computed are shared (numpy slices are views);
        the others are computed for the kept rounds only, on first
        read.
        """
        if not 0 < kept <= self.k:
            raise SimulationError(
                f"cannot keep {kept} of a {self.k}-round stretch"
            )
        result = ArrayStretchResult(self._span.truncated(kept))
        if self._dist is not None:
            result._dist = self._dist[:kept]
        if self._coll is not None:
            result._coll = self._coll[:kept]
        return result

    def observations(self, j: int) -> Tuple[Observation, ...]:
        """Round ``j`` materialised as interned Observations (cached)."""
        cached = self._obs.get(j)
        if cached is not None:
            return cached
        span = self._span
        fracs1, scale = span.fracs1, span.scale
        obs_plain = span.obs_plain
        obs_coll = span.obs_coll
        # Same adversarial-growth bound the scalar hot path applies to
        # the shared interning tables.
        if len(obs_coll) > 1 << 18:
            obs_coll.clear()
        np = self.np
        dn = self.dist_ints(j)
        dn = dn.tolist() if np is not None else list(dn)
        cn = self.coll_ints(j)
        if cn is not None:
            cn = cn.tolist() if np is not None else list(cn)
        n = self.n
        obs_list: List[Observation] = [None] * n  # type: ignore[list-item]
        for i in range(n):
            d = dn[i]
            a = -1 if cn is None else cn[i]
            if a < 0:
                ob = obs_plain.get(d)
                if ob is None:
                    ob = obs_plain[d] = Observation(
                        dist=_intern(fracs1, d, scale)
                    )
            else:
                key = (d, a)
                ob = obs_coll.get(key)
                if ob is None:
                    ob = obs_coll[key] = Observation(
                        dist=_intern(fracs1, d, scale),
                        coll=_intern(span.fracs2, a, 2 * scale),
                    )
            obs_list[i] = ob
        cached = tuple(obs_list)
        self._obs[j] = cached
        return cached

    def outcome(self, j: int) -> RoundOutcome:
        """Round ``j`` as a materialised :class:`RoundOutcome`."""
        return RoundOutcome(
            observations=self.observations(j),
            rotation_index=self.rotations[j],
            collision_events=0,
        )

    def dists(self, j: int) -> List[Fraction]:
        """Round ``j``'s dist column as interned Fractions."""
        span = self._span
        dn = self.dist_ints(j)
        dn = dn.tolist() if self.np is not None else dn
        fracs1, scale = span.fracs1, span.scale
        return [_intern(fracs1, d, scale) for d in dn]

    def colls(self, j: int) -> List[Optional[Fraction]]:
        """Round ``j``'s coll column (None cells where no collision)."""
        cn = self.coll_ints(j)
        if cn is None:
            return [None] * self.n
        cn = cn.tolist() if self.np is not None else cn
        span = self._span
        fracs2, twice = span.fracs2, 2 * span.scale
        return [None if a < 0 else _intern(fracs2, a, twice) for a in cn]


class ArrayBackend(LatticeBackend):
    """Whole-column backend: lattice arithmetic plus fused stretches.

    Single rounds execute on the inherited integer-lattice path (so the
    per-round semantics, memo tables and event-engine integration are
    byte-for-byte the proven ones); the numpy mirrors built at attach
    time serve :meth:`execute_stretch`, which advances a whole fused
    span in closed form:

    - per-round rotation indices come from whole-row counts and
      offsets accumulate; that is all a span computes when it executes
      (the commit needs it).  Its observation columns wait for their
      first read (:class:`ArrayStretchResult`): each round's
      agent-frame ``dist()`` numerators are one doubled-prefix gather
      (``p2[s + r] - p2[s]``) -- the rotation-offset trick of
      :class:`LatticeBackend`, applied to columns;
    - closed-form first-collision numerators come from the vectorised
      nearest-opposite-hop derivation (suffix-min/prefix-max on the
      doubled ring), derived on the first ``coll()`` read and memoised
      per velocity row;
    - the event engine's integer heap keys are assembled as vectorised
      int arrays when it runs at all; fused rounds are closed-form by
      construction, so the heap is only ever built for rounds that
      actually need contact resolution (cross-validation, or idle
      rounds under a collision-reporting model), never for stretches;
    - whole stretches are memoised by (velocity rows, offset), so
      probe/restore loops repeat as single dictionary hits;
    - positions commit lazily: the post-span list is a pending thunk on
      the state, built only if something reads ``state.positions``;
    - :meth:`execute_speculative` runs a data-dependent span (a
      :class:`~repro.ring.stretch.SpeculativeStretch` plan)
      optimistically in full, evaluates the stop predicate against the
      emitted columns and cuts the commit back to the firing round --
      the rollback is a rotation-offset rewind on the lazy commit.

    Without numpy the same fused execution runs over stdlib
    :mod:`array` int buffers (no vectorised consumer columns, but still
    no per-round Observation materialisation).  Stretches whose shared
    denominator does not fit comfortably in int64 are declined
    (``execute_stretch`` returns None) and the simulator falls back to
    scalar rounds.
    """

    name = "array"
    supports_stretch = True

    def __init__(self) -> None:
        super().__init__()
        from repro.ring.arrayops import get_numpy

        self.np = get_numpy()

    def _sync(self) -> None:
        super()._sync()
        n, scale = self.n, self.scale
        self._fusable = scale.bit_length() <= 61
        self._stretch_memo: Dict[tuple, Tuple[ArrayStretchResult, int]] = {}
        self._row_memo: Dict[object, _VelocityRow] = {}
        np = self.np
        if np is not None and self._fusable:
            base = np.asarray(self._prefix, dtype=np.int64)  # length n+1
            self._p2 = np.concatenate([base[:-1], base + scale])
            self._chir_np = np.asarray(self._chir_cw, dtype=bool)
            self._base_idx = np.arange(n, dtype=np.int64)
            self._num_np = np.asarray(self._num, dtype=np.int64)
        else:
            self._p2 = None

    # -- vectorised event-engine plumbing --------------------------------

    def _event_round(self, velocities):
        """As the lattice version, with the integer heap keys (initial
        quarter-tick coordinates) assembled as one vectorised gather
        when numpy is available."""
        np = self.np
        if np is None or self._p2 is None:
            return super()._event_round(velocities)
        n, off = self.n, self.offset
        idx = self._base_idx + off
        idx = np.where(idx >= n, idx - n, idx)
        coords = (4 * self._num_np[idx]).tolist()
        traces, events = simulate_collisions_ticks(
            coords, velocities, ring_ticks=4 * self.scale
        )
        coll = [tr.coll_ticks for tr in traces]
        final = [tr.final_coord for tr in traces]
        return coll, final, events

    # -- fused stretches -------------------------------------------------

    def _vel_row_np(self, row):
        """Normalise one velocity row to a contiguous int8 ndarray."""
        np = self.np
        arr = np.ascontiguousarray(row, dtype=np.int8)
        if arr.shape != (self.n,):
            raise SimulationError(
                f"velocity row of length {arr.shape} for n={self.n}"
            )
        return arr

    def _derive_row(self, vel, key) -> _VelocityRow:
        """The memoised :class:`_VelocityRow` of one normalised row (an
        int8 ndarray keyed by its bytes, or an int tuple keyed by
        itself): rotation index, idle and mixed flags, from two
        counts."""
        row = self._row_memo.get(key)
        if row is None:
            if len(self._row_memo) > 4096:
                self._row_memo.clear()
            np = self.np
            if np is not None:
                vel = vel.copy()  # kept for a later coll() read
                npos = int(np.count_nonzero(vel == 1))
                nneg = int(np.count_nonzero(vel == -1))
            else:
                npos = vel.count(1)
                nneg = vel.count(-1)
            n = self.n
            row = _VelocityRow(
                vel, (npos - nneg) % n, npos + nneg < n,
                npos > 0 and nneg > 0,
            )
            self._row_memo[key] = row
        return row

    def execute_stretch(self, vel_pairs, need_coll: bool):
        """Advance one fused stretch; commits the state lazily.

        Args:
            vel_pairs: Run-length velocity rows ``[(row, count), ...]``
                (objective velocities in {-1, 0, +1}; int8 ndarrays or
                plain int sequences).
            need_coll: Whether ``coll()`` columns must be produced.

        Returns:
            An :class:`ArrayStretchResult`, or None when the span
            cannot be fused (oversized denominator, or an idle round
            under a collision-reporting model) -- the simulator then
            falls back to scalar rounds.
        """
        plan = self._plan_pairs(vel_pairs, need_coll)
        if plan is None:
            return None
        rows, key_rows, total = plan

        memo_key = (tuple(key_rows), self.offset, need_coll)
        hit = self._stretch_memo.get(memo_key)
        if hit is None:
            result, r_total = self._compute_span(rows, need_coll)
            if len(self._stretch_memo) > 4096:
                self._stretch_memo.clear()
            self._stretch_memo[memo_key] = (result, r_total)
        else:
            result, r_total = hit

        self._commit_span(total, r_total)
        return result

    def execute_speculative(self, vel_pairs, stop, need_coll: bool):
        """Advance a speculative span; cut it back where ``stop`` fires.

        The planned span is executed optimistically in full (as in
        :meth:`execute_stretch`, but unmemoised: speculative spans are
        one-shot and their columns can be large); ``stop(result, j)``
        is then evaluated against its observation columns (computed on
        the predicate's first read) for ``j = 0, 1, ...`` in order.
        At the first firing round the span is truncated to ``j + 1``
        rounds and the optimistic advance rolls back to that boundary
        -- positions commit lazily through the rotation offset, so the
        rollback is an offset rewind, never a position copy.  With
        ``stop=None`` (or a predicate that never fires) the whole span
        commits.

        Returns the (possibly truncated) stretch outcome, or None when
        the span cannot be fused -- the simulator then falls back to
        the interleaved scalar execute/evaluate loop.
        """
        plan = self._plan_pairs(vel_pairs, need_coll)
        if plan is None:
            return None
        rows, _key_rows, total = plan
        result, r_total = self._compute_span(rows, need_coll)
        kept = total
        if stop is not None:
            for j in range(total):
                if stop(result, j):
                    kept = j + 1
                    break
        if kept != total:
            result = result.truncated(kept)
            # Rotation-offset rewind: the kept prefix's cumulative
            # rotation replaces the optimistic full-span one.
            n = self.n
            r_total = 0
            for r in result.rotations:
                r_total += r
            r_total %= n
        self._commit_span(kept, r_total)
        return result

    def _plan_pairs(self, vel_pairs, need_coll: bool):
        """Normalise and derive a span's velocity rows.

        Returns ``(rows, key_rows, total)`` -- ``(_VelocityRow, count)``
        pairs, hashable memo-key rows, and the round count -- or None
        when the span cannot be fused (oversized denominator, or an
        idle round under a collision-reporting model).
        """
        state = self.state
        if state.version != self._version:
            self._sync()
        if not self._fusable:
            return None
        np = self.np
        total = 0
        rows = []
        key_rows = []
        for vel, count in vel_pairs:
            if np is not None:
                vel = self._vel_row_np(vel)
                key = vel.tobytes()
            else:
                vel = key = vel if isinstance(vel, tuple) else tuple(vel)
            row = self._derive_row(vel, key)
            if need_coll and row.has_idle:  # idle round needing coll()
                return None
            rows.append((row, count))
            key_rows.append((key, count))
            total += count
        return rows, key_rows, total

    def _compute_span(self, rows, need_coll: bool):
        """Execute a planned span: its rotations now (the commit needs
        them), its observation columns on their first read.

        Returns ``(result, r_total)``.
        """
        rotations: List[int] = []
        r_total = 0
        for row, count in rows:
            rotations += [row.r] * count
            r_total += row.r * count
        span = _FusedSpan(self, rotations, rows, need_coll)
        return ArrayStretchResult(span), r_total % self.n

    def _commit_span(self, rounds: int, r_total: int) -> None:
        """Advance the offset and lazily commit ``rounds`` rounds."""
        n = self.n
        off = self.offset + r_total
        if off >= n:
            off -= n
        self.offset = off
        ring2 = self._ring2
        state = self.state
        state.commit_stretch(
            lambda: ring2[off:off + n], rounds, r_total
        )
        self._version = state.version
