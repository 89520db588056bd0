"""Round execution: from local direction choices to agent observations.

:class:`RingSimulator` is the bridge between the world model and the
agents.  Given each agent's *local* direction choice it:

1. maps choices to objective velocities through each agent's private
   chirality;
2. enforces the model variant (idling is only legal in the lazy model);
3. delegates the round's arithmetic to a pluggable *kinematics backend*
   (see :mod:`repro.ring.backends`): the closed form (Lemma 1) when no
   collision information is needed, exact event simulation when the
   round requires it (or when cross-validation is enabled);
4. returns per-agent :class:`~repro.types.Observation` values expressed
   in each agent's own frame (the backend commits the world state).

Backend selection: pass ``backend="array"`` (default, integer
arithmetic over one shared denominator plus fused stretches) or
``backend="fraction"`` (reference exact-rational implementation), or a
ready :class:`~repro.ring.backends.KinematicsBackend` instance.  The
two are property-tested to produce bit-identical outcomes.

Batched execution: :meth:`execute_batch` runs ``k`` rounds with a fixed
direction vector, validating the model rules and mapping chiralities
once instead of per round; the integer backends' memoised
velocity-pattern tables make each subsequent round pure table lookups.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.exceptions import ModelViolationError, SimulationError
from repro.ring.backends import BackendSpec, make_backend
from repro.ring.state import RingState
from repro.ring.stretch import (
    MaterialisedStretch,
    SpeculativeStretch,
    Stretch,
    row_directions,
    row_is_signs,
)
from repro.types import LocalDirection, Model, RoundOutcome


class RingSimulator:
    """Executes rounds against a :class:`RingState` under a model variant.

    Attributes:
        state: The ground-truth world state (mutated by each round).
        model: Which model variant's rules and observations apply.
        backend: The kinematics backend executing the arithmetic.
        cross_validate: When True, every round is computed both ways and
            the closed-form and event-driven results are asserted equal.
            Slower; intended for tests.
        rounds_executed: Number of rounds run so far (the paper's cost
            measure).
        collision_events: Total collision events processed by the event
            engine (0 for rounds resolved in closed form).
    """

    def __init__(
        self,
        state: RingState,
        model: Model = Model.BASIC,
        cross_validate: bool = False,
        backend: BackendSpec = None,
    ) -> None:
        self.state = state
        self.model = model
        self.cross_validate = cross_validate
        self.backend = make_backend(backend)
        self.backend.attach(state)
        self.rounds_executed = 0
        self.collision_events = 0
        # Agent slots exempt from the must-move check: crash-stopped
        # agents idle by force, not by protocol choice, so the fault
        # layer (repro.faults) marks them here before injecting IDLE
        # into basic/perceptive runs.
        self.idle_exempt: frozenset = frozenset()
        # Per-agent objective velocity for each local choice (chirality
        # never changes); identity checks on the three enum members are
        # much cheaper than hashing direction vectors.
        self._vel_right = [int(c) for c in state.chiralities]
        self._vel_left = [-v for v in self._vel_right]
        self._vel_right_arr = None  # int8 ndarray mirror, built on demand

    def _velocities(
        self, directions: Sequence[LocalDirection]
    ) -> Sequence[int]:
        """Validate a direction vector and map it to objective velocities.

        Equivalent to mapping :func:`repro.types.local_to_velocity` over
        the agents.
        """
        n = self.state.n
        if len(directions) != n:
            raise SimulationError("one direction per agent is required")
        right, left = LocalDirection.RIGHT, LocalDirection.LEFT
        vel_right, vel_left = self._vel_right, self._vel_left
        allows_idle = self.model.allows_idle
        velocities = [0] * n
        for i, d in enumerate(directions):
            if d is right:
                velocities[i] = vel_right[i]
            elif d is left:
                velocities[i] = vel_left[i]
            elif not allows_idle and i not in self.idle_exempt:
                raise ModelViolationError(
                    f"idle is not permitted in the {self.model.value} model"
                )
        return tuple(velocities)

    def execute(self, directions: Sequence[LocalDirection]) -> RoundOutcome:
        """Run one round with the given per-agent local directions.

        Args:
            directions: ``directions[i]`` is the choice of the agent at
                ring index i, in that agent's own frame.

        Returns:
            The omniscient :class:`RoundOutcome`; the scheduler forwards
            ``outcome.observations[i]`` to agent i only.

        Raises:
            ModelViolationError: If an agent idles outside the lazy model.
        """
        velocities = self._velocities(directions)
        outcome = self.backend.execute_round(
            velocities,
            need_coll=self.model.reports_collisions,
            cross_validate=self.cross_validate,
        )
        self.rounds_executed += 1
        self.collision_events += outcome.collision_events
        return outcome

    def execute_batch(
        self, directions: Sequence[LocalDirection], k: int
    ) -> List[RoundOutcome]:
        """Run ``k`` rounds with the same direction vector each round.

        Model rules are checked and chiralities mapped once for the
        whole batch; each round then reuses the backend's memoised
        velocity-pattern derivations.  Returns all ``k`` outcomes in
        order.
        """
        if k < 0:
            raise SimulationError("cannot execute a negative round count")
        velocities = self._velocities(directions)
        need_coll = self.model.reports_collisions
        cross_validate = self.cross_validate
        backend = self.backend
        outcomes: List[RoundOutcome] = []
        for _ in range(k):
            outcome = backend.execute_round(
                velocities, need_coll=need_coll, cross_validate=cross_validate
            )
            self.collision_events += outcome.collision_events
            outcomes.append(outcome)
        self.rounds_executed += k
        return outcomes

    def _velocities_row(self, row):
        """Map one stretch row to objective velocities.

        Direction rows go through :meth:`_velocities`; local-frame sign
        rows (vectorised policies) are validated and multiplied by the
        chirality sign vector -- one numpy multiply, no per-agent
        dispatch.
        """
        if not row_is_signs(row):
            return self._velocities(row)
        n = self.state.n
        if len(row) != n:
            raise SimulationError("one direction per agent is required")
        from repro.ring.arrayops import get_numpy

        np = get_numpy()
        if np is not None:
            signs = np.ascontiguousarray(row, dtype=np.int8)
            if bool(((signs < -1) | (signs > 1)).any()):
                raise SimulationError(
                    "stretch sign rows must hold only -1, 0 or +1"
                )
            if not self.model.allows_idle and bool((signs == 0).any()):
                raise ModelViolationError(
                    f"idle is not permitted in the {self.model.value} model"
                )
            if self._vel_right_arr is None:
                self._vel_right_arr = np.asarray(
                    self._vel_right, dtype=np.int8
                )
            return signs * self._vel_right_arr
        allows_idle = self.model.allows_idle
        vel_right = self._vel_right
        velocities = [0] * n
        for i, s in enumerate(row):
            if s:
                if s not in (1, -1):
                    raise SimulationError(
                        "stretch sign rows must hold only -1, 0 or +1"
                    )
                velocities[i] = s * vel_right[i]
            elif not allows_idle:
                raise ModelViolationError(
                    f"idle is not permitted in the {self.model.value} model"
                )
        return tuple(velocities)

    def execute_stretch(self, stretch: Stretch):
        """Run a whole fused stretch (see :mod:`repro.ring.stretch`).

        Hands the span to the backend in one call when it supports
        fused execution (and cross-validation is off); otherwise -- and
        whenever the backend declines the span -- executes it round by
        round through :meth:`execute`.  Either way the stretch's
        executed rounds count toward :attr:`rounds_executed` and the
        returned object exposes the stretch-outcome surface.

        A :class:`~repro.ring.stretch.SpeculativeStretch` routes
        through the backend's speculative path: the plan is an upper
        bound and the stop predicate decides the committed length.  On
        scalar execution the predicate is evaluated after each round
        (the legacy observe-then-decide loop); either way it is called
        once per executed round, in order.
        """
        if stretch.rounds < 1:
            raise SimulationError("a stretch must span at least one round")
        stop = (
            stretch.stop
            if isinstance(stretch, SpeculativeStretch)
            else None
        )
        backend = self.backend
        if (
            getattr(backend, "supports_stretch", False)
            and not self.cross_validate
        ):
            pairs = [
                (self._velocities_row(row), count)
                for row, count in stretch.pairs
            ]
            need_coll = self.model.reports_collisions
            if isinstance(stretch, SpeculativeStretch):
                result = backend.execute_speculative(
                    pairs, stop, need_coll=need_coll
                )
            else:
                result = backend.execute_stretch(pairs, need_coll=need_coll)
            if result is not None:
                self.rounds_executed += result.k
                return result
        outcomes = MaterialisedStretch(self.state.scale)
        j = 0
        for row, count in stretch.pairs:
            directions = row_directions(row)
            for _ in range(count):
                outcomes.append(self.execute(directions))
                if stop is not None and stop(outcomes, j):
                    return outcomes
                j += 1
        return outcomes

    def apply_restoring_span(self, row, k: int = 1) -> None:
        """Commit the net rotation of ``k`` rounds of ``row``, unsimulated.

        A round affects the world only through its rotation (Lemma 1),
        so the span's end positions are a rotation of the start: no
        collision resolution, no observations, and the rounds do **not**
        count toward :attr:`rounds_executed`.  The commit goes through
        :meth:`RingState.apply_rotation`; a backend that caches positions
        resyncs on the state's version bump.  Its one caller is
        :meth:`~repro.core.scheduler.Scheduler.skip_restoring`.
        """
        velocities = self._velocities_row(row)
        if isinstance(velocities, tuple):
            pos = velocities.count(1)
            neg = velocities.count(-1)
        else:  # int8 ndarray from a sign row
            pos = int((velocities > 0).sum())
            neg = int((velocities < 0).sum())
        r = ((pos - neg) * k) % self.state.n
        self.state.apply_rotation(r)
