"""The synchronous round scheduler.

The scheduler owns the boundary between world state and agent knowledge.
Each round it asks the protocol for every agent's local direction and
executes the round on the simulator, appending each agent's observation
to its private log.  Two protocol shapes are accepted everywhere a
decision is needed:

* a per-agent *choice function* (``ChoiceFn``), called once per agent
  with only that agent's :class:`~repro.core.agent.AgentView`;
* a whole-population :class:`~repro.api.policy.Policy`, whose
  ``decide(views)`` is called exactly once per round and returns the
  full direction vector -- the vectorised path: no per-agent Python
  dispatch, and the returned vector flows to the kinematics backend
  unchanged.

Round counting happens here, so every protocol's cost is measured
uniformly, matching the paper's complexity metric.

Batched execution: :meth:`Scheduler.run_rounds` executes ``k``
choice-driven rounds and :meth:`Scheduler.run_fixed` executes ``k``
rounds of one fixed direction.  The fixed variant validates the round
and maps chiralities once for the whole batch; both lean on the
kinematics backend's memoised per-velocity-pattern tables (see
:mod:`repro.ring.backends`), so long homogeneous stretches -- sweeps,
probes, restore sequences -- execute without re-deriving anything.

Fused stretches: a policy's ``decide`` may return a whole
:class:`~repro.ring.stretch.Stretch` plan instead of one vector; the
scheduler executes the span through the backend in a single call
(closed-form and columnar on ``backend="array"``), files one *lazy*
history row per round -- agent logs materialise observations only when
read -- and notifies the policy once via ``observe_stretch``.
``run_fixed`` routes through the same path on stretch-capable
backends.  Backend selection (``backend="array"|"fraction"``) threads
through to :class:`~repro.ring.simulator.RingSimulator`.

Speculative stretches: data-dependent phases (the location-discovery
sweeps, the Convolution/Pivot schedule) plan a
:class:`~repro.ring.stretch.SpeculativeStretch` -- an optimistic span
plus a per-round stop predicate over the observation columns -- via
:meth:`Scheduler.run_stretch`; stretch-capable backends advance the
whole span and cut the commit back to the predicate's firing round
(a rotation-offset rewind), scalar backends interleave execute and
evaluate.  Every REVERSEDROUND of a probe/restore pair is executed and
counted, as in the paper's accounting; on stretch-capable backends its
observations are never materialised.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional

from repro.core.agent import AgentView
from repro.core.population import Population
from repro.exceptions import FaultBudgetError, SimulationError
from repro.faults.inject import FaultInjector
from repro.faults.plan import FaultPlan, FaultPlanLike
from repro.ring.backends import BackendSpec
from repro.ring.simulator import RingSimulator
from repro.ring.state import RingState
from repro.ring.stretch import (
    MaterialisedStretch,
    SpeculativeStretch,
    Stretch,
    row_directions,
)
from repro.types import LocalDirection, Model, RoundOutcome

if TYPE_CHECKING:  # pragma: no cover - typing only (no runtime cycle)
    from repro.api.policy import PolicyLike

#: The canonical per-agent choice-function alias (re-exported by
#: :mod:`repro.api.policy`, which also defines the PolicyLike union).
ChoiceFn = Callable[[AgentView], LocalDirection]


class Scheduler:
    """Drives synchronous rounds and mediates all agent information flow.

    Attributes:
        simulator: The underlying round simulator (owns the world state).
        population: The columnar store of all agents' protocol memory
            (:class:`~repro.core.population.Population`); each view's
            ``memory`` is a per-slot adapter over it, and native
            whole-population policies read/write its columns directly.
            After every executed round ``population.last_obs`` holds the
            round's observations in slot order.
        views: One :class:`AgentView` per agent, in ring order.  The
            ordering is a harness artifact: protocol code must treat the
            list as an anonymous collection and derive nothing from an
            agent's position in it.
    """

    def __init__(
        self,
        state: RingState,
        model: Model = Model.BASIC,
        cross_validate: bool = False,
        backend: BackendSpec = None,
        faults: FaultPlanLike = None,
    ) -> None:
        self.simulator = RingSimulator(
            state, model, cross_validate, backend=backend
        )
        self.model = model
        # Adversarial execution (repro.faults): an active plan routes
        # every round through FaultInjector.transform, disables fused
        # stretch execution (injection is per-round by nature), and
        # enforces the plan's round budget.
        self.faults: Optional[FaultPlan] = FaultPlan.coerce(faults)
        if self.faults is not None:
            self._injector: Optional[FaultInjector] = FaultInjector(
                self.faults, state.n
            )
            self.simulator.idle_exempt = self._injector.idle_exempt
            self._round_budget = self.faults.round_budget
        else:
            self._injector = None
        self.population = Population(
            n=state.n,
            ids=state.ids,
            id_bound=state.id_bound,
            parity_even=state.parity_even,
        )
        self.views: List[AgentView] = [
            AgentView(
                agent_id=state.ids[i],
                id_bound=state.id_bound,
                parity_even=state.parity_even,
                model=model,
                memory=self.population.slot(i),
                log=self.population.log_view(i),
            )
            for i in range(state.n)
        ]

    @property
    def state(self) -> RingState:
        """The ground-truth world state (tests/benchmarks only --
        protocol code must never read this)."""
        return self.simulator.state

    @property
    def rounds(self) -> int:
        """Rounds executed so far (the paper's cost measure)."""
        return self.simulator.rounds_executed

    @property
    def supports_stretch(self) -> bool:
        """Whether spans are handed to the backend whole (fused).

        Always False under an active fault plan, where injection
        rewrites the direction vector round by round, and under
        cross-validation, where every round runs both engines.  Native
        policies plan the same spans either way; :meth:`run_stretch`
        then replays each one round by round.
        """
        if self._injector is not None or self.simulator.cross_validate:
            return False
        return getattr(self.simulator.backend, "supports_stretch", False)

    @property
    def array_module(self):
        """The numpy module when spans run fused with int64 ndarray
        columns, else None.  Native policies key the leaves of their
        one span plan off this: int8 sign rows and ndarray integer
        columns, or int-list sign rows and int-list integer columns.
        A policy's ``xp`` is None exactly when its spans' ``result.np``
        is.

        None also when the backend cannot fuse with int64 columns (a
        shared denominator past 2^61): its spans then replay round by
        round into int lists, where numerators cannot overflow.
        """
        if not self.supports_stretch:
            return None
        backend = self.simulator.backend
        if not getattr(backend, "_fusable", False):
            return None
        return getattr(backend, "np", None)

    def _decide(self, choose: PolicyLike):
        """One round's direction vector from a policy or a choice fn.

        A :class:`~repro.api.policy.Policy` (recognised structurally via
        its ``decide`` attribute, so this module never imports the api
        package) is consulted once for the whole population; a bare
        callable is consulted once per agent.  A policy may return a
        :class:`~repro.ring.stretch.Stretch` plan instead of a single
        vector; it is passed through for :meth:`run_round` to execute
        as a fused span.
        """
        decide = getattr(choose, "decide", None)
        if decide is None:
            return [choose(view) for view in self.views]
        directions = decide(self.views)
        if isinstance(directions, Stretch):
            return directions
        directions = list(directions)
        if len(directions) != len(self.views):
            raise SimulationError(
                f"policy returned {len(directions)} directions for "
                f"{len(self.views)} agents"
            )
        return directions

    def run_round(self, choose: PolicyLike) -> RoundOutcome:
        """Execute one round.

        Args:
            choose: Either a per-agent choice function (called once per
                agent with only that agent's view) or a whole-population
                :class:`~repro.api.policy.Policy` (its ``decide`` is
                called exactly once with all views).

        Returns:
            The omniscient outcome (for tests); each agent's observation
            has already been appended to its own log.  If the policy
            defines an ``observe`` hook it is called once with
            ``(views, outcome)`` after the logs are updated, so native
            policies can post population-level results back to columns
            without per-agent dispatch.
        """
        decision = self._decide(choose)
        if isinstance(decision, Stretch):
            return self._run_stretch(choose, decision)
        outcome = self._execute_round(decision)
        self.population.record_round(outcome.observations)
        observe = getattr(choose, "observe", None)
        if observe is not None:
            observe(self.views, outcome)
        return outcome

    def _execute_round(
        self, directions: List[LocalDirection]
    ) -> RoundOutcome:
        """Execute one direction vector, through the adversary if active.

        The single seam every scheduler-driven round passes through
        under an active fault plan: the injector rewrites the vector
        (delays, Byzantine corruption, crash-stop) and the plan's round
        budget is enforced before the simulator runs.
        """
        injector = self._injector
        if injector is not None:
            if self.simulator.rounds_executed >= self._round_budget:
                raise FaultBudgetError(
                    f"fault-injected run exceeded its "
                    f"{self._round_budget}-round budget"
                )
            directions = injector.transform(
                directions,
                self.simulator.rounds_executed,
                [view.memory for view in self.views],
            )
        return self.simulator.execute(directions)

    def crashed_slots(self) -> frozenset:
        """Slots already crash-stopped at the current round (empty when
        no fault plan is active).  Contention protocols consult this to
        model a crashed transmitter falling silent."""
        if self._injector is None:
            return frozenset()
        return self._injector.crashed_at(self.simulator.rounds_executed)

    def _run_stretch(self, choose: PolicyLike, stretch: Stretch):
        """Execute a fused span a policy returned from ``decide``.

        The span's rounds are filed in the history as lazy rows (agent
        logs materialise them only when read).  A policy defining
        ``observe_stretch`` gets the whole stretch outcome in one call;
        otherwise its per-round ``observe`` hook is replayed round by
        round with materialised outcomes.  Returns the stretch outcome.
        """
        result = self.run_stretch(stretch)
        observe_stretch = getattr(choose, "observe_stretch", None)
        if observe_stretch is not None:
            observe_stretch(self.views, result)
        else:
            observe = getattr(choose, "observe", None)
            if observe is not None:
                for j in range(result.k):
                    observe(self.views, result.outcome(j))
        return result

    def run_stretch(self, stretch: Stretch):
        """Execute a stretch plan directly (no policy dispatch).

        The entry point for phase drivers that build their own spans --
        the speculative sweeps and the Convolution/Pivot schedule hand
        a :class:`~repro.ring.stretch.SpeculativeStretch` here and read
        the committed rounds off the returned outcome (``result.k``;
        for a speculative plan that is the stop predicate's firing
        round, not the planned upper bound).  Every committed round is
        filed in the history as a lazy row, exactly as policy-returned
        stretches are.

        Under an active fault plan the span is unrolled and executed
        round by round through the injector (observations recorded
        eagerly); the stop predicate of a speculative plan is evaluated
        after each executed round, as on scalar backends.
        """
        if self._injector is None:
            result = self.simulator.execute_stretch(stretch)
            self.population.record_stretch(result)
            return result
        stop = (
            stretch.stop
            if isinstance(stretch, SpeculativeStretch)
            else None
        )
        outcomes = MaterialisedStretch(self.state.scale)
        population = self.population
        j = 0
        for row, count in stretch.pairs:
            directions = row_directions(row)
            for _ in range(count):
                outcome = self._execute_round(list(directions))
                outcomes.append(outcome)
                population.record_round(outcome.observations)
                if stop is not None and stop(outcomes, j):
                    return outcomes
                j += 1
        return outcomes

    def skip_restoring(self, row, k: int = 1) -> None:
        """Apply ``k`` rounds of ``row`` as their net rotation, unsimulated.

        Lemma 1: a round's entire effect on the world is a rotation, so
        the span's positions are committed directly; no rounds are
        counted and no observations are filed.  No phase driver calls
        this -- every REVERSEDROUND runs as a counted round -- and
        ``perfbench/tracing.py`` binds to it by name.
        """
        self.simulator.apply_restoring_span(row, k)

    def run_rounds(self, choose: PolicyLike, k: int) -> List[RoundOutcome]:
        """Execute at least ``k`` policy- or choice-driven rounds;
        returns one :class:`RoundOutcome` per executed round.

        The policy is re-consulted every round (protocol state may
        change), but repeated direction patterns hit the backend's
        memoised tables, so homogeneous stretches run at batched speed.
        A policy that returns a fused :class:`~repro.ring.stretch.
        Stretch` from ``decide`` contributes all of that span's rounds
        (materialised here); a stretch straddling the ``k``-th round is
        executed whole, so the result may hold more than ``k`` entries.
        """
        outcomes: List[RoundOutcome] = []
        while len(outcomes) < k:
            result = self.run_round(choose)
            if isinstance(result, RoundOutcome):
                outcomes.append(result)
            else:
                outcomes.extend(
                    result.outcome(j) for j in range(result.k)
                )
        return outcomes

    def run_fixed(
        self, direction: LocalDirection, k: int = 1
    ) -> RoundOutcome:
        """Every agent plays the same local direction for ``k`` rounds.

        Validation and chirality mapping happen once for the whole
        batch.  Returns the outcome of the *last* round (all rounds'
        observations are appended to the agent logs).
        """
        if k < 1:
            raise ValueError("run_fixed requires k >= 1")
        directions = [direction] * self.state.n
        if self._injector is not None:
            population = self.population
            for _ in range(k):
                outcome = self._execute_round(list(directions))
                population.record_round(outcome.observations)
            return outcome
        if self.supports_stretch:
            result = self.simulator.execute_stretch(
                Stretch(directions, k)
            )
            self.population.record_stretch(result)
            return result.outcome(result.k - 1)
        outcomes = self.simulator.execute_batch(directions, k)
        population = self.population
        for outcome in outcomes:
            population.record_round(outcome.observations)
        return outcomes[-1]

    def for_each_agent(self, fn: Callable[[AgentView], None]) -> None:
        """Run a local computation step on every agent."""
        for view in self.views:
            fn(view)

    def unanimous_memory(self, key: str) -> Optional[object]:
        """Return ``memory[key]`` iff all agents agree on it, else None.

        A *test* convenience for protocols whose outputs must be
        consensus values (e.g. the outcome of an emptiness test).
        Agreement is decided by value equality (``==``) -- not by
        comparing ``repr()`` strings, which conflates distinct values
        with identical printouts and splits equal values with unstable
        printouts (e.g. dict ordering).
        """
        values = [view.memory.get(key) for view in self.views]
        first = values[0]
        for value in values[1:]:
            if not (value == first):
                return None
        return first
