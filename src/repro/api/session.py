"""RingSession: the one-stop entry point for driving a ring.

A session bundles a world state, a scheduler (with its kinematics
backend) and the protocol registry behind a single builder::

    session = RingSession(n=16, model="perceptive", backend="array",
                          seed=7)
    result = session.run("location-discovery")

``backend=`` accepts ``"array"`` (default: integer rounds plus
whole-column fused stretches, numpy-accelerated when numpy is
installed) or ``"fraction"`` (the exact executable spec) -- results
are bit-identical across both for both drivers.

Sessions can also wrap existing objects (:meth:`RingSession.from_state`,
:meth:`RingSession.from_scheduler`), plan a protocol without running it
(:meth:`plan`), execute it phase by phase (:meth:`step` /
:meth:`resume`), and drive ad-hoc rounds with a
:class:`~repro.api.policy.Policy` (:meth:`run_round`,
:meth:`run_rounds`, :meth:`run_fixed`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.api.policy import PolicyLike
from repro.api.registry import (
    Phase,
    ProtocolSpec,
    get_protocol,
    resolve_driver,
)
from repro.core.agent import AgentView
from repro.core.scheduler import Scheduler
from repro.exceptions import ConfigurationError, ProtocolError
from repro.faults.plan import FaultPlan, FaultPlanLike
from repro.ring.backends import BACKEND_NAMES, DEFAULT_BACKEND, BackendSpec
from repro.ring.state import RingState
from repro.types import LocalDirection, Model, RoundOutcome

#: Named initial-configuration generators accepted by the builder.
_CONFIGS = {
    "random": "random_configuration",
    "jittered": "jittered_equidistant_configuration",
    "clustered": "clustered_configuration",
}


def _resolve_model(model: Union[Model, str]) -> Model:
    return model if isinstance(model, Model) else Model(model)


class RingSession:
    """One ring, one scheduler, one protocol run (or many ad-hoc rounds).

    Attributes:
        scheduler: The underlying :class:`~repro.core.scheduler.Scheduler`.
        common_sense: Whether the agents share a sense of direction (the
            Table II setting); threads into protocol planning, and into
            configuration generation when the session builds its own
            state.
        driver: Which phase implementation protocol plans use:
            ``"native"`` (whole-population policies over columnar state,
            the default) or ``"callback"`` (the legacy per-agent
            reference drivers).  The two are bit-exact.
    """

    def __init__(
        self,
        n: Optional[int] = None,
        *,
        model: Union[Model, str, None] = None,
        backend: BackendSpec = None,
        seed: Optional[int] = None,
        common_sense: bool = False,
        driver: Optional[str] = None,
        id_bound: Optional[int] = None,
        config: Optional[str] = None,
        state: Optional[RingState] = None,
        scheduler: Optional[Scheduler] = None,
        cross_validate: bool = False,
        cache: bool = False,
        cache_dir: Optional[str] = None,
        faults: FaultPlanLike = None,
    ) -> None:
        self.common_sense = common_sense
        self.driver = resolve_driver(driver)
        self.cache = cache
        self.cache_dir = cache_dir
        #: The normalised fault plan (None when fault-free); accepts a
        #: FaultPlan, a JSON string or a document dict (CLI:
        #: ``--faults``).  An empty plan normalises to None, so a
        #: ``FaultPlan.none()`` session is structurally identical to a
        #: plain one.
        self.faults: Optional[FaultPlan] = FaultPlan.coerce(faults)
        #: SessionSpec kwargs (minus protocol) when this session was
        #: built from generator arguments and is therefore addressable
        #: in the run store; ``None`` means "always compute".
        self._cache_args: Optional[Dict[str, object]] = None
        if scheduler is not None:
            # A scheduler already fixes every one of these; accepting an
            # override here would silently run with the scheduler's own
            # values (e.g. a cross-backend comparison comparing one
            # backend against itself).
            ignored = [
                name
                for name, given in (
                    ("n", n is not None),
                    ("state", state is not None),
                    ("model", model is not None),
                    ("backend", backend is not None),
                    ("seed", seed is not None),
                    ("id_bound", id_bound is not None),
                    ("config", config is not None),
                    ("cross_validate", cross_validate),
                    ("faults", self.faults is not None),
                )
                if given
            ]
            if ignored:
                raise ConfigurationError(
                    "pass scheduler= alone: it already fixes "
                    + ", ".join(ignored)
                )
            self.scheduler = scheduler
            self.faults = scheduler.faults
        else:
            if backend is None:
                backend_label: Optional[str] = DEFAULT_BACKEND
            elif isinstance(backend, str):
                backend_label = backend
            else:
                backend_label = getattr(backend, "name", None)
            model = _resolve_model(model) if model is not None else Model.BASIC
            if state is None:
                if n is None:
                    raise ConfigurationError(
                        "RingSession needs n=, state= or scheduler="
                    )
                # Generator-built sessions are fully described by plain
                # data, so their runs are addressable in the run store.
                # Wrapped states, cross-validating schedulers and
                # unregistered backend objects always compute.
                if (
                    not cross_validate
                    and isinstance(backend_label, str)
                    and backend_label in BACKEND_NAMES
                ):
                    self._cache_args = {
                        "n": n,
                        "model": model.value,
                        "backend": backend_label,
                        "seed": seed if seed is not None else 0,
                        "common_sense": common_sense,
                        "id_bound": id_bound,
                        "config": config if config is not None else "random",
                        "driver": self.driver,
                        "faults": (
                            self.faults.canonical()
                            if self.faults is not None
                            else None
                        ),
                    }
                state = self._build_state(
                    config if config is not None else "random",
                    n=n,
                    seed=seed if seed is not None else 0,
                    id_bound=id_bound,
                    common_sense=common_sense,
                )
            else:
                # These only parameterise configuration *generation*;
                # accepting them alongside an explicit state would
                # silently hand back the state unchanged.
                ignored = [
                    name
                    for name, given in (
                        ("seed", seed is not None),
                        ("id_bound", id_bound is not None),
                        ("config", config is not None),
                    )
                    if given
                ]
                if ignored:
                    raise ConfigurationError(
                        "pass either state= or the generator arguments "
                        + ", ".join(ignored)
                        + ", not both"
                    )
                if n is not None and n != state.n:
                    raise ConfigurationError(
                        f"n={n} contradicts the given state (n={state.n})"
                    )
            self.scheduler = Scheduler(
                state, model, cross_validate, backend=backend,
                faults=self.faults,
            )
        self._spec: Optional[ProtocolSpec] = None
        self._pending: List[Phase] = []
        self.phase_rounds: Dict[str, int] = {}
        self.phase_drivers: Dict[str, str] = {}

    @staticmethod
    def _build_state(
        config: str,
        *,
        n: int,
        seed: int,
        id_bound: Optional[int],
        common_sense: bool,
    ) -> RingState:
        from repro.ring import configs

        fn_name = _CONFIGS.get(config)
        if fn_name is None:
            known = ", ".join(sorted(_CONFIGS))
            raise ConfigurationError(
                f"unknown configuration generator {config!r}; known: {known}"
            )
        fn = getattr(configs, fn_name)
        return fn(n, seed=seed, id_bound=id_bound, common_sense=common_sense)

    @classmethod
    def from_state(
        cls,
        state: RingState,
        *,
        model: Union[Model, str] = Model.BASIC,
        backend: BackendSpec = None,
        common_sense: bool = False,
        driver: Optional[str] = None,
        cross_validate: bool = False,
        faults: FaultPlanLike = None,
    ) -> "RingSession":
        """Wrap an existing world state (the caller keeps ownership)."""
        return cls(
            state=state, model=model, backend=backend,
            common_sense=common_sense, driver=driver,
            cross_validate=cross_validate, faults=faults,
        )

    @classmethod
    def from_scheduler(
        cls,
        scheduler: Scheduler,
        *,
        common_sense: bool = False,
        driver: Optional[str] = None,
    ) -> "RingSession":
        """Wrap an existing scheduler (continuing its round count)."""
        return cls(
            scheduler=scheduler, common_sense=common_sense, driver=driver
        )

    # -- passthroughs ---------------------------------------------------

    @property
    def state(self) -> RingState:
        """The ground-truth world state (tests/benchmarks only)."""
        return self.scheduler.state

    @property
    def model(self) -> Model:
        return self.scheduler.model

    @property
    def views(self) -> List[AgentView]:
        return self.scheduler.views

    @property
    def rounds(self) -> int:
        """Rounds executed so far (the paper's cost measure)."""
        return self.scheduler.rounds

    @property
    def backend_name(self) -> str:
        return self.scheduler.simulator.backend.name

    def run_round(self, policy: PolicyLike) -> RoundOutcome:
        """Execute one ad-hoc round with a policy or choice function."""
        return self.scheduler.run_round(policy)

    def run_rounds(self, policy: PolicyLike, k: int) -> List[RoundOutcome]:
        """Execute ``k`` ad-hoc rounds with a policy or choice function."""
        return self.scheduler.run_rounds(policy, k)

    def run_fixed(self, direction: LocalDirection, k: int = 1) -> RoundOutcome:
        """Every agent plays ``direction`` for ``k`` rounds (batched)."""
        return self.scheduler.run_fixed(direction, k)

    # -- protocol execution ---------------------------------------------

    def plan(self, protocol: Union[str, ProtocolSpec]) -> List[Phase]:
        """The phase list ``protocol`` would run in this session's
        setting, without executing anything.

        Raises:
            InfeasibleProblemError: for settings the paper proves
                unsolvable (e.g. location discovery, basic model, even n).
        """
        spec = (
            protocol
            if isinstance(protocol, ProtocolSpec)
            else get_protocol(protocol)
        )
        return spec.plan(self.scheduler, self.common_sense, self.driver)

    def start(self, protocol: Union[str, ProtocolSpec]) -> List[Phase]:
        """Plan ``protocol`` and stage its phases for :meth:`step` /
        :meth:`resume`; returns the planned phases."""
        spec = (
            protocol
            if isinstance(protocol, ProtocolSpec)
            else get_protocol(protocol)
        )
        phases = spec.plan(self.scheduler, self.common_sense, self.driver)
        self._spec = spec
        self._pending = list(phases)
        self.phase_rounds = {}
        self.phase_drivers = {}
        return phases

    @property
    def pending_phases(self) -> List[Phase]:
        """Phases staged but not yet executed."""
        return list(self._pending)

    def step(self) -> Tuple[str, int]:
        """Execute the next staged phase; returns ``(name, rounds)``."""
        if not self._pending:
            raise ProtocolError(
                "no staged phase to step; call start(protocol) first"
            )
        phase = self._pending.pop(0)
        before = self.scheduler.rounds
        phase.run(self.scheduler)
        used = self.scheduler.rounds - before
        self.phase_rounds[phase.name] = used
        self.phase_drivers[phase.name] = phase.driver
        return phase.name, used

    def resume(self) -> object:
        """Run all remaining staged phases and collect the result."""
        if self._spec is None:
            raise ProtocolError(
                "no protocol in progress; call start(protocol) or "
                "run(protocol)"
            )
        while self._pending:
            self.step()
        return self._spec.collect(self.scheduler, dict(self.phase_rounds))

    def run(self, protocol: Union[str, ProtocolSpec]) -> object:
        """Plan and execute ``protocol`` end to end; returns its result
        (e.g. :class:`~repro.protocols.base.LocationDiscoveryResult`).

        With ``cache=True`` (strictly opt-in for sessions -- a fetched
        run leaves the scheduler untouched, which matters to callers
        that inspect ring state afterwards), the run store is consulted
        first: a hit returns the stored result rebuilt into its result
        object, bit-identical to computing; a miss computes here and
        files the result.  ``phase_rounds`` is populated either way
        (``phase_drivers`` reads ``"cached"`` on a hit).
        """
        if (
            self.cache
            and isinstance(protocol, str)
            and self._cache_args is not None
            and self.scheduler.rounds == 0
            # Faulted runs are addressable but always computed: their
            # outcome may be an error, which the store's result
            # envelope does not model.
            and self.faults is None
        ):
            result = self._run_cached(protocol)
            if result is not None:
                return result
        self.start(protocol)
        return self.resume()

    def _run_cached(self, protocol: str) -> Optional[object]:
        """Compute-or-fetch ``protocol`` through the run store.

        Returns the result object, or ``None`` when the spec turned out
        uncacheable (caller computes as if caching were off).
        """
        from repro.api.fleet import SessionSpec
        from repro.protocols.base import result_from_dict
        from repro.store.keys import safe_key
        from repro.store.service import get_store

        spec = SessionSpec(protocol=protocol, **self._cache_args)  # type: ignore[arg-type]
        keyed = safe_key(spec)
        if keyed is None:
            return None
        digest, key_doc = keyed
        store = get_store(self.cache_dir)
        entry = store.get(digest)
        if entry is not None:
            payload = entry["result"]
            result = result_from_dict(payload)  # type: ignore[arg-type]
            rounds_by_phase = payload.get("rounds_by_phase", {})  # type: ignore[union-attr]
            self._spec = get_protocol(protocol)
            self._pending = []
            rounds = {
                str(name): int(count)  # type: ignore[arg-type]
                for name, count in dict(rounds_by_phase).items()
            }
            # The stored envelope sorts keys; the key document's phase
            # list restores plan order for display parity with a
            # computed run.
            self.phase_rounds = {
                name: rounds.pop(name)
                for name in key_doc.get("phases", [])  # type: ignore[union-attr]
                if name in rounds
            }
            self.phase_rounds.update(rounds)
            self.phase_drivers = {
                name: "cached" for name in self.phase_rounds
            }
            return result
        self.start(protocol)
        result = self.resume()
        store.put(
            digest,
            result.to_dict(),  # type: ignore[attr-defined]
            key=key_doc,
            spec=spec.to_dict(),
            backend=spec.backend,
        )
        return result
