"""Native Distances / Algorithm 6 (vectorised twin of
:mod:`repro.protocols.distances`).

The Convolution/Pivot *directions* are public (one pass over the label
column per round), but the phase is data-dependent in its ending: every
round's ``dist()``/``coll()`` observations feed each agent's equation
system, and the protocol is done exactly when every system reaches full
rank -- which Lemma 41 guarantees on the last Pivot round.  The whole
n/2 + 3 round schedule is therefore planned as one
:class:`~repro.ring.stretch.SpeculativeStretch`: the stop predicate
harvests round ``j``'s observation columns into the equation systems
and fires once all of them are full rank.  On every backend the
integer dist/coll columns feed straight into
:class:`~repro.analysis.int_equations.IntEquationSystem` as window
records over the shared denominator -- no ``Fraction(v, scale)`` per
cell, and each agent's system is a union-find on prefix sums with O(n)
integer state.  The solutions materialise as exact Fractions,
identical to the spec engine's, through one intern dict shared by
every agent, so the n x n gap table holds about n distinct objects.
A span that replays round by round (``fraction``, a fault plan,
cross-validation) interleaves the predicate with per-round execution
and derives the same columns from its rounds.  Either way the firing
round is the schedule's planned end, so the native driver stays
bit-exact with the callback reference.  ``engine="fraction"`` interns
the same integer columns into the exact-`Fraction`
:class:`~repro.analysis.equations.EquationSystem` spec (the
benchmark's baseline side); ``engine="cross"`` runs both engines in
lockstep and asserts identical rank trajectories and solutions, as
cross-validated runs do.

Reuses the legacy module's pure schedule helpers
(:func:`~repro.protocols.distances.convolution_direction`,
:func:`~repro.protocols.distances.pivot_direction`,
:func:`~repro.protocols.distances.coll_window`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from repro.analysis.equations import Equation, EquationSystem
from repro.analysis.int_equations import IntEquation, IntEquationSystem
from repro.core.scheduler import Scheduler
from repro.exceptions import ProtocolError
from repro.protocols.base import (
    KEY_FRAME_FLIP,
    KEY_LABEL,
    KEY_LD_GAPS,
    KEY_RING_SIZE,
)
from repro.protocols.distances import (
    coll_window,
    convolution_direction,
    pivot_direction,
)
from repro.protocols.policies.base import (
    LEFT,
    RIGHT,
    aligned_vector,
    intern_fractions,
)
from repro.ring.stretch import SpeculativeStretch
from repro.types import Model

#: One schedule entry: (moves_right, rho, rotation) exactly as the
#: legacy ``_run_structured_round`` consumes them.
_ScheduleEntry = Tuple[object, int, int]


def _schedule(n: int) -> List[_ScheduleEntry]:
    """The Convolution/Pivot schedule (n/2 rounds + 3 pivots)."""
    entries: List[_ScheduleEntry] = []
    for i in range(1, n // 2 + 1):
        exception = n - 2 * (i - 1)
        rho = (2 * (i - 1)) % n
        entries.append((convolution_direction(n, exception), rho, 2))
    # Cumulative rotation is now n = 0 (mod n): initial configuration.
    for j in (n, n - 1, n - 2):
        entries.append((pivot_direction(n, j), 0, 0))
    return entries


def _round_numerators(result, j: int, flips, flip_mask):
    """Round ``j``'s common-frame dist numerators (over ``scale``) and
    doubled-coll numerators (over ``scale``; ``-1`` = no collision) --
    the window equations' right-hand sides.  Under numpy the frame
    conversion is one vectorised ``where``."""
    scale = result.scale
    ints = result.dist_ints(j)
    # coll is over 2 * scale, so 2 * coll's numerator over scale is
    # coll's own.
    colls2 = result.coll_ints(j)
    xp = result.np
    if xp is not None:
        dists = xp.where(flip_mask & (ints != 0), scale - ints, ints)
        return dists.tolist(), colls2.tolist()
    return [
        scale - v if flip and v else v for flip, v in zip(flips, ints)
    ], colls2


def discover_distances(
    sched: Scheduler, engine: Optional[str] = None
) -> int:
    """Native twin of Algorithm 6.  Returns the rounds used (n/2 + 3);
    postcondition: every agent's gap vector under ``ld.gaps``.

    ``engine`` alone picks the equation backend: ``None``/``"int"``
    harvest into the prefix-sum :class:`IntEquationSystem`;
    ``"cross"`` does the same but shadows every system on a live
    :class:`EquationSystem` and asserts lockstep agreement (so does a
    cross-validated scheduler); ``"fraction"`` feeds the same integer
    columns, interned, to the exact-`Fraction` spec.
    """
    if engine not in (None, "int", "cross", "fraction"):
        raise ProtocolError(f"unknown equation engine {engine!r}")
    if sched.model is not Model.PERCEPTIVE:
        raise ProtocolError("Distances requires the perceptive model")
    population = sched.population
    for key in (KEY_LABEL, KEY_RING_SIZE, KEY_FRAME_FLIP):
        if not population.all_set(key):
            raise ProtocolError(f"Distances requires {key} to be set")
    n = population.column(KEY_RING_SIZE)[0]
    if n % 2 != 0:
        raise ProtocolError(
            "Distances requires even n; use the rotation sweeps for odd n"
        )

    labels = population.column(KEY_LABEL)
    flips = population.column(KEY_FRAME_FLIP)
    schedule = _schedule(n)
    rows = [
        aligned_vector(
            flips,
            [RIGHT if moves_right(label - 1) else LEFT for label in labels],
        )
        for moves_right, _rho, _rotation in schedule
    ]
    # Structural coll() windows, precomputed per (round, slot) -- the
    # schedule is public, only the observation values are not.
    windows = [
        [
            coll_window(n, moves_right, labels[slot] - 1, rho)
            for slot in range(population.n)
        ]
        for moves_right, rho, _rotation in schedule
    ]
    cache: Dict[int, Fraction] = {}
    one = Fraction(1)  # lint: allow[fraction-hot-path] -- one interned constant for the Fraction-spec engine, built once per discovery
    spec = engine == "fraction"
    cross_check = engine == "cross" or bool(
        getattr(sched.simulator, "cross_validate", False)
    )
    xp = sched.array_module
    flip_mask = None if xp is None else xp.asarray([bool(f) for f in flips])
    systems: List[object] = []

    def stop(result, j: int) -> bool:
        """Harvest round ``j``'s equations; fire at full rank."""
        scale = result.scale
        if not systems:
            # Every round of the phase shares one scale: the first
            # harvested round's.
            systems.extend(  # lint: allow[per-agent-loop] -- one-time O(N) system construction on the first harvested round, not per-round work
                EquationSystem(n) if spec
                else IntEquationSystem(n, scale, cross_check=cross_check)
                for _ in range(population.n)
            )
        _moves_right, rho, rotation = schedule[j]
        round_windows = windows[j]
        dists, colls2 = _round_numerators(result, j, flips, flip_mask)
        done = True
        if spec:
            # The Fraction spec engine, fed the same integer columns.
            fdists = intern_fractions(dists, scale, cache)
            fcolls2 = intern_fractions(colls2, scale, cache)
            for slot in range(population.n):  # lint: allow[per-agent-loop] -- Fraction-spec engine: per-slot appends against the executable spec, kept scalar on purpose
                label0 = labels[slot] - 1
                system = systems[slot]
                if rotation % n != 0:
                    system.add(Equation.window(
                        n, (label0 + rho) % n, rotation, one, fdists[slot]
                    ))
                window = round_windows[slot]
                if window is not None and fcolls2[slot] is not None:
                    start, hops = window
                    system.add(
                        Equation.window(n, start, hops, one, fcolls2[slot])
                    )
                if done and not system.full_rank:
                    done = False
            return done
        for slot in range(population.n):  # lint: allow[per-agent-loop] -- per-slot rank bookkeeping over already-columnar integer rows; each iteration is O(1) equation appends
            label0 = labels[slot] - 1
            system = systems[slot]
            if rotation % n != 0:
                system.add(
                    IntEquation((label0 + rho) % n, rotation, dists[slot])
                )
            window = round_windows[slot]
            if window is not None and colls2[slot] >= 0:
                start, hops = window
                system.add(IntEquation(start, hops, colls2[slot]))
            if done and not system.full_rank:
                done = False
        return done

    before = sched.rounds
    sched.run_stretch(
        SpeculativeStretch(pairs=[(row, 1) for row in rows], stop=stop)
    )

    if not systems:
        raise ProtocolError("the Convolution/Pivot schedule ran no rounds")
    gaps_column: List[List[Fraction]] = []
    # One intern dict for every agent's solve: all of them solve for
    # the same label-indexed gaps, so cells share about n objects.
    interned: Dict[int, Dict[int, Fraction]] = {}
    for slot, system in enumerate(systems):
        if not system.full_rank:
            raise ProtocolError(
                f"agent {population.ids[slot]} ended with rank "
                f"{system.rank} < {n}; the Convolution/Pivot schedule "
                "should reach full rank"
            )
        x = system.solve() if spec else system.solve(interned)
        label0 = labels[slot] - 1
        gaps_column.append([x[(label0 + k) % n] for k in range(n)])
    population.set_column(KEY_LD_GAPS, gaps_column)
    return sched.rounds - before
