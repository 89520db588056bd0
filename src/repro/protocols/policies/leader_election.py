"""Native leader election (vectorised twin of
:mod:`repro.protocols.leader_election`).

:class:`LeaderElectionPolicy` is Algorithm 2 as one whole-population
policy: per ID bit, one fused candidate probe/restore span whose local
sign row is built from the candidate state at decide time (an int8
array under numpy, an int list otherwise).  The span's harvest reads
the probe's ``dist() != 0`` column -- raw integers when the span ran
fused, observations when it ran round by round -- and refines the
candidate set.  The Lemma 13 emptiness-bisection route reuses the
native emptiness test.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.agent import id_bits
from repro.core.scheduler import Scheduler
from repro.exceptions import ProtocolError
from repro.protocols.base import KEY_FRAME_FLIP, KEY_LEADER, KEY_NMOVE_DIR
from repro.protocols.leader_election import _KEY_SAW_NONZERO
from repro.protocols.policies.base import (
    LEFT,
    PhasePolicy,
    RIGHT,
    require_column,
)
from repro.protocols.policies.emptiness import emptiness_test


class LeaderElectionPolicy(PhasePolicy):
    """Algorithm 2: refine the candidate set one ID bit at a time.

    Preconditions: ``nmove.dir`` and ``frame.flip`` columns are set.
    After :meth:`run`, exactly one slot holds ``leader.is_leader`` and
    :attr:`leader_id` is its ID.  Costs 2 rounds per ID bit, exactly
    like the legacy driver.
    """

    def __init__(self, sched: Scheduler) -> None:
        super().__init__(sched)
        population = self.population
        precondition = (
            "Algorithm 2 requires nontrivial move + direction agreement"
        )
        nmove = require_column(population, KEY_NMOVE_DIR, precondition)
        flips = require_column(population, KEY_FRAME_FLIP, precondition)
        # Candidates: agents that moved common-RIGHT in the nontrivial
        # round (aligned_direction(view, RIGHT) is nmove.dir).
        self._candidates = [
            (LEFT if flip else RIGHT) is direction
            for flip, direction in zip(flips, nmove)
        ]
        # Each slot's local sign for a common-RIGHT move.
        self._right = [-1 if flip else 1 for flip in flips]
        self.leader_id: Optional[int] = None
        for bit in range(id_bits(population.id_bound)):
            self.push_probe_span(
                lambda bit=bit: self._probe_row(bit),
                lambda result, bit=bit: self._harvest(result, bit),
            )

    def _probe_row(self, bit: int):
        """Local sign row of the probe RI(X0), X0 = candidates whose ID
        bit ``bit`` is 0: members move common-RIGHT, everyone else
        common-LEFT."""
        ids = self.population.ids
        return self.sign_row([
            sign if candidate and not (ids[i] >> bit) & 1 else -sign
            for i, (candidate, sign) in enumerate(
                zip(self._candidates, self._right)
            )
        ])

    def _harvest(self, result, bit: int) -> None:
        """File the probe's nonzero-``dist()`` column, then keep the
        candidate half whose rotation index was nonzero (slot 0's
        reading; every agent sees the same)."""
        ints = result.dist_ints(0)
        if ints is None:
            nonzeros = [o.dist != 0 for o in result.observations(0)]
        elif result.np is not None:
            nonzeros = (ints != 0).tolist()
        else:
            nonzeros = [v != 0 for v in ints]
        self.population.set_column(_KEY_SAW_NONZERO, nonzeros)
        keep_zero = nonzeros[0]
        ids = self.population.ids
        self._candidates = [
            candidate and (((ids[i] >> bit) & 1) == 0) == keep_zero
            for i, candidate in enumerate(self._candidates)
        ]

    def finalize(self) -> None:
        self.population.set_column(KEY_LEADER, list(self._candidates))
        self.leader_id = unique_leader_id(self.sched)


def unique_leader_id(sched: Scheduler) -> int:
    """The single elected leader's ID (raises unless exactly one)."""
    population = sched.population
    leaders_column = population.get_column(KEY_LEADER)
    leaders: List[int] = (
        []
        if leaders_column is None
        else [
            population.ids[i]
            for i, cell in enumerate(leaders_column)
            if cell is True
        ]
    )
    if len(leaders) != 1:
        raise ProtocolError(
            f"leader election produced {len(leaders)} leaders: {leaders}"
        )
    return leaders[0]


def elect_leader_with_nontrivial_move(sched: Scheduler) -> int:
    """Native twin of Algorithm 2 (see :class:`LeaderElectionPolicy`)."""
    return LeaderElectionPolicy(sched).run().leader_id


def elect_leader_common_sense(sched: Scheduler) -> int:
    """Native twin of Lemma 13: binary-search the ID space with
    emptiness tests; the smallest present ID leads."""
    population = sched.population
    lo, hi = 1, population.id_bound
    while lo < hi:
        mid = (lo + hi) // 2
        if emptiness_test(sched, range(lo, mid + 1)):
            lo = mid + 1
        else:
            hi = mid
    population.set_column(
        KEY_LEADER, [agent_id == lo for agent_id in population.ids]
    )
    return unique_leader_id(sched)
