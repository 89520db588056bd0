"""Native neighbor discovery (vectorised twin of
:mod:`repro.protocols.neighbor_discovery`).

Algorithm 3's whole round plan is static -- 4 rounds per ID bit plus 4
uniform rounds -- so :class:`NeighborDiscoveryPolicy` plans every probe
at construction time as a local sign row derived from the ID column,
each with its REVERSEDROUND as one probe/restore span.  The harvests
keep each probe's ``coll()`` column: raw integers under numpy (over
``2 * scale``, ``-1`` = no collision), interned Fractions otherwise.
:meth:`finalize` posts the gap and relative-chirality columns -- under
numpy from masked column minima over the stacked probe matrix plus one
interning pass for the gap Fractions, otherwise from per-slot minima
exactly as the legacy driver takes them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional

from repro.core.agent import id_bits
from repro.core.scheduler import Scheduler
from repro.exceptions import ProtocolError
from repro.protocols.neighbor_discovery import (
    KEY_GAP_LEFT,
    KEY_GAP_RIGHT,
    KEY_SAME_LEFT,
    KEY_SAME_RIGHT,
)
from repro.protocols.policies.base import PhasePolicy
from repro.ring.stretch import Row
from repro.types import Model


class NeighborDiscoveryPolicy(PhasePolicy):
    """Algorithm 3 as one native policy: learn both gaps and both
    neighbors' relative chirality in ``4 * id_bits(N) + 4`` rounds."""

    def __init__(self, sched: Scheduler) -> None:
        if sched.model is not Model.PERCEPTIVE:
            raise ProtocolError(
                "neighbor discovery requires the perceptive model"
            )
        super().__init__(sched)
        n = self.n
        ids = self.population.ids
        #: Per probe: (sign row, coll column).
        self._probes: List[tuple] = []
        self._uniform_r = None
        self._uniform_l = None
        for bit in range(id_bits(self.population.id_bound)):
            signs = [1 if (agent_id >> bit) & 1 else -1 for agent_id in ids]
            self._plan_probe(self.sign_row(signs))
            self._plan_probe(self.sign_row([-s for s in signs]))
        self._plan_probe(self.sign_row([1] * n), uniform="r")
        self._plan_probe(self.sign_row([-1] * n), uniform="l")

    def _plan_probe(self, signs: Row, uniform: Optional[str] = None) -> None:
        """Probe/restore span; the harvest files the probe's coll
        column with the row that produced it."""

        def harvest(result) -> None:
            xp = self.xp
            if xp is None:
                coll = result.colls(0)
            else:
                coll = result.coll_ints(0)
                if coll is None or result.np is None:
                    # Span replayed round by round (cross-validation):
                    # rebuild the integer column exactly (colls are on
                    # the 1/(2*scale) grid).
                    twice = 2 * self.sched.simulator.backend.scale
                    coll = xp.asarray(
                        [
                            -1 if c is None else int(c * twice)
                            for c in result.colls(0)
                        ],
                        dtype=xp.int64,
                    )
            self._probes.append((signs, coll))
            if uniform == "r":
                self._uniform_r = coll
            elif uniform == "l":
                self._uniform_l = coll

        self.push_probe_span(signs, harvest)

    def finalize(self) -> None:
        if self.xp is not None:
            self._finalize_vectorised()
            return
        population = self.population
        gap_right: List[Fraction] = []
        gap_left: List[Fraction] = []
        same_right: List[bool] = []
        same_left: List[bool] = []
        probes = self._probes
        for i in range(self.n):  # lint: allow[per-agent-loop] -- list-row finalize over ragged per-slot minima; the numpy path takes _finalize_vectorised above
            right_obs = [
                coll[i] for signs, coll in probes
                if signs[i] > 0 and coll[i] is not None
            ]
            left_obs = [
                coll[i] for signs, coll in probes
                if signs[i] < 0 and coll[i] is not None
            ]
            if not right_obs or not left_obs:
                raise ProtocolError(
                    f"agent {population.ids[i]} saw no collision on one "
                    "side; impossible for n > 4 with unique IDs"
                )
            gr = 2 * min(right_obs)
            gl = 2 * min(left_obs)
            gap_right.append(gr)
            gap_left.append(gl)
            # Chirality: in the all-RIGHT round my right neighbor
            # approached me iff it is flipped relative to me.
            same_right.append(self._uniform_r[i] != gr / 2)
            same_left.append(self._uniform_l[i] != gl / 2)
        population.set_column(KEY_GAP_RIGHT, gap_right)
        population.set_column(KEY_GAP_LEFT, gap_left)
        population.set_column(KEY_SAME_RIGHT, same_right)
        population.set_column(KEY_SAME_LEFT, same_left)

    def _finalize_vectorised(self) -> None:
        xp = self.xp
        population = self.population
        colls = xp.stack([coll for _signs, coll in self._probes])
        moved_right = xp.stack([signs > 0 for signs, _coll in self._probes])
        seen = colls >= 0
        none_seen = 1 << 62
        right_min = xp.min(
            xp.where(moved_right & seen, colls, none_seen), axis=0
        )
        left_min = xp.min(
            xp.where(~moved_right & seen, colls, none_seen), axis=0
        )
        missing = (right_min >= none_seen) | (left_min >= none_seen)
        if bool(missing.any()):
            i = int(xp.argmax(missing))
            raise ProtocolError(
                f"agent {population.ids[i]} saw no collision on one "
                "side; impossible for n > 4 with unique IDs"
            )
        # coll numerators are over 2 * scale, so the gap (twice the
        # nearest first-collision arc) is min/scale -- one interning
        # pass builds the same Fraction values the legacy driver posts.
        backend = self.sched.simulator.backend
        frac1 = backend._frac1
        population.set_column(
            KEY_GAP_RIGHT, [frac1(v) for v in right_min.tolist()]
        )
        population.set_column(
            KEY_GAP_LEFT, [frac1(v) for v in left_min.tolist()]
        )
        population.set_column(
            KEY_SAME_RIGHT, (self._uniform_r != right_min).tolist()
        )
        population.set_column(
            KEY_SAME_LEFT, (self._uniform_l != left_min).tolist()
        )


def discover_neighbors(sched: Scheduler) -> None:
    """Native twin of Algorithm 3 (see :class:`NeighborDiscoveryPolicy`)."""
    NeighborDiscoveryPolicy(sched).run()
