"""Native neighbor discovery (vectorised twin of
:mod:`repro.protocols.neighbor_discovery`).

Algorithm 3's whole round plan is static -- 4 rounds per ID bit plus 4
uniform rounds -- so :class:`NeighborDiscoveryPolicy` plans every probe
at construction time as a local sign row derived from the ID column,
each with its REVERSEDROUND as one probe/restore span.  The harvests
keep each probe's ``coll()`` column as integer numerators over
``2 * scale`` (``-1`` = no collision): an int64 array under numpy, an
int list otherwise.  :meth:`finalize` takes each slot's nearest
collision on either side as an integer minimum -- masked column minima
over the stacked probe matrix under numpy, per-slot minima exactly as
the legacy driver takes them otherwise -- and posts the gap and
relative-chirality columns.  A gap is twice the nearest
first-collision arc, so its numerator over ``scale`` is that minimum
``coll()`` numerator; the gaps are the only Fractions the phase mints
(:func:`~repro.protocols.policies.base.intern_fractions`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, NoReturn, Optional

from repro.core.agent import id_bits
from repro.core.scheduler import Scheduler
from repro.exceptions import ProtocolError
from repro.protocols.neighbor_discovery import (
    KEY_GAP_LEFT,
    KEY_GAP_RIGHT,
    KEY_SAME_LEFT,
    KEY_SAME_RIGHT,
)
from repro.protocols.policies.base import PhasePolicy, intern_fractions
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
        #: Per probe: (sign row, coll numerator column).
        self._probes: List[tuple] = []
        self._uniform_r = None
        self._uniform_l = None
        self._scale = 0
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
            coll = result.coll_ints(0)
            self._scale = result.scale
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
        gap_right: List[int] = []
        gap_left: List[int] = []
        same_right: List[bool] = []
        same_left: List[bool] = []
        probes = self._probes
        for i in range(self.n):  # lint: allow[per-agent-loop] -- list-row finalize over ragged per-slot minima; the numpy path takes _finalize_vectorised above
            right_obs = [
                coll[i] for signs, coll in probes
                if signs[i] > 0 and coll[i] >= 0
            ]
            left_obs = [
                coll[i] for signs, coll in probes
                if signs[i] < 0 and coll[i] >= 0
            ]
            if not right_obs or not left_obs:
                self._no_collision(i)
            gr = min(right_obs)
            gl = min(left_obs)
            gap_right.append(gr)
            gap_left.append(gl)
            # Chirality: in the all-RIGHT round my right neighbor
            # approached me iff it is flipped relative to me.
            same_right.append(self._uniform_r[i] != gr)
            same_left.append(self._uniform_l[i] != gl)
        self._publish(gap_right, gap_left, same_right, same_left)

    def _finalize_vectorised(self) -> None:
        xp = self.xp
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
            self._no_collision(int(xp.argmax(missing)))
        self._publish(
            right_min.tolist(),
            left_min.tolist(),
            (self._uniform_r != right_min).tolist(),
            (self._uniform_l != left_min).tolist(),
        )

    def _no_collision(self, slot: int) -> NoReturn:
        raise ProtocolError(
            f"agent {self.population.ids[slot]} saw no collision on one "
            "side; impossible for n > 4 with unique IDs"
        )

    def _publish(self, gap_right: List[int], gap_left: List[int],
                 same_right: List[bool], same_left: List[bool]) -> None:
        """Post the four result columns; the gaps arrive as numerators
        over the harvests' scale."""
        population = self.population
        cache: Dict[int, Fraction] = {}
        scale = self._scale
        population.set_column(
            KEY_GAP_RIGHT, intern_fractions(gap_right, scale, cache)
        )
        population.set_column(
            KEY_GAP_LEFT, intern_fractions(gap_left, scale, cache)
        )
        population.set_column(KEY_SAME_RIGHT, same_right)
        population.set_column(KEY_SAME_LEFT, same_left)


def discover_neighbors(sched: Scheduler) -> None:
    """Native twin of Algorithm 3 (see :class:`NeighborDiscoveryPolicy`)."""
    NeighborDiscoveryPolicy(sched).run()
