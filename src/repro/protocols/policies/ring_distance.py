"""Native RingDist (vectorised twin of
:mod:`repro.protocols.ring_distance`).

Same Algorithm 5 phases -- seed flood, y-phase Shift(-k/2) blocks,
z-phase Shift(k), match, label flood, CheckCompleteness -- with every
Shift vector built in one pass from the label column and every flood
running through :class:`~repro.protocols.policies.bitcomm.RelayFloodPolicy`.
Each Shift block and its REVERSEDROUNDs run as one span: the y-phase's
k rounds plus their k restores, the z-phase and the completeness check
as probe/restore pairs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional

from repro.core.agent import id_bits
from repro.core.population import MISSING
from repro.core.scheduler import Scheduler
from repro.exceptions import ProtocolError
from repro.protocols.base import (
    KEY_FRAME_FLIP,
    KEY_LABEL,
    KEY_LEADER,
    KEY_RING_SIZE,
)
from repro.protocols.bitcomm import KEY_RECEIVED
from repro.protocols.neighbor_discovery import KEY_GAP_RIGHT
from repro.protocols.policies.base import (
    LEFT,
    RIGHT,
    Vector,
    aligned_vector,
    common_dists,
    require_column,
)
from repro.protocols.policies.bitcomm import RelayFloodPolicy
from repro.protocols.policies.global_broadcast import broadcast_value
from repro.protocols.ring_distance import (
    KEY_IS_LAST,
    _LEADER_MARKER_DISTANCE,
)
from repro.ring.stretch import Stretch, opposite_row
from repro.types import Model


def _common_side(flip: bool, own_side: str) -> str:
    if not flip:
        return own_side
    return "left" if own_side == "right" else "right"


def _shift_vector(
    labels: List[Optional[int]],
    flips: List[bool],
    threshold: int,
    low_right: bool,
) -> Vector:
    """Shift rounds: labels <= ``threshold`` move common-RIGHT iff
    ``low_right``; everyone else moves the opposite way."""
    commons = []
    for label in labels:
        low = label is not None and label <= threshold
        commons.append(RIGHT if low == low_right else LEFT)
    return aligned_vector(flips, commons)


def _seed_labels_from_leader(sched: Scheduler) -> None:
    """Leader marker flood: labels 2..5 learned; a_n identified."""
    population = sched.population
    leaders = population.get_column(KEY_LEADER)
    is_leader = [
        cell is not MISSING and bool(cell) for cell in (leaders or [])
    ] or [False] * population.n
    labels = population.set_column(
        KEY_LABEL, [1 if lead else None for lead in is_leader]
    )
    is_last = population.fill(KEY_IS_LAST, False)
    flips = population.column(KEY_FRAME_FLIP)

    RelayFloodPolicy(
        sched,
        [1 if lead else None for lead in is_leader],
        distance=_LEADER_MARKER_DISTANCE,
        width=1,
    ).run()

    received = population.column(KEY_RECEIVED)
    for i in range(population.n):
        for own_side, hop, _value in received[i]:
            side = _common_side(flips[i], own_side)
            if side == "left":
                # The leader is hop places common-anticlockwise of me.
                if labels[i] is None:
                    labels[i] = 1 + hop
            else:
                if hop == 1:
                    is_last[i] = True


def _check_completeness(sched: Scheduler) -> bool:
    """One probe/restore span; True iff a_n (hence everyone) is
    labelled."""
    population = sched.population
    labels = population.column(KEY_LABEL)
    is_last = population.column(KEY_IS_LAST)
    flips = population.column(KEY_FRAME_FLIP)
    commons = [
        RIGHT if is_last[i] and labels[i] else LEFT
        for i in range(population.n)
    ]
    result = sched.run_stretch(
        Stretch.probe_restore(aligned_vector(flips, commons))
    )
    return result.dists(0)[0] != 0


def ring_distances(sched: Scheduler, on_iteration=None) -> None:
    """Native twin of Algorithm 5: assign every agent its 1-based ring
    label under ``ringdist.label``."""
    if sched.model is not Model.PERCEPTIVE:
        raise ProtocolError("RingDist requires the perceptive model")
    population = sched.population
    if not population.all_set(KEY_GAP_RIGHT):
        raise ProtocolError("RingDist requires neighbor discovery")
    flips = require_column(
        population, KEY_FRAME_FLIP, "RingDist requires a common frame"
    )

    n = population.n
    label_width = id_bits(population.id_bound)
    _seed_labels_from_leader(sched)
    if on_iteration is not None:
        on_iteration(1)
    if _check_completeness(sched):
        return

    labels = population.column(KEY_LABEL)
    max_iterations = id_bits(population.id_bound) + 2
    for i in range(1, max_iterations + 1):
        k = 1 << i

        # --- y-phase: k Shift(-k/2) rounds, then their k restores ----
        shift = _shift_vector(labels, flips, k // 2, low_right=False)
        result = sched.run_stretch(
            Stretch(pairs=[(shift, k), (opposite_row(shift), k)])
        )
        ys: List[List[Fraction]] = [[] for _ in range(n)]
        for j in range(k):
            for slot, d in enumerate(common_dists(flips, result.dists(j))):
                if d == 0:
                    raise ProtocolError(
                        "Shift(-k/2) had rotation 0: k reached n; "
                        "the completeness check should have fired earlier"
                    )
                ys[slot].append(Fraction(1) - d)  # lint: allow[fraction-hot-path] -- y-phase harvest off common_dists, the documented Fraction boundary of this protocol

        # --- z-phase: Shift(k) and its restore --------------------------
        result = sched.run_stretch(Stretch.probe_restore(
            _shift_vector(labels, flips, k, low_right=True)
        ))
        zs = result.colls(0)

        # --- match ----------------------------------------------------
        fresh = [False] * n
        for slot in range(n):
            label = labels[slot]
            if label is not None:
                # The paper's marking excludes only a_1..a_k; an agent
                # that already knows a label of the form k + jk must
                # still flood it (it may be the only source reaching
                # the not-yet-labelled tail of the ring).
                j, rem = divmod(label - k, k)
                fresh[slot] = rem == 0 and 1 <= j <= k
                continue
            z = zs[slot]
            if z is None:
                continue
            prefix = Fraction(0)  # lint: allow[fraction-hot-path] -- bounded match-phase accumulator (at most k terms per doubling step), off the per-round path
            for j, y in enumerate(ys[slot], start=1):
                prefix += y
                if 2 * z == prefix:
                    labels[slot] = k + j * k
                    fresh[slot] = True
                    break

        # --- label flood ----------------------------------------------
        RelayFloodPolicy(
            sched,
            [labels[slot] if fresh[slot] else None for slot in range(n)],
            distance=k,
            width=label_width,
        ).run()

        received = population.column(KEY_RECEIVED)
        for slot in range(n):
            if labels[slot] is not None:
                continue
            for own_side, hop, sender_label in received[slot]:
                side = _common_side(flips[slot], own_side)
                label = (
                    sender_label + hop
                    if side == "left"
                    else sender_label - hop
                )
                if label >= 1:
                    labels[slot] = label
                    break

        if on_iteration is not None:
            on_iteration(k)
        if _check_completeness(sched):
            return

    raise ProtocolError("RingDist did not converge: bug")


def publish_ring_size(sched: Scheduler) -> int:
    """Native twin of
    :func:`repro.protocols.ring_distance.publish_ring_size`."""
    population = sched.population
    is_last_column = population.get_column(KEY_IS_LAST)
    is_last = [
        cell is not MISSING and bool(cell)
        for cell in (is_last_column or [MISSING] * population.n)
    ]
    labels = population.get_column(KEY_LABEL)
    values = (
        [None] * population.n
        if labels is None
        else [None if cell is MISSING else cell for cell in labels]
    )
    return broadcast_value(
        sched,
        announcers=is_last,
        values=values,
        result_key=KEY_RING_SIZE,
    )
