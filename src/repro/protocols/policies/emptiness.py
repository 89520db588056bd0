"""Native emptiness testing (vectorised twin of
:mod:`repro.protocols.emptiness`).

Same probe rounds per model (Lemma 12), same ``empty.result`` consensus
column.  Each probe and its REVERSEDROUND run as one span, and
occupancy evidence is OR-folded over the probe's ``dist()`` and
``coll()`` columns in one pass.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.core.population import MISSING
from repro.core.scheduler import Scheduler
from repro.exceptions import ProtocolError
from repro.protocols.base import KEY_FRAME_FLIP
from repro.protocols.emptiness import KEY_EMPTY_RESULT, _KEY_SAW
from repro.protocols.policies.base import (
    IDLE,
    LEFT,
    RIGHT,
    aligned_vector,
    require_column,
)
from repro.core.agent import id_bits
from repro.ring.stretch import Stretch
from repro.types import LocalDirection, Model


def _member_round(
    sched: Scheduler,
    members: set,
    non_member_dir: LocalDirection,
    saw: List[bool],
) -> None:
    """One probe + its reversal as one span; ORs occupancy evidence
    into ``saw``."""
    population = sched.population
    flips = require_column(
        population,
        KEY_FRAME_FLIP,
        "emptiness testing requires an established common frame",
    )
    commons = [
        RIGHT if agent_id in members else non_member_dir
        for agent_id in population.ids
    ]
    result = sched.run_stretch(
        Stretch.probe_restore(aligned_vector(flips, commons))
    )
    for i, (d, c) in enumerate(zip(result.dists(0), result.colls(0))):
        if d != 0 or c is not None:
            saw[i] = True


def emptiness_test(sched: Scheduler, candidate_ids: Iterable[int]) -> bool:
    """Native twin of :func:`repro.protocols.emptiness.emptiness_test`:
    every agent ends with the consensus verdict under ``empty.result``
    (True = empty)."""
    members = set(candidate_ids)
    population = sched.population
    model = sched.model
    parity_even = population.parity_even

    saw = [False] * population.n

    if model is Model.LAZY:
        _member_round(sched, members, IDLE, saw)
    elif model is Model.PERCEPTIVE or not parity_even:
        _member_round(sched, members, LEFT, saw)
    else:
        # Basic model, even n: probe B, then each bit-slice of B.
        _member_round(sched, members, LEFT, saw)
        for i in range(id_bits(population.id_bound)):
            slice_i = {x for x in members if (x >> i) & 1}
            _member_round(sched, slice_i, LEFT, saw)

    results = [
        False if agent_id in members else not saw[i]
        for i, agent_id in enumerate(population.ids)
    ]
    # Mirror the legacy driver exactly: it pops its occupancy scratch
    # key only for non-members, so member agents keep theirs.
    population.set_column(
        _KEY_SAW,
        [
            saw[i] if agent_id in members else MISSING
            for i, agent_id in enumerate(population.ids)
        ],
    )
    population.set_column(KEY_EMPTY_RESULT, results)
    if any(r != results[0] for r in results):
        raise ProtocolError("emptiness test reached no consensus: bug")
    return bool(results[0])
