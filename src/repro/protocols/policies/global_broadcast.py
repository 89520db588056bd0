"""Native rotation-coded broadcast (vectorised twin of
:mod:`repro.protocols.global_broadcast`): one probe/REVERSEDROUND span
per bit, decoded from the probe's ``dist()`` column."""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.agent import id_bits
from repro.core.scheduler import Scheduler
from repro.exceptions import ProtocolError
from repro.protocols.base import KEY_FRAME_FLIP
from repro.protocols.global_broadcast import KEY_BROADCAST_VALUE
from repro.protocols.policies.base import (
    LEFT,
    RIGHT,
    aligned_vector,
    require_column,
)
from repro.ring.stretch import Stretch


def broadcast_value(
    sched: Scheduler,
    announcers: Sequence[bool],
    values: Sequence[Optional[int]],
    width: Optional[int] = None,
    result_key: str = KEY_BROADCAST_VALUE,
) -> int:
    """Native twin of
    :func:`repro.protocols.global_broadcast.broadcast_value`: the unique
    slot with ``announcers[slot]`` set transmits ``values[slot]`` to
    everyone, one bit per (probe + restore) round pair."""
    population = sched.population
    flips = require_column(
        population, KEY_FRAME_FLIP, "global broadcast requires a common frame"
    )
    announcer_slots = [i for i, a in enumerate(announcers) if a]
    if len(announcer_slots) != 1:
        raise ProtocolError(
            "broadcast requires exactly one announcer, found "
            f"{len(announcer_slots)}"
        )
    value = values[announcer_slots[0]]
    if value is None or value < 0:
        raise ProtocolError("announcer must hold a non-negative value")
    bits = width if width is not None else id_bits(population.id_bound)
    if value >= (1 << bits):
        raise ProtocolError(f"value {value} does not fit in {bits} bits")

    acc: List[int] = [0] * population.n
    for bit in range(bits):
        commons = [
            RIGHT if announcers[i] and ((value >> bit) & 1) else LEFT
            for i in range(population.n)
        ]
        result = sched.run_stretch(
            Stretch.probe_restore(aligned_vector(flips, commons))
        )
        for i, d in enumerate(result.dists(0)):
            if d != 0:
                acc[i] |= 1 << bit

    population.set_column(result_key, acc)
    results = set(acc)
    if results != {value}:
        raise ProtocolError(f"broadcast diverged: {results} != {value}")
    return value
