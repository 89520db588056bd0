"""Native rotation-index probes (vectorised twin of
:mod:`repro.protocols.rotation_probe`).

:class:`RotationProbePolicy` runs the probe-zero test (1 round + 1
restore) or the Lemma 2 classification (2 + 2) over one precomputed
direction vector, writing the same ``probe.zero`` / ``probe.class``
memory columns as the legacy per-agent driver.

Fused execution: the probe/restore pair is planned as one
:class:`~repro.ring.stretch.Stretch`, so on a stretch-capable backend
the restore round never materialises observations.  On every backend
the zero test / Lemma 2 classification read the probes' ``dist``
columns as integer numerators over the shared denominator (one
vectorised compare under numpy, one list pass otherwise) instead of
per-agent Fractions.
"""

from __future__ import annotations

from typing import Optional, Sequence, Set

from repro.core.scheduler import Scheduler
from repro.protocols.policies.base import (
    PhasePolicy,
    RIGHT,
    Vector,
)
from repro.protocols.rotation_probe import (
    KEY_PROBE_CLASS,
    KEY_PROBE_ZERO,
    RotationClass,
)
from repro.ring.stretch import Stretch
from repro.types import LocalDirection

#: Verdict per classification code: zero rotation, half turn, below
#: and above half.
_CLASSES = (
    RotationClass.ZERO,
    RotationClass.HALF,
    RotationClass.BELOW_HALF,
    RotationClass.ABOVE_HALF,
)


class RotationProbePolicy(PhasePolicy):
    """Probe one fixed round's rotation index, restoring positions.

    With ``classify=False`` (the RI-zero test): run the round once and
    post ``probe.zero`` -- 2 rounds with ``restore``.  With
    ``classify=True`` (Lemma 2): run it twice and post the per-slot
    :class:`~repro.protocols.rotation_probe.RotationClass` under
    ``probe.class`` -- 4 rounds with ``restore``.

    After :meth:`run`, :attr:`zero` / :attr:`verdict` hold the slot-0
    answer (triviality is consensus).
    """

    def __init__(
        self,
        sched: Scheduler,
        vector: Sequence[LocalDirection],
        classify: bool = False,
        restore: bool = True,
    ) -> None:
        super().__init__(sched)
        vector = list(vector)
        self.zero: Optional[bool] = None
        self.verdict: Optional[RotationClass] = None
        self._d1 = None  # first probe's dist numerators
        if classify:
            self.push_stretch(Stretch(vector, 1), self._harvest_first)
            self.push_stretch(
                lambda: Stretch(self.last_vector, 1), self._harvest_second
            )
            if restore:
                self.push_restore(2)
        else:
            if restore:
                self.push_probe_span(vector, self._harvest_zero)
            else:
                self.push_stretch(Stretch(vector, 1), self._harvest_zero)

    def _harvest_zero(self, result) -> None:
        dist = result.dist_ints(0)
        if result.np is not None:
            zeros = (dist == 0).tolist()
        else:
            zeros = [v == 0 for v in dist]
        self.population.set_column(KEY_PROBE_ZERO, zeros)
        self.zero = zeros[0]

    def _harvest_first(self, result) -> None:
        self._d1 = result.dist_ints(0)

    def _harvest_second(self, result) -> None:
        d1, d2, scale = self._d1, result.dist_ints(0), result.scale
        np = result.np
        if np is not None:
            total = d1 + d2
            codes = np.where(
                d1 == 0,
                0,
                np.where(
                    total == scale,
                    1,
                    np.where(total < scale, 2, 3),
                ),
            ).tolist()
        else:
            codes = [
                0 if a == 0
                else 1 if a + b == scale
                else 2 if a + b < scale
                else 3
                for a, b in zip(d1, d2)
            ]
        verdicts = [_CLASSES[c] for c in codes]
        self.population.set_column(KEY_PROBE_CLASS, verdicts)
        self.verdict = verdicts[0]
        self._d1 = None


def probe_zero(
    sched: Scheduler, vector: Sequence[LocalDirection], restore: bool = True
) -> bool:
    """Native twin of :func:`repro.protocols.rotation_probe.probe_zero`."""
    return RotationProbePolicy(sched, vector, restore=restore).run().zero


def classify_rotation(
    sched: Scheduler, vector: Sequence[LocalDirection], restore: bool = True
) -> RotationClass:
    """Native twin of
    :func:`repro.protocols.rotation_probe.classify_rotation`; returns
    the slot-0 verdict (triviality is consensus)."""
    policy = RotationProbePolicy(sched, vector, classify=True,
                                 restore=restore)
    return policy.run().verdict


def membership_vector(
    ids: Sequence[int],
    members: Set[int],
    member_dir: LocalDirection = RIGHT,
) -> Vector:
    """Column form of
    :func:`repro.protocols.rotation_probe.membership_choice`."""
    other = member_dir.opposite()
    return [member_dir if i in members else other for i in ids]


def ri_is_zero(
    sched: Scheduler, members: Set[int], restore: bool = True
) -> bool:
    """Native twin of :func:`repro.protocols.rotation_probe.ri_is_zero`."""
    vector = membership_vector(sched.population.ids, members)
    return probe_zero(sched, vector, restore=restore)
