"""Initial-configuration generators for experiments and tests.

Positions are produced as rationals with a power-of-two denominator so
that every quantity the simulator derives (collision times halve gaps)
keeps a small bounded denominator -- exact arithmetic stays fast.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Optional, Sequence

from repro.exceptions import ConfigurationError
from repro.ring.state import RingState
from repro.types import Chirality

_DEFAULT_DENOM_BITS = 20


def _sample(rng: random.Random, population: range, n: int) -> List[int]:
    """``n`` distinct draws from ``population``.  A negative ``n`` is a
    configuration error here, not ``random.sample``'s bare ValueError."""
    if n < 0:
        raise ConfigurationError(f"n must be non-negative; got n={n}")
    return rng.sample(population, n)


def _distinct_positions(
    rng: random.Random, n: int, denom_bits: int
) -> List[Fraction]:
    denom = 1 << denom_bits
    if n > denom:
        raise ConfigurationError("denominator too small for n distinct slots")
    ticks = _sample(rng, range(denom), n)
    ticks.sort()
    return [Fraction(t, denom) for t in ticks]


def _chiralities(
    rng: random.Random, n: int, common_sense: Optional[bool]
) -> List[Chirality]:
    if common_sense:
        return [Chirality.CLOCKWISE] * n
    flips = [rng.choice((Chirality.CLOCKWISE, Chirality.ANTICLOCKWISE))
             for _ in range(n)]
    if common_sense is False and len(set(flips)) == 1 and n > 1:
        # Guarantee at least one disagreement when explicitly asked for
        # a non-common sense of direction.
        flips[0] = flips[0].flipped()
    return flips


def _ids(rng: random.Random, n: int, id_bound: int) -> List[int]:
    if id_bound < n:
        raise ConfigurationError(f"id_bound {id_bound} < n {n}")
    return _sample(rng, range(1, id_bound + 1), n)


def random_configuration(
    n: int,
    id_bound: Optional[int] = None,
    seed: int = 0,
    common_sense: Optional[bool] = None,
    denom_bits: int = _DEFAULT_DENOM_BITS,
) -> RingState:
    """Uniformly random distinct positions, IDs and chiralities.

    Args:
        n: Number of agents (must exceed 4).
        id_bound: The ID range bound N; defaults to ``4 * n``.
        seed: PRNG seed -- configurations are reproducible.
        common_sense: ``True`` for a shared sense of direction, ``False``
            to force at least one flipped agent, ``None`` for uniform
            random chiralities.
        denom_bits: Positions are multiples of ``2**-denom_bits``.
    """
    rng = random.Random(seed)
    id_bound = id_bound if id_bound is not None else 4 * n
    return RingState(
        positions=_distinct_positions(rng, n, denom_bits),
        ids=_ids(rng, n, id_bound),
        chiralities=_chiralities(rng, n, common_sense),
        id_bound=id_bound,
    )


def jittered_equidistant_configuration(
    n: int,
    id_bound: Optional[int] = None,
    seed: int = 0,
    common_sense: Optional[bool] = None,
    jitter_bits: int = 8,
) -> RingState:
    """Near-equidistant agents with small random jitter.

    Near-symmetric placements are the stress case for protocols that
    infer structure from collision distances: many gaps are equal, so
    equality tests must rely on the protocol logic rather than generic
    position randomness.
    """
    rng = random.Random(seed)
    id_bound = id_bound if id_bound is not None else 4 * n
    denom = n * (1 << jitter_bits)
    positions = []
    for i in range(n):
        jitter = rng.randrange(1 << (jitter_bits - 1))
        positions.append(Fraction(i * (1 << jitter_bits) + jitter, denom))
    return RingState(
        positions=positions,
        ids=_ids(rng, n, id_bound),
        chiralities=_chiralities(rng, n, common_sense),
        id_bound=id_bound,
    )


def clustered_configuration(
    n: int,
    id_bound: Optional[int] = None,
    seed: int = 0,
    common_sense: Optional[bool] = None,
    cluster_span: Fraction = Fraction(1, 16),
) -> RingState:
    """All agents packed into a small arc of the circle.

    Adversarial for discovery protocols: one giant gap dominates, and
    collision cascades traverse the dense cluster.
    """
    rng = random.Random(seed)
    id_bound = id_bound if id_bound is not None else 4 * n
    denom_bits = _DEFAULT_DENOM_BITS
    denom = 1 << denom_bits
    span_ticks = int(cluster_span * denom)
    if span_ticks < n:
        raise ConfigurationError("cluster_span too small for n agents")
    ticks = _sample(rng, range(span_ticks), n)
    ticks.sort()
    positions = [Fraction(t, denom) for t in ticks]
    return RingState(
        positions=positions,
        ids=_ids(rng, n, id_bound),
        chiralities=_chiralities(rng, n, common_sense),
        id_bound=id_bound,
    )


def explicit_configuration(
    positions: Sequence[Fraction],
    ids: Sequence[int],
    chiralities: Sequence[Chirality],
    id_bound: int,
) -> RingState:
    """Build a :class:`RingState` from explicit components (validated)."""
    return RingState(
        positions=list(positions),
        ids=list(ids),
        chiralities=list(chiralities),
        id_bound=id_bound,
    )
