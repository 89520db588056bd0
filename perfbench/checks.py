"""Ground-truth checks on protocol results and the canonical result digest.

Every check works on a result's ``to_dict()`` payload (or, for a gap
matrix, the result's own Fractions) and the ring state the session
started from, so the same code checks a session the benchmark drove
itself and a row a fleet worker sent back.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterator, List, Optional, Sequence


def check_result(payload: Dict[str, object], state) -> Optional[str]:
    """None when ``payload`` (a ``to_dict()``) is right for ``state``,
    else the reason."""
    kind = payload.get("kind")
    if kind == "location_discovery":
        true = [str(gap) for gap in state.initial_gaps()]
        return check_gaps(payload["gaps_by_agent"], true)  # type: ignore[arg-type]
    if kind == "coordination":
        if payload.get("leader_id") not in state.ids:
            return f"leader {payload.get('leader_id')!r} is not a ring id"
        return None
    if kind == "contention":
        if payload["undelivered"]:
            return f"undelivered messages: {payload['undelivered']}"
        if sorted(payload["delivered_order"]) != list(range(state.n)):  # type: ignore[arg-type]
            return "delivered order is not one message per agent"
        return None
    return f"unknown result kind {kind!r}"


def check_gaps(rows: Sequence[Sequence[object]], true: List[object]
               ) -> Optional[str]:
    """Every agent's gap vector is the true initial gap vector ``true``
    read from its own slot, all agents in one common orientation
    (clockwise, or all counter-clockwise).

    ``rows`` and ``true`` hold the same kind of value: the result's
    Fractions and ``state.initial_gaps()``, or ``to_dict()``'s strings
    and theirs.  Row 0 is compared with the truth value by value; every
    other row is compared with a rotation of row 0.  The result interns
    its gaps (a 4096-agent result holds 16.8M cells but under a thousand
    distinct objects), so those comparisons mostly stop at identity.
    """
    n = len(true)
    if len(rows) != n:
        return f"{len(rows)} gap vectors for {n} agents"
    first = list(rows[0])
    # Counter-clockwise, agent i reads the reversed ring from slot -i.
    for base, sign in ((true, 1), (true[::-1], -1)):
        if first == base and all(
            list(rows[i]) == first[k:] + first[:k]
            for i in range(1, n)
            for k in [sign * i % n]
        ):
            return None
    return "gap vectors disagree with the initial ring"


def _chunks(value: object) -> Iterator[str]:
    """``json.dumps(value, sort_keys=True, separators=(",", ":"))`` in
    pieces: dicts and lists of lists are walked, everything else is
    dumped whole, so a 4096 x 4096 gap matrix never becomes one
    string."""
    if isinstance(value, dict):
        yield "{"
        for i, key in enumerate(sorted(value)):
            if i:
                yield ","
            yield json.dumps(key)
            yield ":"
            yield from _chunks(value[key])
        yield "}"
    elif isinstance(value, list) and value and isinstance(value[0], list):
        yield "["
        for i, item in enumerate(value):
            if i:
                yield ","
            yield from _chunks(item)
        yield "]"
    else:
        yield json.dumps(value, sort_keys=True, separators=(",", ":"))


def digest(value: object) -> str:
    """sha256 of the canonical (sorted-key, compact) JSON of ``value``."""
    h = hashlib.sha256()
    for chunk in _chunks(value):
        h.update(chunk.encode("utf-8"))
    return h.hexdigest()
