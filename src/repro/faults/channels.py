"""Contention-channel protocols: medium access over the bouncing ring.

Two randomized MAC (medium-access-control) disciplines, registered as
ordinary registry protocols, model *contention* -- the third adversary
family of ROADMAP open item 4 -- on top of the existing ``Z/(2D)``
collision machinery:

* ``contention-backoff`` -- binary-exponential backoff with a doubling
  contention window (the IC3Net ``channel.py`` discipline): every agent
  holds one message; a colliding transmitter doubles its window (capped)
  and redraws its wait.
* ``contention-aloha`` -- slotted ALOHA with probabilistic loss and
  capture (the LoRaMesh medium): each pending agent transmits per slot
  with probability 1/2; a lone transmission is lost with probability
  1/10; a collision is *captured* by one transmitter with probability
  1/4.

Physical realisation: one channel slot is a probe/restore pair executed
through the scheduler -- transmitters play local RIGHT, listeners local
LEFT, then the reversed round restores every position (Lemma 1: a
round's entire effect is a rotation, so the reverse round undoes it).
Slots therefore cost real rounds, collide through the real collision
engine, and are subject to an active fault plan like any other round.
Each slot's rows are local sign rows (+1 transmit, -1 listen; int8
arrays when the backend runs numpy columns, int lists otherwise), so
the reversed round is a negation.  Runs of slots with no transmitter
are fused into plain :class:`~repro.ring.stretch.Stretch` spans of
listen pairs: the MAC state fixes a quiet gap's length before it runs,
so idle stretches stay on the backend's fused fast path (and repeat as
memo hits on array).  Nothing reads a slot's observations, so on array
a slot computes its rotations and never its ``dist``/``coll`` columns.

Channel *adjudication* is an explicit oracle abstraction: who-spoke is
decided from the transmitter set the MAC layer drew (as IC3Net's
channel does), not decoded from the probe's observations -- a single
``dist``/``coll`` pair does not identify the number of transmitters
without gap knowledge the agents are still missing.  All channel
randomness flows through one seeded ``random.Random`` whose seed is
derived (SHA-256) from the ring's public parameters, so runs are
deterministic per configuration and bit-identical across backends.

Graceful degradation under a fault plan: crash-stopped agents fall
silent and their messages surface in ``ContentionResult.undelivered``
(the *report* outcome); Byzantine agents jam every slot, blowing the
backoff windows up until the slot budget trips ``ProtocolError`` (the
*detect* outcome); each agent mirrors its own delivery state in memory
and a scrambled mirror is caught by the end-of-run consensus check.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.core.scheduler import Scheduler
from repro.exceptions import ProtocolError
from repro.protocols.base import ContentionResult
from repro.ring.stretch import Stretch, opposite_row

# Per-agent memory keys: the agent-visible mirror of the channel state.
KEY_MAC_DELIVERED = "mac.delivered"    # bool: did my message get through?
KEY_MAC_ATTEMPTS = "mac.attempts"      # int: my transmission attempts

#: Backoff discipline: initial and maximum contention windows.
BACKOFF_W0 = 2
BACKOFF_W_MAX = 64

#: ALOHA discipline, as integer odds (rng.randrange(k) == 0):
#: transmit 1/2 per pending agent per slot, lose 1/10 of lone
#: transmissions, capture 1/4 of collisions.
ALOHA_TX_ODDS = 2
ALOHA_LOSS_ODDS = 10
ALOHA_CAPTURE_ODDS = 4

#: Most idle slots fused into one span (and ALOHA's pre-draw horizon).
IDLE_LOOKAHEAD = 8


def _slot_budget(n: int) -> int:
    """Channel slots allowed before the run is declared wedged.

    Generous: a fault-free run needs O(n) successful slots and the
    expected contention overhead is a small constant factor; only an
    adversary (a jammer, a scrambled window) exhausts this.
    """
    return 64 * (n + 4)


def channel_seed(n: int, ids: Sequence[int], id_bound: int) -> int:
    """Deterministic channel seed from the ring's public parameters."""
    payload = json.dumps(
        {"id_bound": id_bound, "ids": list(ids), "n": n},
        sort_keys=True, separators=(",", ":"), ensure_ascii=True,
    )
    return int(hashlib.sha256(payload.encode("ascii")).hexdigest()[:16], 16)


def _listen_row(sched: Scheduler, n: int):
    """Everyone listening (local LEFT) as a local sign row: an int8
    array when the backend runs numpy columns, else an int list."""
    xp = sched.array_module
    if xp is not None:
        return xp.full(n, -1, dtype=xp.int8)
    return [-1] * n


def _run_transmission_slot(sched: Scheduler, n: int,
                           transmitters: Set[int]) -> None:
    """One physical channel slot: probe round + restoring reverse.

    Transmitters play local RIGHT (+1), listeners local LEFT (-1).
    """
    row = _listen_row(sched, n)
    for i in transmitters:
        row[i] = 1
    sched.run_stretch(Stretch.probe_restore(row))


def _run_idle_slots(sched: Scheduler, n: int, delta: int) -> None:
    """Run ``delta`` idle slots (2*delta listen rounds) as fused spans.

    Everyone listens (local LEFT), then the reverse round restores.
    The first :data:`IDLE_LOOKAHEAD` slots alternate listen and reverse
    rounds; any longer gap continues in blocks of up to that many
    listen rounds and as many reverse rounds.  ``delta`` is known
    before the call, so every span is a plain stretch.
    """
    listen = _listen_row(sched, n)
    reverse = opposite_row(listen)
    span = min(delta, IDLE_LOOKAHEAD)
    sched.run_stretch(Stretch(pairs=[(listen, 1), (reverse, 1)] * span))
    remaining = delta - span
    while remaining > 0:
        chunk = min(remaining, IDLE_LOOKAHEAD)
        sched.run_stretch(
            Stretch(pairs=[(listen, chunk), (reverse, chunk)])
        )
        remaining -= chunk


def _active_jammers(sched: Scheduler) -> Set[int]:
    """Byzantine slots currently corrupting rounds: channel jammers.

    A direction-corrupting adversary cannot be kept off the medium, so
    the channel models every active Byzantine slot as a persistent
    transmitter.  Crash wins over Byzantine, exactly as in the
    injector.
    """
    plan = sched.faults
    if plan is None:
        return set()
    t = sched.rounds
    jammers = {slot for slot, start, _ in plan.byzantine if t >= start}
    return jammers - sched.crashed_slots()


class _ChannelRun:
    """Shared MAC harness: slot loop, mirrors, accounting, consensus."""

    def __init__(self, sched: Scheduler) -> None:
        self.sched = sched
        self.n = len(sched.views)
        state = sched.population
        self.rng = random.Random(
            channel_seed(self.n, state.ids, state.id_bound)
        )
        self.delivered_order: List[int] = []
        self.delivered: Set[int] = set()
        self.slots = 0
        self.attempts = 0
        self.collisions = 0
        self.lost = 0
        for view in sched.views:
            view.memory[KEY_MAC_DELIVERED] = False
            view.memory[KEY_MAC_ATTEMPTS] = 0

    def pending(self) -> List[int]:
        """Agents still holding a message, crash-stopped ones excluded."""
        silenced = self.sched.crashed_slots()
        return [
            i for i in range(self.n)
            if i not in self.delivered and i not in silenced
        ]

    def charge_attempts(self, transmitters: Sequence[int]) -> None:
        self.attempts += len(transmitters)
        for i in transmitters:
            memory = self.sched.views[i].memory
            memory[KEY_MAC_ATTEMPTS] = memory[KEY_MAC_ATTEMPTS] + 1

    def deliver(self, winner: int) -> None:
        self.delivered.add(winner)
        self.delivered_order.append(winner)
        self.sched.views[winner].memory[KEY_MAC_DELIVERED] = True

    def check_budget(self, discipline: str) -> None:
        if self.slots >= _slot_budget(self.n):
            raise ProtocolError(
                f"contention {discipline} exhausted its "
                f"{_slot_budget(self.n)}-slot budget with "
                f"{len(self.pending())} message(s) still pending"
            )

    def finish(self) -> None:
        """Consensus check: every agent's mirror must match the oracle.

        A Byzantine memory scramble flips an agent's delivered flag or
        attempt counter mirror; the divergence is detected here, before
        any result is reported.
        """
        sched = self.sched
        for i, view in enumerate(sched.views):
            mirrored = view.memory.get(KEY_MAC_DELIVERED)
            if type(mirrored) is not bool or (
                mirrored != (i in self.delivered)
            ):
                raise ProtocolError(
                    f"channel state diverged across agents: slot {i} "
                    f"mirrors delivered={mirrored!r}, oracle says "
                    f"{i in self.delivered}"
                )
            if type(view.memory.get(KEY_MAC_ATTEMPTS)) is not int:
                raise ProtocolError(
                    f"channel state diverged across agents: slot {i} "
                    f"holds a non-integer attempt counter"
                )


def _run_backoff(sched: Scheduler) -> None:
    """Binary-exponential backoff until every live message is through."""
    run = _ChannelRun(sched)
    n = run.n
    window = [BACKOFF_W0] * n
    wait = [run.rng.randrange(BACKOFF_W0) for _ in range(n)]
    while True:
        pending = run.pending()
        if not pending:
            break
        run.check_budget("backoff")
        jammers = _active_jammers(sched)
        transmitters = [i for i in pending if wait[i] == 0]
        if not transmitters and not jammers:
            # Nobody speaks until the smallest wait runs out: fuse the
            # whole quiet gap into one span.
            delta = min(wait[i] for i in pending)
            delta = min(delta, _slot_budget(n) - run.slots)
            _run_idle_slots(sched, n, delta)
            run.slots += delta
            for i in pending:
                wait[i] -= delta
            continue
        contenders = set(transmitters) | jammers
        _run_transmission_slot(sched, n, contenders)
        run.slots += 1
        run.charge_attempts(transmitters)
        if len(contenders) == 1 and transmitters:
            run.deliver(transmitters[0])
        elif len(contenders) >= 2:
            run.collisions += 1
            for i in transmitters:
                window[i] = min(2 * window[i], BACKOFF_W_MAX)
                wait[i] = run.rng.randrange(window[i])
        # A jammer speaking alone is just a busy slot.
        for i in pending:
            if i not in contenders and wait[i] > 0:
                wait[i] -= 1
    run.finish()
    _publish(sched, run)


def _run_aloha(sched: Scheduler) -> None:
    """Slotted ALOHA with loss and capture until delivery or budget."""
    run = _ChannelRun(sched)
    n = run.n

    def draw(pending: List[int]) -> List[int]:
        return [
            i for i in pending
            if run.rng.randrange(ALOHA_TX_ODDS) == 0
        ]

    while True:
        pending = run.pending()
        if not pending:
            break
        run.check_budget("aloha")
        jammers = _active_jammers(sched)
        transmitters = draw(pending)
        if not transmitters and not jammers:
            # Pre-draw upcoming slots to size the quiet gap, then fuse
            # it; the first non-empty draw is carried into this slot's
            # transmission handling below.
            delta = 1
            while delta < IDLE_LOOKAHEAD:
                transmitters = draw(pending)
                if transmitters:
                    break
                delta += 1
            _run_idle_slots(sched, n, delta)
            run.slots += delta
            if not transmitters:
                continue
        contenders = sorted(set(transmitters) | jammers)
        _run_transmission_slot(sched, n, set(contenders))
        run.slots += 1
        run.charge_attempts(transmitters)
        if len(contenders) == 1 and transmitters:
            if run.rng.randrange(ALOHA_LOSS_ODDS) == 0:
                run.lost += 1
            else:
                run.deliver(transmitters[0])
        elif len(contenders) >= 2:
            if run.rng.randrange(ALOHA_CAPTURE_ODDS) == 0:
                winner = run.rng.choice(contenders)
                if winner in transmitters:
                    run.deliver(winner)
                else:
                    run.collisions += 1
            else:
                run.collisions += 1
        # A jammer speaking alone is just a busy slot.
    run.finish()
    _publish(sched, run)


#: Memory key for the channel oracle's final summary (consensus value).
KEY_MAC_SUMMARY = "mac.summary"


def _publish(sched: Scheduler, run: _ChannelRun) -> None:
    """Write the oracle's summary identically into every agent's memory."""
    silenced = sorted(set(range(run.n)) - run.delivered)
    summary = {
        "slots": run.slots,
        "attempts": run.attempts,
        "collisions": run.collisions,
        "lost": run.lost,
        "delivered_order": list(run.delivered_order),
        "undelivered": silenced,
    }
    for view in sched.views:
        view.memory[KEY_MAC_SUMMARY] = dict(summary)


def _collect_contention(
    sched: Scheduler, rounds_by_phase: Dict[str, int]
) -> ContentionResult:
    summary = sched.unanimous_memory(KEY_MAC_SUMMARY)
    if not isinstance(summary, dict):
        raise ProtocolError(
            "contention run ended without a consensus channel summary"
        )
    return ContentionResult(
        rounds=sched.rounds,
        rounds_by_phase=rounds_by_phase,
        slots=int(summary["slots"]),
        attempts=int(summary["attempts"]),
        collisions=int(summary["collisions"]),
        lost=int(summary["lost"]),
        delivered_order=[int(i) for i in summary["delivered_order"]],
        undelivered=[int(i) for i in summary["undelivered"]],
    )


def _contention_plan(
    runner: Callable[[Scheduler], None]
) -> Callable[[Scheduler, bool, Optional[str]], List[object]]:
    def plan(
        sched: Scheduler, common_sense: bool, driver: Optional[str] = None
    ) -> List[object]:
        from repro.api.registry import Phase, resolve_driver

        # The MAC layer has a single implementation; the driver choice
        # only labels the phase (both names execute identical code).
        return [Phase("contention", runner, resolve_driver(driver))]

    return plan


def register_protocols() -> None:
    """Register the contention protocols (idempotent; last wins)."""
    from repro.api.registry import ProtocolSpec, register

    register(ProtocolSpec(
        name="contention-backoff",
        description="binary-exponential backoff channel over probe/"
        "restore slots (IC3Net-style contention window)",
        plan=_contention_plan(_run_backoff),
        collect=_collect_contention,
    ))
    register(ProtocolSpec(
        name="contention-aloha",
        description="slotted ALOHA channel with probabilistic loss and "
        "capture over probe/restore slots (LoRaMesh-style medium)",
        plan=_contention_plan(_run_aloha),
        collect=_collect_contention,
    ))
