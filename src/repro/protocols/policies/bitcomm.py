"""Native collision-channel communication (vectorised twin of
:mod:`repro.protocols.bitcomm`).

The 1-bit neighbor channel (Prop 31) is four rounds -- probe, restore,
inverse probe, restore -- whose vectors derive from the transmitted bit
column; frames (Cor 32) stack ``width + 1`` bit exchanges; the sparsed
relay flood (Cor 34) stacks two frames per hop with the
chirality-corrected register shuffle between them.
:class:`RelayFloodPolicy` plans the *entire* flood as one policy --
``8 * (width + 1) * distance`` rounds -- whose vectors are evaluated
lazily from the relay registers, so the whole dissemination runs with
one ``decide`` per bit exchange and zero per-agent dispatch.

Each bit exchange is ONE four-round :class:`~repro.ring.stretch.Stretch`
``[s, -s, -s, s]`` -- probe, double restore, closing restore -- over
the local sign row ``s`` of the bit column (int8 under numpy, an int
list otherwise).  On the array backend the exchange runs fused and the
two restore rounds never materialise observations.  Decoding compares
the probes' integer ``coll()`` numerators (over ``2 * scale``) against
the gap numerators (over ``scale``, derived once from the neighbor
discovery gaps): one numpy compare per side under numpy, one list pass
otherwise, never a Fraction comparison.  Under numpy, frame folding
and the relay register shuffle follow the same integer columns (``-1``
encodes "no value").
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.core.scheduler import Scheduler
from repro.exceptions import ProtocolError
from repro.protocols.bitcomm import (
    KEY_FROM_LEFT,
    KEY_FROM_RIGHT,
    KEY_RECEIVED,
)
from repro.protocols.neighbor_discovery import (
    KEY_GAP_LEFT,
    KEY_GAP_RIGHT,
    KEY_SAME_LEFT,
    KEY_SAME_RIGHT,
)
from repro.protocols.policies.base import PhasePolicy
from repro.ring.stretch import Stretch, opposite_row
from repro.types import Model

KEY_FRAME_FROM_RIGHT = "comm.frame_from_right"
KEY_FRAME_FROM_LEFT = "comm.frame_from_left"


def _bit_slice(value: Optional[int], slot: int) -> int:
    """(present, value) frame encoding: slot 0 is the present flag."""
    if slot == 0:
        return 1 if value is not None else 0
    if value is None:
        return 0
    return (value >> (slot - 1)) & 1


class BitExchangePolicy(PhasePolicy):
    """Plumbing shared by all collision-channel policies: plans bit
    exchanges and (present, value) frames over the neighbor channel."""

    def __init__(self, sched: Scheduler) -> None:
        if sched.model is not Model.PERCEPTIVE:
            raise ProtocolError("bit exchange requires the perceptive model")
        super().__init__(sched)
        population = self.population
        if not population.all_set(KEY_GAP_RIGHT):
            raise ProtocolError(
                "bit communication requires neighbor discovery results"
            )
        self._gap_right = population.column(KEY_GAP_RIGHT)
        self._gap_left = population.column(KEY_GAP_LEFT)
        self._same_right = population.column(KEY_SAME_RIGHT)
        self._same_left = population.column(KEY_SAME_LEFT)
        self._gap_nums: Optional[tuple] = None
        xp = self.xp
        if xp is not None:
            self._same_r_arr = xp.asarray(
                [bool(b) for b in self._same_right], dtype=bool
            )
            self._same_l_arr = xp.asarray(
                [bool(b) for b in self._same_left], dtype=bool
            )
            self._frame_right_arr = None
            self._frame_left_arr = None

    # -- one bit, both neighbors, 4 rounds ------------------------------

    def push_bit_exchange(
        self,
        bits_provider: Callable[[], Sequence[int]],
        on_decoded: Optional[Callable] = None,
    ) -> None:
        """Plan one bit exchange: every slot transmits
        ``bits_provider()[slot]`` to both neighbors, as one four-round
        span.  Decoded bits land in the ``comm.bit_from_right`` /
        ``comm.bit_from_left`` columns and are passed to
        ``on_decoded(from_right, from_left)`` (int64 arrays under numpy,
        int lists otherwise)."""
        xp = self.xp
        ctx: dict = {}

        def build() -> Stretch:
            provided = bits_provider()
            if xp is None:
                bits = list(provided)
                for b in bits:
                    if b not in (0, 1):
                        raise ProtocolError(f"bit_of returned non-bit {b!r}")
                signs = [1 if b == 1 else -1 for b in bits]
            else:
                bits = xp.asarray(provided)
                if bits.dtype.kind not in "iub":
                    for b in provided:
                        if b not in (0, 1):
                            raise ProtocolError(
                                f"bit_of returned non-bit {b!r}"
                            )
                    raise ProtocolError("bit column is not integral")
                bad = (bits != 0) & (bits != 1)
                if bool(bad.any()):
                    b = bits[bad][0]
                    raise ProtocolError(
                        f"bit_of returned non-bit {int(b)!r}"
                    )
                bits = bits.astype(xp.int8)
                signs = xp.where(bits == 1, 1, -1).astype(xp.int8)
            ctx["bits"] = bits
            # Probe, restore, inverse probe, restore: [s, -s, -s, s].
            return Stretch(
                pairs=[(signs, 1), (opposite_row(signs), 2), (signs, 1)]
            )

        def harvest(result) -> None:
            self._decode_exchange(ctx.pop("bits"), result, on_decoded)

        self.push_stretch(build, harvest)

    def _gap_numerators(self, scale: int) -> tuple:
        """Both gap columns as numerators over ``scale``, built on the
        first decode (every span of a policy shares one scale).  coll()
        numerators are over ``2 * scale``, so "first collision at half
        the gap" is an integer equality against these."""
        nums = self._gap_nums
        if nums is None:
            nums = tuple(
                [g.numerator * (scale // g.denominator) for g in gaps]
                for gaps in (self._gap_right, self._gap_left)
            )
            xp = self.xp
            if xp is not None:
                nums = tuple(xp.asarray(c, dtype=xp.int64) for c in nums)
            self._gap_nums = nums
        return nums

    def _decode_lists(self, bits, c0, c1, grn, gln):
        """Per-agent channel decode (Prop 31) from the two probe
        rounds' coll numerator lists."""
        from_right: List[int] = []
        from_left: List[int] = []
        same_right, same_left = self._same_right, self._same_left
        for i in range(self.n):
            # Each side's collision comes from the probe in which
            # slot i moved toward it.
            one = bits[i] == 1
            coll_r, coll_l = (c0[i], c1[i]) if one else (c1[i], c0[i])
            approached_r = coll_r == grn[i]
            approached_l = coll_l == gln[i]
            r_toward0 = approached_r if one else not approached_r
            l_toward0 = not approached_l if one else approached_l
            from_right.append(int(r_toward0 == (not same_right[i])))
            from_left.append(int(l_toward0 == same_left[i]))
        return from_right, from_left

    def _decode_exchange(
        self, bits, result, on_decoded: Optional[Callable]
    ) -> None:
        """Decode one exchange from the two probe rounds' coll columns
        (round 0 of the span ``result`` is the bit probe, round 2 the
        inverse probe) and publish the result columns."""
        grn, gln = self._gap_numerators(result.scale)
        c0 = result.coll_ints(0)
        c1 = result.coll_ints(2)
        xp = self.xp
        if xp is not None:
            one = bits == 1
            coll_r = xp.where(one, c0, c1)
            coll_l = xp.where(one, c1, c0)
            appr_r = coll_r == grn
            appr_l = coll_l == gln
            r_toward0 = xp.where(one, appr_r, ~appr_r)
            l_toward0 = xp.where(one, ~appr_l, appr_l)
            from_right = (
                r_toward0 == ~self._same_r_arr
            ).astype(xp.int64)
            from_left = (
                l_toward0 == self._same_l_arr
            ).astype(xp.int64)
            from_right_col = from_right.tolist()
            from_left_col = from_left.tolist()
        else:
            from_right, from_left = self._decode_lists(
                bits, c0, c1, grn, gln
            )
            from_right_col, from_left_col = from_right, from_left
        population = self.population
        population.set_column(KEY_FROM_RIGHT, from_right_col)
        population.set_column(KEY_FROM_LEFT, from_left_col)
        if on_decoded is not None:
            on_decoded(from_right, from_left)

    # -- one (present, value) frame, 4 * (width + 1) rounds -------------

    def push_frame(
        self,
        frames_provider: Callable[[], Sequence[Optional[int]]],
        width: int,
        on_frame: Optional[Callable[[], None]] = None,
    ) -> None:
        """Plan one frame exchange.  ``frames_provider`` is evaluated at
        the first round's decide time (relay registers may have been
        rewritten by an earlier step of the same plan); decoded frames
        land in the ``comm.frame_from_right`` / ``comm.frame_from_left``
        columns, then ``on_frame()`` fires.  On the vectorised plan the
        provider may return an int64 array with ``-1`` as "no value"."""
        if self.xp is not None:
            self._push_frame_fused(frames_provider, width, on_frame)
        else:
            self._push_frame_scalar(frames_provider, width, on_frame)

    def _push_frame_scalar(
        self,
        frames_provider: Callable[[], Sequence[Optional[int]]],
        width: int,
        on_frame: Optional[Callable[[], None]],
    ) -> None:
        ctx: dict = {}

        def frame_bits(slot: int) -> Callable[[], List[int]]:
            def bits() -> List[int]:
                if slot == 0:
                    frames = list(frames_provider())
                    for v in frames:
                        if v is not None and not 0 <= v < (1 << width):
                            raise ProtocolError(
                                f"value {v} does not fit in {width} bits"
                            )
                    ctx["frames"] = frames
                return [
                    _bit_slice(v, slot) for v in ctx["frames"]
                ]

            return bits

        def fold(slot: int):
            def on_decoded(
                from_right: List[int], from_left: List[int]
            ) -> None:
                if slot == 0:
                    ctx["present"] = (
                        [bool(b) for b in from_right],
                        [bool(b) for b in from_left],
                    )
                    ctx["collected"] = ([0] * self.n, [0] * self.n)
                else:
                    for side, decoded in enumerate(
                        (from_right, from_left)
                    ):
                        collected = ctx["collected"][side]
                        for i, b in enumerate(decoded):
                            if b:
                                collected[i] |= 1 << (slot - 1)
                if slot == width:
                    population = self.population
                    for side, key in (
                        (0, KEY_FRAME_FROM_RIGHT),
                        (1, KEY_FRAME_FROM_LEFT),
                    ):
                        present = ctx["present"][side]
                        collected = ctx["collected"][side]
                        population.set_column(
                            key,
                            [
                                collected[i] if present[i] else None
                                for i in range(self.n)
                            ],
                        )
                    if on_frame is not None:
                        on_frame()

            return on_decoded

        for slot in range(width + 1):
            self.push_bit_exchange(frame_bits(slot), fold(slot))

    def _encode_frames(self, frames, width: int):
        """Normalise a frame column to the int64 ``-1 = None`` form,
        with the legacy range validation for plain sequences."""
        xp = self.xp
        if hasattr(frames, "dtype"):
            bad = (frames >= (1 << width)) | (
                (frames < 0) & (frames != -1)
            )
            if bool(bad.any()):
                v = int(frames[bad][0])
                raise ProtocolError(
                    f"value {v} does not fit in {width} bits"
                )
            return frames
        encoded = []
        for v in frames:
            if v is None:
                encoded.append(-1)
            else:
                if not 0 <= v < (1 << width):
                    raise ProtocolError(
                        f"value {v} does not fit in {width} bits"
                    )
                encoded.append(int(v))
        return xp.asarray(encoded, dtype=xp.int64)

    def _push_frame_fused(
        self,
        frames_provider: Callable,
        width: int,
        on_frame: Optional[Callable[[], None]],
    ) -> None:
        xp = self.xp
        n = self.n
        ctx: dict = {}

        def frame_bits(slot: int):
            def bits():
                if slot == 0:
                    ctx["frames"] = self._encode_frames(
                        frames_provider(), width
                    )
                frames = ctx["frames"]
                if slot == 0:
                    return (frames >= 0).astype(xp.int8)
                sliced = (frames >> (slot - 1)) & 1
                return xp.where(frames >= 0, sliced, 0).astype(xp.int8)

            return bits

        def fold(slot: int):
            def on_decoded(from_right, from_left) -> None:
                if slot == 0:
                    ctx["present"] = (
                        from_right.astype(bool),
                        from_left.astype(bool),
                    )
                    ctx["collected"] = (
                        xp.zeros(n, dtype=xp.int64),
                        xp.zeros(n, dtype=xp.int64),
                    )
                else:
                    shift = slot - 1
                    ctx["collected"][0][:] |= from_right << shift
                    ctx["collected"][1][:] |= from_left << shift
                if slot == width:
                    present = ctx.pop("present")
                    collected = ctx.pop("collected")
                    frame_r = xp.where(present[0], collected[0], -1)
                    frame_l = xp.where(present[1], collected[1], -1)
                    self._frame_right_arr = frame_r
                    self._frame_left_arr = frame_l
                    population = self.population
                    population.set_column(
                        KEY_FRAME_FROM_RIGHT,
                        [v if v >= 0 else None for v in frame_r.tolist()],
                    )
                    population.set_column(
                        KEY_FRAME_FROM_LEFT,
                        [v if v >= 0 else None for v in frame_l.tolist()],
                    )
                    if on_frame is not None:
                        on_frame()

            return on_decoded

        for slot in range(width + 1):
            self.push_bit_exchange(frame_bits(slot), fold(slot))


class RelayFloodPolicy(BitExchangePolicy):
    """Cor 34: flood source values up to ``distance`` hops both ways.

    ``initial_values[slot]`` is the slot's announced value or ``None``;
    after :meth:`run`, each slot's ``comm.received`` column cell lists
    ``(side, hop, value)`` exactly as the legacy driver records them.

    On the vectorised plan the relay registers (``out_right`` /
    ``out_left``) are int64 arrays with ``-1`` for "nothing to relay",
    the register shuffle is four ``where`` selects per hop, and the
    per-agent ``comm.received`` cells are assembled once in
    :meth:`finalize` from the recorded per-hop columns.
    """

    def __init__(
        self,
        sched: Scheduler,
        initial_values: Sequence[Optional[int]],
        distance: int,
        width: int,
    ) -> None:
        super().__init__(sched)
        n = self.n
        values = list(initial_values)
        if len(values) != n:
            raise ProtocolError(
                f"{len(values)} initial values for {n} agents"
            )
        self.width = width
        self.population.fill_with(KEY_RECEIVED, list)
        xp = self.xp
        if xp is not None:
            encoded = xp.asarray(
                [-1 if v is None else int(v) for v in values],
                dtype=xp.int64,
            )
            self.out_right = encoded.copy()
            self.out_left = encoded.copy()
            self._incoming_right = xp.full(n, -1, dtype=xp.int64)
            self._incoming_left = xp.full(n, -1, dtype=xp.int64)
            self._hop_records: List[tuple] = []
            for hop in range(1, distance + 1):
                self.push_frame(
                    lambda: self.out_right, width, self._receive_a_fused
                )
                self.push_frame(
                    lambda: self.out_left,
                    width,
                    lambda hop=hop: self._receive_b_fused(hop),
                )
            return
        self.out_right: List[Optional[int]] = list(values)
        self.out_left: List[Optional[int]] = list(values)
        self._incoming_right: List[Optional[int]] = [None] * n
        self._incoming_left: List[Optional[int]] = [None] * n
        for hop in range(1, distance + 1):
            # Slot A: everyone relays its rightward stream register.
            self.push_frame(
                lambda: self.out_right, width, self._receive_a
            )
            # Slot B: the leftward stream, then the register shuffle.
            self.push_frame(
                lambda: self.out_left,
                width,
                lambda hop=hop: self._receive_b_and_settle(hop),
            )

    def _receive_a(self) -> None:
        population = self.population
        from_left = population.column(KEY_FRAME_FROM_LEFT)
        from_right = population.column(KEY_FRAME_FROM_RIGHT)
        for i in range(self.n):
            # My left neighbor's rightward stream is destined to me iff
            # our chiralities agree; a flipped right neighbor's
            # "rightward" stream also comes to me.
            if self._same_left[i]:
                self._incoming_right[i] = from_left[i]
            if not self._same_right[i]:
                self._incoming_left[i] = from_right[i]

    def _receive_b_and_settle(self, hop: int) -> None:
        population = self.population
        from_left = population.column(KEY_FRAME_FROM_LEFT)
        from_right = population.column(KEY_FRAME_FROM_RIGHT)
        received = population.column(KEY_RECEIVED)
        for i in range(self.n):
            if not self._same_left[i]:
                self._incoming_right[i] = from_left[i]
            if self._same_right[i]:
                self._incoming_left[i] = from_right[i]
        for i in range(self.n):
            inc_from_left = self._incoming_right[i]
            inc_from_right = self._incoming_left[i]
            if inc_from_left is not None:
                received[i].append(("left", hop, inc_from_left))
            if inc_from_right is not None:
                received[i].append(("right", hop, inc_from_right))
            self.out_right[i] = inc_from_left
            self.out_left[i] = inc_from_right
            self._incoming_right[i] = None
            self._incoming_left[i] = None

    def _receive_a_fused(self) -> None:
        xp = self.xp
        self._incoming_right = xp.where(
            self._same_l_arr, self._frame_left_arr, self._incoming_right
        )
        self._incoming_left = xp.where(
            ~self._same_r_arr, self._frame_right_arr, self._incoming_left
        )

    def _receive_b_fused(self, hop: int) -> None:
        xp = self.xp
        inc_from_left = xp.where(
            ~self._same_l_arr, self._frame_left_arr, self._incoming_right
        )
        inc_from_right = xp.where(
            self._same_r_arr, self._frame_right_arr, self._incoming_left
        )
        self._hop_records.append((hop, inc_from_left, inc_from_right))
        self.out_right = inc_from_left
        self.out_left = inc_from_right
        n = self.n
        self._incoming_right = xp.full(n, -1, dtype=xp.int64)
        self._incoming_left = xp.full(n, -1, dtype=xp.int64)

    def finalize(self) -> None:
        if self.xp is None:
            return
        # One pass over the recorded per-hop columns builds the exact
        # per-agent (side, hop, value) cells the legacy driver appends
        # round by round.
        received = self.population.column(KEY_RECEIVED)
        for hop, inc_from_left, inc_from_right in self._hop_records:
            lefts = inc_from_left.tolist()
            rights = inc_from_right.tolist()
            for i in range(self.n):  # lint: allow[per-agent-loop] -- one-pass finalize assembling ragged (side, hop, value) cells; runs once after the flood, not per round
                v = lefts[i]
                if v >= 0:
                    received[i].append(("left", hop, v))
                v = rights[i]
                if v >= 0:
                    received[i].append(("right", hop, v))


def exchange_bits(sched: Scheduler, bits: Sequence[int]) -> None:
    """Native twin of :func:`repro.protocols.bitcomm.exchange_bits`:
    every slot transmits ``bits[slot]`` to both neighbors (4 rounds)."""
    policy = BitExchangePolicy(sched)
    bits = list(bits)
    policy.push_bit_exchange(lambda: bits)
    policy.run()


def exchange_frame(
    sched: Scheduler, values: Sequence[Optional[int]], width: int
) -> None:
    """Native twin of :func:`repro.protocols.bitcomm.exchange_frame`."""
    policy = BitExchangePolicy(sched)
    values = list(values)
    policy.push_frame(lambda: values, width)
    policy.run()


def relay_flood(
    sched: Scheduler,
    initial_values: Sequence[Optional[int]],
    distance: int,
    width: int,
) -> None:
    """Native twin of :func:`repro.protocols.bitcomm.relay_flood`."""
    RelayFloodPolicy(sched, initial_values, distance, width).run()
