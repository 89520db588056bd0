"""Native walk-based location-discovery sweeps (vectorised twin of
:mod:`repro.protocols.location_discovery`).

The sweeps are the paper's canonical *data-dependent* phases: agents do
not know n, so the loop closes only when the collected gaps first sum
to a full turn (rotation 1) or to two full turns (rotation 2, odd n).
Each sweep therefore plans a :class:`~repro.ring.stretch.
SpeculativeStretch` -- an optimistic span of identical rounds plus a
stop predicate that accumulates slot 0's common-frame ``dist()`` values
and fires on the closing round.  A stretch-capable backend advances the
whole span vectorised and cuts the commit back to the firing round (a
rotation-offset rewind); scalar backends interleave execute and
evaluate, reproducing the legacy loop exactly.  The span length is a
*harness* hint (``state.n``-sized chunks, same access the legacy bug
bound uses) -- correctness rests only on the predicate.

Harvesting runs on integer numerators over the shared ``scale`` on
every backend, and is columnar *and lazy*: the stop predicate sums
slot 0's numerators against ``turns * scale``; under numpy the whole
span's dist numerators arrive as one ``(k, n)`` int64 matrix (int
lists per round otherwise), the common-frame conversion is one
``where`` select, and that is where the work stops -- the harvest just
files the matrix (plus ``scale``) in a :class:`_GapHarvest`, and
``ld.gaps`` is set to :class:`LazyGapColumn` views that materialise
interned Fractions only when some consumer actually reads them
(mirroring the :class:`~repro.core.population.LazyObsRow` pattern for
observation rows).  The result collect reads no view either: in the
common frame slot s's column is slot 0's rotated by ``sign * s``,
which :func:`collect_gap_rows` checks on every integer cell before
handing back a :class:`~repro.protocols.base.GapRows` (one base row
plus rotations).  The rotation-2 sweep checks the same structure on
its reordered pair sums, inverts one circulant on raw numerators
(:func:`~repro.analysis.linear_system.solve_cyclic_pair_sums_ints`)
for every slot that passes, and publishes the solution as one
``GapRows`` whose rows the ``ld.gaps`` cells view
(:class:`~repro.protocols.base.GapRowView`), so the collect takes it
as it stands.  ``engine="fraction"`` feeds the same integer columns
to the eager Fraction-list harvest and
:func:`~repro.analysis.linear_system.solve_cyclic_pair_sums` -- the
executable spec and the benchmark's baseline side.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.linear_system import (
    solve_cyclic_pair_sums,
    solve_cyclic_pair_sums_ints,
)
from repro.core.population import MISSING
from repro.core.scheduler import Scheduler
from repro.exceptions import InfeasibleProblemError, ProtocolError
from repro.protocols.base import (
    KEY_FRAME_FLIP,
    KEY_LD_GAPS,
    KEY_LEADER,
    GapRows,
    GapRowView,
    rotation_sign,
    rotations_coincide,
)
from repro.protocols.policies.base import (
    IDLE,
    LEFT,
    RIGHT,
    aligned_vector,
    intern_fractions,
    require_column,
)
from repro.ring.arrayops import get_numpy
from repro.ring.stretch import SpeculativeStretch
from repro.types import Model

#: Upper bound on one speculative chunk (bounds the optimistic column
#: matrix to ``_MAX_CHUNK * n`` int64 cells; tests shrink it to force
#: multi-chunk sweeps).
_MAX_CHUNK = 2048


def _leader_and_flips(sched: Scheduler):
    population = sched.population
    leaders = population.get_column(KEY_LEADER)
    is_leader = (
        [False] * population.n
        if leaders is None
        else [cell is not MISSING and bool(cell) for cell in leaders]
    )
    if not any(is_leader):
        raise ProtocolError("location discovery sweep requires a leader")
    flips = require_column(
        population,
        KEY_FRAME_FLIP,
        "location discovery sweep requires a common frame",
    )
    return is_leader, flips


def _block_column(blocks: Sequence[object], slot: int) -> List[int]:
    """Slot's numerators down a list of row blocks, in row order."""
    out: List[int] = []
    for block in blocks:
        if isinstance(block, list):
            out.extend(row[slot] for row in block)
        else:
            out.extend(block[:, slot].tolist())  # type: ignore[index]
    return out


def _rotation_check(blocks: Sequence[object], n: int
                    ) -> Tuple[List[int], int, Set[int]]:
    """``(column 0, sign, outliers)`` of integer row blocks.

    ``blocks`` hold the rows (one per round, one cell per slot) in
    order, numpy matrices or lists of int rows.  The first slot s >= 1
    whose column is column 0 rotated by exactly one of +s and -s picks
    the sign (:func:`~repro.protocols.base.rotation_sign`; +1 when no
    slot does); the outliers are the slots whose column is not column
    0 rotated by ``sign * slot``.  Slot s's cell in row t must be entry
    ``(t + sign * s) % n`` of column 0, so each row is a window of the
    doubled column 0: a numpy block is checked in one vectorised
    compare against a strided view of those windows, a list block in
    one list compare per row.  Every cell is checked.  When the rows
    are not a ring's worth (``len(base) != n``) nothing is a rotation
    and every slot but 0 is an outlier.
    """
    base = _block_column(blocks, 0)
    if len(base) != n:
        return base, 1, set(range(1, n))
    sign = 1
    if not rotations_coincide(base):
        for slot in range(1, n):
            found = rotation_sign(base, _block_column(blocks, slot), slot)
            if found is not None:
                sign = found
                break
    np = get_numpy()
    doubled = base + base
    outliers: Set[int] = set()
    windows = None
    start = 0
    for block in blocks:
        k = len(block)  # type: ignore[arg-type]
        if isinstance(block, list):
            for t, row in enumerate(block, start):
                window = (
                    doubled[t:t + n] if sign > 0
                    else doubled[t + 1:t + n + 1][::-1]
                )
                if row != window:
                    outliers.update(
                        s for s, (a, b) in enumerate(zip(row, window))
                        if a != b
                    )
        else:
            if windows is None:
                windows = np.asarray(doubled, dtype=block.dtype)  # type: ignore[attr-defined]
            # view[s, j] = doubled[start + j + s] (sign +1) or
            # doubled[start + j + n - s] (sign -1).
            view = np.lib.stride_tricks.sliding_window_view(windows, k)
            view = (
                view[start:start + n] if sign > 0
                else view[start + 1:start + n + 1][::-1]
            )
            matches = (block == view.T).all(axis=0)
            outliers.update(np.flatnonzero(~matches).tolist())
        start += k
    return base, sign, outliers


class _GapHarvest:
    """The integer-mode gap store of one sweep: common-frame dist
    numerator blocks over one shared ``scale``.

    A vectorised stretch outcome contributes its whole ``(k, n)``
    matrix (one ``where`` select, no per-cell Python); any other
    outcome contributes per-round int lists.  Totals come from column
    sums (vectorised when the magnitudes provably fit int64, Python
    ints otherwise), and per-slot Fractions only exist once a
    :class:`LazyGapColumn` is read.
    """

    __slots__ = ("n", "scale", "flips", "cache", "blocks", "rounds",
                 "_flip_mask")

    def __init__(self, n: int, scale: int, flips, cache: Dict) -> None:
        self.n = n
        self.scale = scale
        self.flips = flips
        self.cache = cache
        self.blocks: List[object] = []
        self.rounds = 0
        self._flip_mask = None

    def add_result(self, result, want_totals: bool):
        """File every committed round of ``result``; returns the
        block's per-slot totals as ints over ``scale`` (or None)."""
        scale = self.scale
        xp = result.np
        if xp is not None:
            matrix = result.dist_ints_all()
            if self._flip_mask is None:
                self._flip_mask = xp.asarray(
                    [bool(f) for f in self.flips]
                )
            common = xp.where(
                self._flip_mask[None, :] & (matrix != 0),
                scale - matrix, matrix,
            )
            self.blocks.append(common)
            self.rounds += result.k
            if not want_totals:
                return None
            if scale.bit_length() + result.k.bit_length() <= 61:
                return common.sum(axis=0).tolist()
            return [sum(col) for col in zip(*common.tolist())]
        flips = self.flips
        rows = [
            [scale - v if flip and v else v
             for flip, v in zip(flips, result.dist_ints(j))]
            for j in range(result.k)
        ]
        self.blocks.append(rows)
        self.rounds += result.k
        if not want_totals:
            return None
        return [sum(col) for col in zip(*rows)]

    def column_ints(self, slot: int) -> List[int]:
        """Slot's collected numerators over ``scale``, in round order."""
        return _block_column(self.blocks, slot)

    def column(self, slot: int) -> List[Fraction]:
        """Slot's collected gaps as interned Fractions."""
        return intern_fractions(
            self.column_ints(slot), self.scale, self.cache
        )

    def gap_rows(self) -> GapRows:
        """The rotation-1 sweep's result rows, read off the harvest.

        Slot s collects the ring's gaps from its own slot, so its
        column is slot 0's rotated by ``sign * s``.  That is checked on
        every integer cell (:func:`_rotation_check`); only slot 0 and a
        slot that fails the check materialise Fractions, and no
        :class:`LazyGapColumn` is read.
        """
        _base, sign, outliers = _rotation_check(self.blocks, self.n)
        return GapRows(
            self.column(0), self.n, sign,
            {slot: self.column(slot) for slot in sorted(outliers)},
        )

    def take_pair_sum_gaps(self) -> GapRows:
        """Every slot's gaps from its rotation-2 pair sums.

        Round t's pair sum belongs at index ``(2t) % rounds`` of the
        slot's pair-sum vector.  After that reorder (one fancy index
        per numpy block; the harvest's blocks are released as they are
        copied, so the harvest is empty afterwards) slot s's vector is
        slot 0's rotated by ``sign * s``, which is checked on every
        cell.  Slot 0's circulant is solved once and every verified
        slot gets the same rotation of its solution; a slot that fails
        the check keeps its own solve.  The rows come back as one
        :class:`~repro.protocols.base.GapRows`.
        """
        count, n = self.rounds, self.n
        blocks = self.blocks
        np = get_numpy()
        # Rows no round lands on stay zero: with an even count the
        # reorder is no permutation, and the solve raises
        # SingularSystemError as it always has.
        ordered: object
        if np is None or all(isinstance(b, list) for b in blocks):
            rows: List[object] = [[0] * n] * count
            t = 0
            for block in blocks:
                for row in block:  # type: ignore[attr-defined]
                    rows[(2 * t) % count] = row
                    t += 1
            blocks.clear()
            ordered = rows
        else:
            dtype = next(b.dtype for b in blocks if not isinstance(b, list))  # type: ignore[attr-defined]
            matrix = np.zeros((count, n), dtype=dtype)
            start = 0
            while blocks:
                block = blocks.pop(0)
                k = len(block)  # type: ignore[arg-type]
                matrix[(2 * np.arange(start, start + k)) % count] = block
                start += k
            ordered = matrix
        self.rounds = 0
        ordered_blocks = [ordered]
        base, sign, outliers = _rotation_check(ordered_blocks, n)
        cache: Dict[int, Fraction] = {}

        def solve(sums: List[int]) -> List[Fraction]:
            return solve_cyclic_pair_sums_ints(sums, self.scale, cache=cache)

        # Rotated pair sums solve to the same rotation of the gaps, so
        # the rows are slot 0's solution's rotations, as in a result.
        return GapRows(solve(base), n, sign, {
            slot: solve(_block_column(ordered_blocks, slot))
            for slot in sorted(outliers)
        })


def collect_gap_rows(cells: Sequence[object]) -> GapRows:
    """The ``gaps_by_agent`` rows of a finished location discovery.

    ``cells`` are the agents' ``ld.gaps`` values.  When they are the
    rotation-1 sweep's own views, one per slot of one harvest, the rows
    come straight off its integer blocks (:meth:`_GapHarvest.gap_rows`);
    when they are the rotation-2 sweep's views, one per row of one
    :class:`~repro.protocols.base.GapRows`, that is the result as it
    stands.  Anything else (plain lists from Algorithm 6, the
    ``fraction`` backend or the callback drivers, or a doctored cell)
    goes through the reference :meth:`GapRows.from_rows`.
    """
    first = cells[0] if cells else None
    if isinstance(first, LazyGapColumn):
        harvest = first._harvest
        if all(
            type(cell) is LazyGapColumn
            and cell._harvest is harvest
            and cell._slot == slot
            for slot, cell in enumerate(cells)
        ):
            return harvest.gap_rows()
    elif isinstance(first, GapRowView):
        rows = first.rows
        if len(rows) == len(cells) and all(
            type(cell) is GapRowView
            and cell.rows is rows
            and cell.index == slot
            for slot, cell in enumerate(cells)
        ):
            return rows
    return GapRows.from_rows(cells)  # type: ignore[arg-type]


class LazyGapColumn(SequenceABC):
    """One slot's ``ld.gaps`` value, materialised only when read.

    Wraps a :class:`_GapHarvest` and a slot index; the interned
    Fraction list is built on first access and cached.  Compares (and
    hashes) like the equivalent plain list, so cross-backend
    fingerprints and legacy consumers keep working unchanged --
    the same contract as :class:`~repro.core.population.LazyObsRow`.
    """

    __slots__ = ("_harvest", "_slot", "_cells")

    def __init__(self, harvest: _GapHarvest, slot: int) -> None:
        self._harvest = harvest
        self._slot = slot
        self._cells: Optional[List[Fraction]] = None

    def _materialise(self) -> List[Fraction]:
        cells = self._cells
        if cells is None:
            cells = self._cells = self._harvest.column(self._slot)
        return cells

    def __getitem__(self, index):
        return self._materialise()[index]

    def __len__(self) -> int:
        return self._harvest.rounds

    def __iter__(self):
        return iter(self._materialise())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (LazyGapColumn, tuple, list)):
            return list(self._materialise()) == list(other)
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self._materialise()))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return repr(self._materialise())


def _harvest_block(result, flips, collected, cache, want_totals: bool):
    """The ``engine="fraction"`` harvest: append every committed
    round's common-frame dists per slot, as interned Fractions.

    With ``want_totals`` returns the block's per-slot sums as
    numerators over ``result.scale``, else None.
    """
    scale = result.scale
    xp = result.np
    if xp is not None:
        matrix = result.dist_ints_all()
        flip_row = xp.asarray([bool(f) for f in flips])
        common = xp.where(flip_row[None, :] & (matrix != 0),
                          scale - matrix, matrix)
        columns = common.T.tolist()
    else:
        columns = [[] for _ in flips]
        for j in range(result.k):
            for column, flip, v in zip(columns, flips, result.dist_ints(j)):
                column.append(scale - v if flip and v else v)
    for gaps, column in zip(collected, columns):
        gaps.extend(intern_fractions(column, scale, cache))
    if not want_totals:
        return None
    return [sum(column) for column in columns]


def _sweep_gaps(sched: Scheduler, vector, flips, turns: int,
                label: str, want_totals: bool = True,
                engine: Optional[str] = None):
    """Run one sweep speculatively until slot 0's collected gaps sum to
    ``turns`` full turns; returns ``(collected, rounds, totals,
    scale)`` where ``totals`` holds every slot's running sum as
    numerators over ``scale``.

    The stop predicate sums slot 0's integer dist numerators over the
    first executed round's ``scale`` and fires on ``turns * scale``.
    ``collected`` holds :class:`LazyGapColumn` views over one
    :class:`_GapHarvest`, or, under ``engine="fraction"``, the eager
    Fraction lists of the spec harvest.
    """
    if engine not in (None, "int", "fraction"):
        raise ProtocolError(f"unknown harvest engine {engine!r}")
    population = sched.population
    n = population.n
    collected: List[List[Fraction]] = [[] for _ in range(n)]
    # Same harness access the legacy bug bound uses; correctness never
    # depends on it -- the predicate alone decides the span's length.
    bound = 4 * sched.state.n + 8
    hint = min(sched.state.n, _MAX_CHUNK)
    flip0 = bool(flips[0])
    cache: Dict[int, Fraction] = {}
    harvest: Optional[_GapHarvest] = None
    total = [0]
    fired = [False]
    executed = 0
    totals = None

    def stop(result, j: int) -> bool:
        scale = result.scale
        v = int(result.dist_ints(j)[0])
        if flip0 and v:
            v = scale - v
        total[0] += v
        if total[0] == turns * scale:
            fired[0] = True
            return True
        return False

    while True:
        chunk = min(hint, bound + 1 - executed)
        result = sched.run_stretch(
            SpeculativeStretch(vector, chunk, stop=stop)
        )
        scale = result.scale
        if engine == "fraction":
            block_totals = _harvest_block(
                result, flips, collected, cache, want_totals
            )
        else:
            if harvest is None:
                harvest = _GapHarvest(n, scale, flips, cache)
            block_totals = harvest.add_result(result, want_totals)
        if totals is None:
            totals = block_totals
        elif block_totals is not None:
            totals = [a + b for a, b in zip(totals, block_totals)]
        executed += result.k
        if fired[0]:
            if harvest is not None:
                collected = [
                    LazyGapColumn(harvest, slot) for slot in range(n)
                ]
            return collected, executed, totals, scale
        if executed > bound:
            raise ProtocolError(f"{label} sweep failed to close: bug")


def sweep_rotation_one(
    sched: Scheduler, engine: Optional[str] = None
) -> int:
    """Native twin of the lazy-model rotation-1 sweep (Lemma 16)."""
    if sched.model is not Model.LAZY:
        raise ProtocolError("rotation-1 sweep requires the lazy model")
    is_leader, flips = _leader_and_flips(sched)
    population = sched.population
    vector = aligned_vector(
        flips, [RIGHT if lead else IDLE for lead in is_leader]
    )
    collected, rounds, totals, scale = _sweep_gaps(
        sched, vector, flips, 1, "rotation-1", engine=engine
    )
    for total in totals:
        if total != scale:
            raise ProtocolError("agent's sweep did not cover a full turn")
    population.set_column(KEY_LD_GAPS, collected)
    return rounds


def sweep_rotation_two(
    sched: Scheduler, engine: Optional[str] = None
) -> int:
    """Native twin of the basic-model rotation-2 sweep (odd n)."""
    population = sched.population
    if population.parity_even:
        raise InfeasibleProblemError(
            "location discovery in the basic model is unsolvable for even n"
        )
    is_leader, flips = _leader_and_flips(sched)
    vector = aligned_vector(
        flips, [RIGHT if lead else LEFT for lead in is_leader]
    )
    # n pair sums cover every gap exactly twice (odd n): total 2.
    collected, rounds, _totals, _scale = _sweep_gaps(
        sched, vector, flips, 2, "rotation-2",
        want_totals=False, engine=engine,
    )

    gaps_column: List[Sequence[Fraction]] = []
    if collected and isinstance(collected[0], LazyGapColumn):
        # Integer mode: reorder and invert the circulant on raw
        # numerators, once for every slot whose pair sums are slot 0's
        # rotated (the harvest is consumed); each slot's cell is a view
        # of its row of the one GapRows.
        rows = collected[0]._harvest.take_pair_sum_gaps()
        gaps_column = [GapRowView(rows, slot) for slot in range(len(rows))]
    else:
        for pair_sums in collected:
            count = len(pair_sums)
            # Round t was observed from slot (own + 2t): reorder the
            # pair sums into consecutive-j form before inverting the
            # circulant.
            ordered: List[Fraction] = [Fraction(0)] * count  # lint: allow[fraction-hot-path] -- the engine="fraction" spec harvest; the integer engine takes the branch above
            for t, value in enumerate(pair_sums):
                ordered[(2 * t) % count] = value
            gaps_column.append(solve_cyclic_pair_sums(ordered))
    population.set_column(KEY_LD_GAPS, gaps_column)
    return rounds
