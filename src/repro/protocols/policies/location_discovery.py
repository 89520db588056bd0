"""Native walk-based location-discovery sweeps (vectorised twin of
:mod:`repro.protocols.location_discovery`).

The sweeps are the paper's canonical *data-dependent* phases: agents do
not know n, so the loop closes only when the collected gaps first sum
to a full turn (rotation 1) or to two full turns (rotation 2, odd n).
Each sweep therefore plans :class:`~repro.ring.stretch.
SpeculativeStretch` chunks -- optimistic spans of identical rounds plus
a stop predicate that accumulates slot 0's common-frame ``dist()``
values and fires on the closing round.  A stretch-capable backend
advances a whole chunk vectorised and cuts the commit back to the
firing round (a rotation-offset rewind); scalar backends interleave
execute and evaluate, reproducing the legacy loop exactly.  A chunk
holds at most ``_CHUNK_CELLS`` cells (rows times n), and no chunk
plans past round n, where a correct sweep closes, until the sweep has
run that long.  That length is a *harness* hint (``state.n``, the
access the legacy bug bound uses) -- correctness rests only on the
predicate.

Harvesting runs on integer numerators over the shared ``scale`` on
every backend, and streams (:class:`_GapHarvest`).  Lemma 1 makes
every round the same rotation, so in the common frame round t's row
(one cell per slot) is round 0's rotated by ``t`` places (rotation 1)
or ``2t`` (rotation 2), in one direction per ring.  Each chunk's
outcome releases its columns
(:meth:`~repro.ring.backends.ArrayStretchResult.release_columns`) once
the harvest holds them -- one ``(k, n)`` int64 matrix under numpy,
turned into the common frame in place, one int list per round
otherwise -- and every cell is checked against those rotations of row
0 (one vectorised compare against a strided view per matrix, one list
compare per row), folded into the slot totals and slot 0's column,
and dropped, so a sweep retains O(n).  When every cell passed and the
rows are exactly a ring's worth, slot s's column is slot 0's rotated by
``sign * s``, and column 0 is the whole result: the rotation-1 sweep
interns it, and the rotation-2 sweep inverts one circulant on its
reorder (round t to index ``2t mod n``) on raw numerators
(:func:`~repro.analysis.linear_system.solve_cyclic_pair_sums_ints`).
Either publishes one :class:`~repro.protocols.base.GapRows` whose rows
the ``ld.gaps`` cells view (:class:`~repro.protocols.base.GapRowView`),
so the collect takes it as it stands.  Otherwise (a doctored, faulted
or short run) the harvest rebuilds its blocks from the retained
outcomes -- a fused span recomputes its columns from its plan, a
replayed one from its rounds -- and the reference checks find the
outliers: :func:`_rotation_check` behind the rotation-1 sweep's
:class:`LazyGapColumn` views, :meth:`_GapHarvest.take_pair_sum_gaps`
in the rotation-2 sweep.  ``engine="fraction"`` feeds the same integer
columns to the eager Fraction-list harvest and
:func:`~repro.analysis.linear_system.solve_cyclic_pair_sums` -- the
executable spec and the benchmark's baseline side.
"""

from __future__ import annotations

import operator
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

#: Cell budget of one speculative chunk, rows times n: the optimistic
#: column matrix stays near 16 MiB of int64 at any n.  Tests shrink it
#: to force multi-chunk sweeps.
_CHUNK_CELLS = 1 << 21


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
    """One sweep's integer gap harvest, checked as it streams in.

    Every round's common-frame dist numerators, over one shared
    ``scale``, are checked against row 0 rotated by ``step * t``
    places (``step`` is the sweep's rotation, 1 or 2) in the direction
    row 1 picks, folded into slot 0's column, and dropped.  The harvest
    keeps row 0, slot 0's column and the chunk outcomes, which the
    round history holds anyway.  ``blocks`` are filled only by
    :meth:`rebuild`, the fallback for rows that fail the check.
    """

    __slots__ = ("n", "step", "scale", "flips", "cache", "results",
                 "rounds", "column0", "passed", "direction", "blocks",
                 "_ext", "_windows", "_flip")

    def __init__(self, n: int, step: int, scale: int, flips,
                 cache: Dict) -> None:
        self.n = n
        self.step = step
        self.scale = scale
        self.flips = flips
        self.cache = cache
        self.results: List[object] = []
        self.rounds = 0
        self.column0: List[int] = []
        self.passed = True
        self.direction: Optional[int] = None
        self.blocks: List[object] = []
        self._ext: List[int] = []
        self._windows = None
        self._flip = None

    def _row(self, result, j: int) -> List[int]:
        """Round ``j`` of ``result`` in the common frame."""
        scale = self.scale
        return [scale - v if flip and v else v
                for flip, v in zip(self.flips, result.dist_ints(j))]

    def _common(self, result):
        """``result``'s common-frame numerators: one ``(k, n)`` int64
        matrix on the vectorised representation, else one int list per
        round.  The outcome releases its columns, so the matrix is the
        harvest's and turns into the common frame in place: a flipped
        column is ``scale - v``, one multiply-add per cell with no
        per-cell Python, and a zero stays zero."""
        xp = result.np
        if xp is None:
            return [self._row(result, j) for j in range(result.k)]
        common = result.dist_ints_all()
        result.release_columns()
        if self._flip is None:
            flip = xp.asarray([bool(f) for f in self.flips])
            self._flip = (
                xp.where(flip, -1, 1).astype(common.dtype),
                xp.where(flip, self.scale, 0).astype(common.dtype),
            )
        factor, shift = self._flip
        zero = common == 0
        common *= factor
        common += shift
        xp.putmask(common, zero, 0)
        return common

    def add_result(self, result, want_totals: bool):
        """Check and fold every committed round of ``result``; returns
        the chunk's per-slot totals as ints over ``scale`` (or None).
        The caller releases the outcome's columns afterwards."""
        start, k = self.rounds, result.k
        totals = None
        if result.np is not None:
            common = self._common(result)
            self._check_block(result.np, common, start)
            self.column0.extend(common[:, 0].tolist())
            if want_totals:
                if self.scale.bit_length() + k.bit_length() <= 61:
                    totals = common.sum(axis=0).tolist()
                else:
                    totals = [sum(col) for col in zip(*common.tolist())]
        else:
            if want_totals:
                totals = [0] * self.n
            for j in range(k):
                row = self._row(result, j)
                self._check_row(row, start + j)
                self.column0.append(row[0])
                if totals is not None:
                    totals = list(map(operator.add, totals, row))
        self.results.append(result)
        self.rounds += k
        return totals

    def _offset(self, t: int) -> int:
        """Where row t starts in ``_ext`` (row 0 repeated ``step + 1``
        times): row t is row 0 rotated left by ``direction * step * t``
        places."""
        return self.step * (t if self.direction > 0 else self.n - t)  # type: ignore[operator]

    def _pick_direction(self, row: List[int]) -> bool:
        """Take the rotation's direction from row 1: +1 when it is row
        0 rotated left by ``step`` places (also when the two rotations
        coincide), -1 when rotated right; False when it is neither."""
        ext, n, step = self._ext, self.n, self.step
        if row == ext[step:step + n]:
            self.direction = 1
        elif row == ext[n - step:2 * n - step]:
            self.direction = -1
        return self.direction is not None

    def _check_row(self, row: List[int], t: int) -> None:
        """One list compare of round ``t``'s row."""
        if not self.passed:
            return
        if t == 0:
            self._ext = row * (self.step + 1)
        elif t >= self.n or (t == 1 and not self._pick_direction(row)):
            self.passed = False
        else:
            o = self._offset(t)
            self.passed = row == self._ext[o:o + self.n]

    def _check_block(self, np, block, start: int) -> None:
        """One vectorised compare of rows ``start..`` against a strided
        view of their windows of ``_ext`` (no copy)."""
        if not self.passed:
            return
        n, step, k = self.n, self.step, len(block)
        if start == 0:
            self._ext = block[0].tolist() * (step + 1)
        if start + k > n or (
            start <= 1 < start + k
            and not self._pick_direction(block[1 - start].tolist())
        ):
            self.passed = False
            return
        if self.direction is None:  # row 0 alone so far
            return
        if self._windows is None:
            ext = np.asarray(self._ext, dtype=block.dtype)
            self._windows = np.lib.stride_tricks.sliding_window_view(ext, n)
        first = self._offset(start)
        stride = step * self.direction
        view = self._windows[first:first + stride * k:stride]
        self.passed = bool((block == view).all())

    def ring_rows(self) -> Optional[GapRows]:
        """The sweep's rows, when every cell passed the check and the
        rows are exactly a ring's worth; else None.

        Slot s's column is then column 0 rotated by ``direction * s``:
        the rotation-1 sweep's rows are column 0's rotations, and the
        rotation-2 sweep's are those of one circulant solve of column
        0's reorder (round t to index ``2t mod n``).  ``direction`` is
        the sign :func:`_rotation_check` picks: row 1 picks -1 only
        when it is row 0 rotated right and not left, which is when the
        rotations of column 0 (reordered) do not coincide and slot 1's
        column is column 0 rotated by -1.
        """
        n = self.n
        if not self.passed or self.rounds != n:
            return None
        base = self.column0
        if self.step == 1:
            gaps = intern_fractions(base, self.scale, self.cache)
        else:
            ordered = [0] * n
            for t, value in enumerate(base):
                ordered[(2 * t) % n] = value
            gaps = solve_cyclic_pair_sums_ints(ordered, self.scale, cache={})
        return GapRows(gaps, n, self.direction)  # type: ignore[arg-type]

    def rebuild(self) -> None:
        """Recompute every block from the retained outcomes, for the
        reference checks: a fused span recomputes its columns from its
        plan, a replayed one from its rounds."""
        self.blocks = [self._common(result) for result in self.results]

    def column_ints(self, slot: int) -> List[int]:
        """Slot's collected numerators over ``scale``, in round order."""
        return _block_column(self.blocks, slot)

    def column(self, slot: int) -> List[Fraction]:
        """Slot's collected gaps as interned Fractions."""
        return intern_fractions(
            self.column_ints(slot), self.scale, self.cache
        )

    def gap_rows(self) -> GapRows:
        """The rotation-1 sweep's result rows, read off the rebuilt
        blocks (the fallback of :meth:`ring_rows`).

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
        """Every slot's gaps from its rotation-2 pair sums, off the
        rebuilt blocks (the fallback of :meth:`ring_rows`).

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

    ``cells`` are the agents' ``ld.gaps`` values.  When they are a
    sweep's views, one per row of one
    :class:`~repro.protocols.base.GapRows`, that is the result as it
    stands.  When they are the rotation-1 sweep's fallback views, one
    per slot of one harvest, the rows come straight off its rebuilt
    integer blocks (:meth:`_GapHarvest.gap_rows`).  Anything else
    (plain lists from Algorithm 6, the ``fraction`` backend or the
    callback drivers, or a doctored cell) goes through the reference
    :meth:`GapRows.from_rows`.
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
    ``turns`` full turns; returns ``(gaps, rounds, totals, scale)``
    where ``totals`` holds every slot's running sum as numerators over
    ``scale``.

    The stop predicate sums slot 0's integer dist numerators over the
    first executed round's ``scale`` and fires on ``turns * scale``.
    ``gaps`` is the streaming :class:`_GapHarvest` (round t's row is
    row 0 rotated by ``turns * t`` places), or, under
    ``engine="fraction"``, every slot's eager Fraction list from the
    spec harvest.  Each chunk's outcome releases its columns once
    harvested.
    """
    if engine not in (None, "int", "fraction"):
        raise ProtocolError(f"unknown harvest engine {engine!r}")
    population = sched.population
    n = population.n
    collected: List[List[Fraction]] = [[] for _ in range(n)]
    # Same harness access the legacy bug bound uses; correctness never
    # depends on it -- the predicate alone decides the span's length.
    ring = sched.state.n
    bound = 4 * ring + 8
    rows = max(1, _CHUNK_CELLS // n)
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
        # A correct sweep closes on its n-th round, so no chunk plans
        # past it until the sweep has run that long.
        limit = ring if executed < ring else bound + 1
        result = sched.run_stretch(SpeculativeStretch(
            vector, min(rows, limit - executed), stop=stop
        ))
        scale = result.scale
        if engine == "fraction":
            block_totals = _harvest_block(
                result, flips, collected, cache, want_totals
            )
        else:
            if harvest is None:
                harvest = _GapHarvest(n, turns, scale, flips, cache)
            block_totals = harvest.add_result(result, want_totals)
        result.release_columns()
        if totals is None:
            totals = block_totals
        elif block_totals is not None:
            totals = [a + b for a, b in zip(totals, block_totals)]
        executed += result.k
        if fired[0]:
            gaps = collected if harvest is None else harvest
            return gaps, executed, totals, scale
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
    gaps, rounds, totals, scale = _sweep_gaps(
        sched, vector, flips, 1, "rotation-1", engine=engine
    )
    for total in totals:
        if total != scale:
            raise ProtocolError("agent's sweep did not cover a full turn")
    if isinstance(gaps, _GapHarvest):
        # Integer mode: every slot's cell views its row of one GapRows,
        # or, when some cell failed the streaming check, its column of
        # the rebuilt harvest.
        rows = gaps.ring_rows()
        if rows is None:
            gaps.rebuild()
            gaps = [LazyGapColumn(gaps, slot) for slot in range(gaps.n)]
        else:
            gaps = [GapRowView(rows, slot) for slot in range(len(rows))]
    population.set_column(KEY_LD_GAPS, gaps)
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
    gaps, rounds, _totals, _scale = _sweep_gaps(
        sched, vector, flips, 2, "rotation-2",
        want_totals=False, engine=engine,
    )

    gaps_column: List[Sequence[Fraction]] = []
    if isinstance(gaps, _GapHarvest):
        # Integer mode: one circulant solve of slot 0's reordered pair
        # sums when every cell passed the streaming check, else the
        # rebuilt harvest's reorder and per-outlier solves; each slot's
        # cell is a view of its row of the one GapRows.
        rows = gaps.ring_rows()
        if rows is None:
            gaps.rebuild()
            rows = gaps.take_pair_sum_gaps()
        gaps_column = [GapRowView(rows, slot) for slot in range(len(rows))]
    else:
        for pair_sums in gaps:
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
