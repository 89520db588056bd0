"""Shared-memory arenas: named int64/byte columns in one segment.

An :class:`ShmArena` packs a fixed set of named columns -- 64-bit int
columns and raw byte columns -- into a single
:class:`multiprocessing.shared_memory.SharedMemory` segment, so that a
pool of worker processes can read and write whole columns without a
single pickle round-trip.  The layout (an ordered tuple of
``(key, kind, count)`` triples) travels out-of-band: the owner computes
it, workers receive it in their job arguments and attach by name.

Lifecycle is explicit and leak-proof:

* :meth:`ShmArena.create` builds and owns a segment; the owner is a
  context manager whose exit closes *and unlinks* it.
* :meth:`ShmArena.attach` maps an existing segment read-write; closing
  an attachment never unlinks.  Pool workers share the owner's
  :mod:`multiprocessing.resource_tracker` (both fork and spawn hand
  the tracker fd down), so their attach-time registrations are set
  no-ops against the owner's entry and a worker's exit can never tear
  down a segment it does not own.  Attaching from an *unrelated*
  process tree is not part of the design -- an independent tracker
  would unlink the segment when that tree exits.
* Every owned segment is tracked in a module registry swept at
  interpreter exit, so even an abandoned arena (test failure, worker
  crash mid-run) is unlinked before the process dies.

Column views are numpy int64 ``frombuffer`` arrays when numpy is
importable and stdlib ``memoryview(...).cast("q")`` buffers when it is
not; byte columns are plain memoryview slices either way.
"""

from __future__ import annotations

import atexit
from multiprocessing import shared_memory
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.exceptions import ConfigurationError, SimulationError
from repro.ring.arrayops import get_numpy

#: One column: (key, kind, count) with kind "i64" (count int64 cells)
#: or "bytes" (count raw bytes).  Column starts are 8-byte aligned.
ColumnSpec = Tuple[str, str, int]
Layout = Tuple[ColumnSpec, ...]

_KINDS = ("i64", "bytes")

#: Owned-but-not-yet-unlinked segments, swept at interpreter exit so a
#: failed run can never leak a segment past the process lifetime.
_OWNED: Dict[str, shared_memory.SharedMemory] = {}
_SWEEP_REGISTERED = False


def _register_owned(segment: shared_memory.SharedMemory) -> None:
    global _SWEEP_REGISTERED
    _OWNED[segment.name] = segment
    if not _SWEEP_REGISTERED:
        _SWEEP_REGISTERED = True
        atexit.register(_sweep_owned)


def _sweep_owned() -> None:
    """Unlink every still-owned segment (atexit safety net)."""
    for name in list(_OWNED):
        segment = _OWNED.pop(name, None)
        if segment is None:
            continue
        try:
            segment.close()
        except (OSError, BufferError):
            pass
        try:
            segment.unlink()
        except (OSError, FileNotFoundError):
            pass


def _layout_offsets(layout: Layout) -> Tuple[Dict[str, Tuple[str, int, int]], int]:
    """Validate a layout; returns ``{key: (kind, offset, count)}`` and
    the total segment size in bytes (columns are 8-byte aligned)."""
    offsets: Dict[str, Tuple[str, int, int]] = {}
    cursor = 0
    for key, kind, count in layout:
        if kind not in _KINDS:
            raise ConfigurationError(
                f"unknown column kind {kind!r} for {key!r}; "
                f"expected one of {', '.join(_KINDS)}"
            )
        if count < 0:
            raise ConfigurationError(
                f"column {key!r} has negative count {count}"
            )
        if key in offsets:
            raise ConfigurationError(f"duplicate column key {key!r}")
        cursor = (cursor + 7) & ~7  # 8-byte alignment
        offsets[key] = (kind, cursor, count)
        cursor += 8 * count if kind == "i64" else count
    return offsets, max(cursor, 1)


class ShmArena:
    """A set of named columns in one shared-memory segment.

    Build with :meth:`create` (owner) or :meth:`attach` (worker); read
    and write columns through :meth:`ints` / :meth:`raw`.  The owner is
    a context manager whose exit closes and unlinks the segment.
    """

    __slots__ = ("name", "layout", "owner", "_segment", "_offsets",
                 "_closed")

    def __init__(
        self,
        segment: shared_memory.SharedMemory,
        layout: Layout,
        owner: bool,
    ) -> None:
        self._segment = segment
        self.name = segment.name
        self.layout = tuple(layout)
        self.owner = owner
        self._offsets, _size = _layout_offsets(self.layout)
        self._closed = False

    # -- construction ----------------------------------------------------

    @classmethod
    def create(cls, layout: Iterable[ColumnSpec]) -> "ShmArena":
        """Allocate a fresh zero-filled segment for ``layout`` (owner)."""
        layout = tuple(layout)
        _offsets, size = _layout_offsets(layout)
        segment = shared_memory.SharedMemory(create=True, size=size)
        _register_owned(segment)
        return cls(segment, layout, owner=True)

    @classmethod
    def attach(cls, name: str, layout: Iterable[ColumnSpec]) -> "ShmArena":
        """Map an existing segment by name (attachment, never unlinks)."""
        layout = tuple(layout)
        _offsets, size = _layout_offsets(layout)
        try:
            segment = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            raise SimulationError(
                f"shared-memory segment {name!r} does not exist "
                "(owner already unlinked it?)"
            ) from None
        if segment.size < size:
            segment.close()
            raise SimulationError(
                f"segment {name!r} holds {segment.size} bytes but the "
                f"declared layout needs {size}"
            )
        return cls(segment, layout, owner=False)

    # -- column views ----------------------------------------------------

    def _column(self, key: str, kind: str) -> Tuple[int, int]:
        if self._closed:
            raise SimulationError(
                f"arena {self.name!r} is closed; no column views remain"
            )
        entry = self._offsets.get(key)
        if entry is None:
            raise KeyError(key)
        got, offset, count = entry
        if got != kind:
            raise SimulationError(
                f"column {key!r} is kind {got!r}, not {kind!r}"
            )
        return offset, count

    def ints(self, key: str):
        """The int64 column ``key``: a numpy view when numpy is
        available, else a ``memoryview(...).cast('q')`` buffer.  Both
        support indexed read/write; only the numpy view vectorises."""
        offset, count = self._column(key, "i64")
        np = get_numpy()
        if np is not None:
            return np.frombuffer(
                self._segment.buf, dtype=np.int64, count=count,
                offset=offset,
            )
        return memoryview(self._segment.buf)[
            offset:offset + 8 * count
        ].cast("q")

    def raw(self, key: str) -> memoryview:
        """The byte column ``key`` as a writable memoryview slice."""
        offset, count = self._column(key, "bytes")
        return memoryview(self._segment.buf)[offset:offset + count]

    def write_ints(self, key: str, values: Sequence[int]) -> None:
        """Fill the int64 column ``key`` from ``values`` (same length)."""
        view = self.ints(key)
        try:
            if len(values) != len(view):
                raise SimulationError(
                    f"column {key!r}: {len(values)} values for "
                    f"{len(view)} cells"
                )
            np = get_numpy()
            if np is not None:
                view[:] = np.asarray(values, dtype=np.int64)
            else:
                for i, v in enumerate(values):
                    view[i] = v
        finally:
            # Drop the local even on the exception path -- a traceback
            # frame pinning this view would make the caller's cleanup
            # close() raise BufferError and leak the segment.
            del view

    def read_ints(self, key: str) -> List[int]:
        """The int64 column ``key`` copied out as a plain list."""
        view = self.ints(key)
        np = get_numpy()
        if np is not None:
            return view.tolist()
        return list(view)

    # -- lifecycle -------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release this process's mapping (idempotent).  Column views
        taken earlier must already be dropped; closing with live numpy
        views raises ``BufferError`` by design -- a dangling view over
        an unmapped segment would be a use-after-free."""
        if self._closed:
            return
        self._segment.close()  # BufferError leaves the arena open
        self._closed = True

    def unlink(self) -> None:
        """Destroy the segment (owner only; idempotent).  Existing
        mappings stay valid until their processes close them."""
        if not self.owner:
            raise SimulationError(
                f"arena {self.name!r} is an attachment; only the owner "
                "may unlink"
            )
        _OWNED.pop(self.name, None)
        try:
            self._segment.unlink()
        except FileNotFoundError:
            pass

    def release(self) -> None:
        """Close, and unlink too when this arena owns the segment."""
        self.close()
        if self.owner:
            self.unlink()

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        role = "owner" if self.owner else "attachment"
        return (
            f"<ShmArena {self.name} {role} "
            f"cols={[k for k, _, _ in self.layout]}>"
        )


def pack_blobs(parts: Sequence[bytes]) -> Tuple[bytes, List[int]]:
    """Concatenate byte strings; ``bounds[i]:bounds[i+1]`` frames part
    ``i`` of the packed payload (the out-of-band framing fleet arenas
    use for their spec blobs)."""
    bounds = [0]
    for part in parts:
        bounds.append(bounds[-1] + len(part))
    return b"".join(parts), bounds
