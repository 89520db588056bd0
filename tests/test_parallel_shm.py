"""Shared-memory arenas: layout validation, column round-trips, the
owner/attachment lifecycle, and the no-leaked-segments guarantee.

The arena is the zero-copy seam the warm-pool fleet executor rides, so
the tests pin its contract hard: a closed arena refuses views, closing
with live views is a loud ``BufferError`` (never a silent
use-after-free), attachments can never unlink, and every failure path
-- including an exception inside the owner's ``with`` -- leaves no
segment behind.
"""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError, SimulationError
from repro.parallel import shm
from repro.parallel.shm import ShmArena, pack_blobs


def owned_names():
    """Names of segments the module currently owns (leak probe)."""
    return set(shm._OWNED)


LAYOUT = (("a", "i64", 4), ("blob", "bytes", 13), ("b", "i64", 2))


class TestLayoutValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            ShmArena.create((("x", "f32", 4),))

    def test_negative_count(self):
        with pytest.raises(ConfigurationError):
            ShmArena.create((("x", "i64", -1),))

    def test_duplicate_key(self):
        with pytest.raises(ConfigurationError):
            ShmArena.create((("x", "i64", 1), ("x", "bytes", 1)))

    def test_odd_byte_column_keeps_i64_aligned(self):
        # "b" starts after a 13-byte blob; alignment must pad it.
        with ShmArena.create(LAYOUT) as arena:
            arena.write_ints("b", [-(2**62), 2**62])
            assert arena.read_ints("b") == [-(2**62), 2**62]


class TestColumnRoundTrips:
    def test_ints_and_raw(self):
        with ShmArena.create(LAYOUT) as arena:
            arena.write_ints("a", [1, -2, 3, -4])
            assert arena.read_ints("a") == [1, -2, 3, -4]
            arena.raw("blob")[:5] = b"hello"
            assert bytes(arena.raw("blob")[:5]) == b"hello"
            # fresh segments are zero-filled
            assert arena.read_ints("b") == [0, 0]

    def test_wrong_kind_and_missing_key(self):
        with ShmArena.create(LAYOUT) as arena:
            with pytest.raises(SimulationError):
                arena.ints("blob")
            with pytest.raises(SimulationError):
                arena.raw("a")
            with pytest.raises(KeyError):
                arena.ints("nope")

    def test_write_length_mismatch(self):
        with ShmArena.create(LAYOUT) as arena:
            with pytest.raises(SimulationError):
                arena.write_ints("a", [1, 2])

    def test_stdlib_fallback_without_numpy(self, monkeypatch):
        # ints() must stay read/write-correct when numpy is absent.
        monkeypatch.setattr(shm, "get_numpy", lambda: None)
        with ShmArena.create((("a", "i64", 3),)) as arena:
            arena.write_ints("a", [7, -8, 2**40])
            view = arena.ints("a")
            assert list(view) == [7, -8, 2**40]
            view[1] = 99
            del view
            assert arena.read_ints("a") == [7, 99, 2**40]


class TestLifecycle:
    def test_attach_reads_owner_writes(self):
        with ShmArena.create(LAYOUT) as arena:
            arena.write_ints("a", [5, 6, 7, 8])
            attachment = ShmArena.attach(arena.name, LAYOUT)
            assert attachment.owner is False
            assert attachment.read_ints("a") == [5, 6, 7, 8]
            attachment.write_ints("b", [1, 2])
            assert arena.read_ints("b") == [1, 2]
            attachment.close()

    def test_attach_missing_segment(self):
        with pytest.raises(SimulationError):
            ShmArena.attach("repro-no-such-segment", LAYOUT)

    def test_attach_undersized_segment(self):
        with ShmArena.create((("a", "i64", 2),)) as arena:
            too_big = (("a", "i64", 1024),)
            with pytest.raises(SimulationError):
                ShmArena.attach(arena.name, too_big)

    def test_attachment_may_not_unlink(self):
        with ShmArena.create(LAYOUT) as arena:
            attachment = ShmArena.attach(arena.name, LAYOUT)
            with pytest.raises(SimulationError):
                attachment.unlink()
            attachment.close()

    def test_context_exit_unlinks(self):
        with ShmArena.create(LAYOUT) as arena:
            name = arena.name
            assert name in owned_names()
        assert name not in owned_names()
        with pytest.raises(SimulationError):
            ShmArena.attach(name, LAYOUT)

    def test_close_is_idempotent_and_fences_views(self):
        arena = ShmArena.create(LAYOUT)
        arena.close()
        arena.close()
        with pytest.raises(SimulationError):
            arena.ints("a")
        arena.release()  # owner: still unlinks after close

    def test_close_with_live_view_is_loud(self):
        arena = ShmArena.create(LAYOUT)
        name = arena.name
        view = arena.ints("a")
        with pytest.raises(BufferError):
            arena.close()
        # the failed close must not have marked the arena closed:
        # retrying after the views are gone completes the lifecycle
        # and the segment is still destroyed.
        assert arena.closed is False
        del view
        arena.release()
        assert name not in owned_names()
        with pytest.raises(SimulationError):
            ShmArena.attach(name, LAYOUT)

    def test_exception_inside_with_still_unlinks(self):
        with pytest.raises(RuntimeError):
            with ShmArena.create(LAYOUT) as arena:
                name = arena.name
                raise RuntimeError("simulated failure mid-run")
        assert name not in owned_names()
        with pytest.raises(SimulationError):
            ShmArena.attach(name, LAYOUT)


class TestPackBlobs:
    def test_framing(self):
        payload, bounds = pack_blobs([b"ab", b"", b"cdef"])
        assert payload == b"abcdef"
        assert bounds == [0, 2, 2, 6]
        parts = [
            payload[bounds[i]:bounds[i + 1]] for i in range(3)
        ]
        assert parts == [b"ab", b"", b"cdef"]
