"""SRU reassembly-buffer tests."""

import weakref

import pytest

from repro.router.packets import Cell
from repro.router.reassembly import ReassemblyBuffer
from repro.sim import Engine


def cells_for(pkt_id, total, dst=1):
    return [
        Cell(pkt_id=pkt_id, seq=k, total=total, payload_bytes=48, dst_lc=dst)
        for k in range(total)
    ]


class TestCompletion:
    def test_completes_on_last_cell(self):
        eng = Engine()
        buf = ReassemblyBuffer(eng)
        done = []
        for cell in cells_for(1, 3):
            buf.add_cell(cell, lambda: done.append(1))
        assert done == [1]
        assert buf.completed == 1
        assert buf.occupancy == 0

    def test_single_cell_packet(self):
        eng = Engine()
        buf = ReassemblyBuffer(eng)
        done = []
        buf.add_cell(cells_for(7, 1)[0], lambda: done.append(7))
        assert done == [7]

    def test_interleaved_packets(self):
        eng = Engine()
        buf = ReassemblyBuffer(eng)
        done = []
        a = cells_for(1, 2)
        b = cells_for(2, 2)
        buf.add_cell(a[0], lambda: done.append("a"))
        buf.add_cell(b[0], lambda: done.append("b"))
        assert buf.occupancy == 2
        buf.add_cell(b[1], lambda: done.append("b"))
        buf.add_cell(a[1], lambda: done.append("a"))
        assert done == ["b", "a"]

    def test_pending_query(self):
        eng = Engine()
        buf = ReassemblyBuffer(eng)
        buf.add_cell(cells_for(5, 2)[0], lambda: None)
        assert buf.is_pending(5)
        assert not buf.is_pending(6)


class TestTimeout:
    def test_incomplete_reassembly_times_out(self):
        eng = Engine()
        buf = ReassemblyBuffer(eng, timeout_s=1e-3)
        aborted = []
        buf.add_cell(cells_for(1, 3)[0], lambda: None, aborted.append)
        eng.run(until=2e-3)
        assert aborted == ["timeout"]
        assert buf.timed_out == 1
        assert buf.occupancy == 0

    def test_completion_cancels_timeout(self):
        eng = Engine()
        buf = ReassemblyBuffer(eng, timeout_s=1e-3)
        aborted = []
        for cell in cells_for(1, 2):
            buf.add_cell(cell, lambda: None, aborted.append)
        eng.run(until=5e-3)
        assert aborted == []
        assert buf.timed_out == 0

    def test_cancelled_timeout_releases_its_closure(self):
        """Completion cancels the timeout, and the cancel frees the
        timeout closure at once: its captured cell and abort callback
        must not stay alive in the heap until the timeout's time."""
        eng = Engine()
        buf = ReassemblyBuffer(eng, timeout_s=1e-3)
        cells = cells_for(1, 2)
        aborted = []

        def on_abort(reason):
            aborted.append(reason)

        cell_ref = weakref.ref(cells[0])
        abort_ref = weakref.ref(on_abort)
        for cell in cells:
            buf.add_cell(cell, lambda: None, on_abort)
        del cells, cell, on_abort
        assert eng.pending == 1  # the lazily cancelled timeout
        assert cell_ref() is None
        assert abort_ref() is None
        eng.run()
        assert aborted == []
        assert buf.timed_out == 0

    def test_late_cell_after_timeout_reopens(self):
        """A straggler cell after timeout starts a fresh (doomed) entry;
        it must not resurrect the completed count."""
        eng = Engine()
        buf = ReassemblyBuffer(eng, timeout_s=1e-3)
        cells = cells_for(1, 3)
        buf.add_cell(cells[0], lambda: None)
        eng.run(until=2e-3)  # timed out
        buf.add_cell(cells[1], lambda: None)
        assert buf.occupancy == 1
        assert buf.completed == 0

    def test_invalid_timeout(self):
        with pytest.raises(ValueError):
            ReassemblyBuffer(Engine(), timeout_s=0.0)


class TestFlush:
    def test_flush_aborts_everything(self):
        eng = Engine()
        buf = ReassemblyBuffer(eng)
        aborted = []
        buf.add_cell(cells_for(1, 2)[0], lambda: None, aborted.append)
        buf.add_cell(cells_for(2, 2)[0], lambda: None, aborted.append)
        assert buf.flush() == 2
        assert aborted == ["flush", "flush"]
        assert buf.occupancy == 0
        assert buf.flushed == 2

    def test_flush_cancels_timeouts(self):
        eng = Engine()
        buf = ReassemblyBuffer(eng, timeout_s=1e-3)
        buf.add_cell(cells_for(1, 2)[0], lambda: None)
        buf.flush()
        eng.run(until=5e-3)
        assert buf.timed_out == 0  # timeout was cancelled by the flush

    def test_flush_empty_is_zero(self):
        assert ReassemblyBuffer(Engine()).flush() == 0
