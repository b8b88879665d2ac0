"""Crossbar switching fabric with redundant fabric cards.

Commercial routers make the fabric dependable through explicit sparing --
the paper cites the Cisco 12000's five fabric cards, four active plus one
1:4 spare -- and the dependability analysis accordingly treats the fabric
as always functional.  This model implements the sparing so the
assumption can be *exercised*: a card failure triggers an automatic
swap-in of the spare; only when active capacity falls below the configured
requirement does the fabric degrade (reduced cell rate), and the DES then
shows the service impact the analysis abstracts away.

Transfer model: one FIFO queue per output port drained at the port's cell
rate (a standard output-queued crossbar abstraction); the fabric is
non-blocking on inputs.

Cell clock: a run of queued cells is driven by one
:meth:`~repro.sim.Engine.schedule_run` burst whose per-cell callbacks
fire at their computed timestamps inside it.  The effective rate is
re-read at every cell boundary from the cached ``_fraction`` maintained
by :meth:`fail_card` / :meth:`repair_card` (card-health changes must go
through those methods for the data path to see them), so a mid-run
``active_fraction`` change (card fail/repair/spare swap) splits the
burst onto the new rate.  The per-cell reference clock it is tested
against is :func:`repro.validate.oracles.scalar_cell_clock`.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from itertools import repeat

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.sim import Engine
from repro.router.packets import Cell

__all__ = ["FabricCard", "SwitchFabric"]


@dataclass
class FabricCard:
    """One switching-fabric card; ``active`` cards carry traffic."""

    card_id: int
    capacity_cells_per_s: float
    healthy: bool = True
    active: bool = True

    def fail(self) -> None:
        """Hard failure of the card."""
        self.healthy = False
        self.active = False

    def repair(self) -> None:
        """Replace the card; it returns as a standby spare."""
        self.healthy = True
        self.active = False


@dataclass
class _OutputPort:
    queue: deque = field(default_factory=deque)
    busy: bool = False
    delivered_cells: int = 0
    dropped_cells: int = 0


class SwitchFabric:
    """Output-queued crossbar with 1:``n_active`` card sparing.

    Parameters
    ----------
    engine:
        Simulation engine for scheduling cell departures.
    n_ports:
        One port per linecard.
    port_rate_cells_per_s:
        Full-health drain rate of each output port.
    n_active_cards, n_spare_cards:
        Fabric card complement (default 4 + 1, the Cisco 12000 layout).
        Port rate scales with ``active_fraction`` when cards are lost
        beyond the spares.
    """

    def __init__(
        self,
        engine: Engine,
        n_ports: int,
        *,
        port_rate_cells_per_s: float = 25e6,
        n_active_cards: int = 4,
        n_spare_cards: int = 1,
    ) -> None:
        if n_ports < 1:
            raise ValueError(f"fabric needs at least one port, got {n_ports}")
        if n_active_cards < 1 or n_spare_cards < 0:
            raise ValueError("invalid fabric card complement")
        self._engine = engine
        self._ports = [_OutputPort() for _ in range(n_ports)]
        self._rate = port_rate_cells_per_s
        self._n_active_required = n_active_cards
        self.cards = [
            FabricCard(i, port_rate_cells_per_s / n_active_cards)
            for i in range(n_active_cards + n_spare_cards)
        ]
        for spare in self.cards[n_active_cards:]:
            spare.active = False
        self.swaps = 0  # spare activations, for stats
        #: cached ``active_fraction``, refreshed by fail/repair; the cell
        #: clock reads this at every cell boundary.
        self._fraction = self.active_fraction

    @property
    def n_ports(self) -> int:
        """Number of fabric ports (one per LC)."""
        return len(self._ports)

    @property
    def active_fraction(self) -> float:
        """Fraction of required card capacity currently active (<= 1)."""
        active = sum(1 for c in self.cards if c.active and c.healthy)
        return min(1.0, active / self._n_active_required)

    @property
    def operational(self) -> bool:
        """True while any card capacity remains."""
        return self._fraction > 0.0

    def fail_card(self, card_id: int) -> None:
        """Fail a fabric card and swap in a spare when one is available."""
        self.cards[card_id].fail()
        self._activate_spares()
        self._fraction = self.active_fraction

    def repair_card(self, card_id: int) -> None:
        """Repair a card (returns as standby, promoted if capacity short)."""
        self.cards[card_id].repair()
        self._activate_spares()
        self._fraction = self.active_fraction

    def _activate_spares(self) -> None:
        active = sum(1 for c in self.cards if c.active and c.healthy)
        for card in self.cards:
            if active >= self._n_active_required:
                break
            if card.healthy and not card.active:
                card.active = True
                active += 1
                self.swaps += 1

    def transfer(
        self, cell: Cell, dst_port: int, on_delivered: Callable[[Cell], None]
    ) -> bool:
        """Enqueue ``cell`` for ``dst_port``; False when the fabric is dead.

        ``on_delivered`` fires when the cell finishes crossing, after
        queueing plus the (possibly degraded) serialization delay.
        """
        return self.transfer_run((cell,), dst_port, on_delivered)

    def transfer_run(
        self,
        cells: Iterable[Cell],
        dst_port: int,
        on_delivered: Callable[[Cell], None],
    ) -> bool:
        """Enqueue a run of cells for ``dst_port`` as one scheduled unit.

        One operational check, one queue extension and at most one clock
        start for the whole run (a segmented packet's cells enter the
        fabric together).  Synchronously equivalent to calling
        :meth:`transfer` per cell -- the fabric cannot die between the
        iterations of a same-instant loop.
        """
        if not self.operational:
            return False
        if not 0 <= dst_port < len(self._ports):
            raise ValueError(f"destination port {dst_port} out of range")
        port = self._ports[dst_port]
        port.queue.extend(zip(cells, repeat(on_delivered)))
        if not port.busy and port.queue:
            self._start_run(dst_port)
        return True

    def _start_run(self, port_idx: int) -> None:
        port = self._ports[port_idx]
        port.busy = True
        engine = self._engine
        queue = port.queue
        popleft = queue.popleft
        base_rate = self._rate
        fraction = self._fraction
        spacing = 1.0 / (base_rate * fraction)
        # The time of the firing in progress: the engine's clock always
        # equals the time the previous step returned.
        now = engine.now + spacing

        def step() -> float | None:
            nonlocal now, fraction, spacing
            cell, callback = popleft()
            port.delivered_cells += 1
            callback(cell)
            if not queue:
                port.busy = False
                return None
            # Re-read the effective rate at the cell boundary, so a
            # mid-run active_fraction change splits the burst onto the
            # new rate.
            # A float object holds one value, so while the cached object
            # is still current the spacing needs no recomputing.
            if self._fraction is not fraction:
                fraction = self._fraction
                rate = base_rate * fraction
                if rate <= 0.0:
                    self._drop_queue(port_idx)
                    return None
                spacing = 1.0 / rate
            now = now + spacing
            return now

        engine.schedule_run(now, step, label=f"fabric:port{port_idx}")

    def _drop_queue(self, port_idx: int) -> None:
        """Drop every queued cell of a port on a dead fabric, accounted."""
        port = self._ports[port_idx]
        n = len(port.queue)
        port.queue.clear()
        port.busy = False
        if n == 0:
            return
        port.dropped_cells += n
        if _metrics.REGISTRY is not None:
            _metrics.REGISTRY.counter("fabric.cells_dropped").inc(n)
        if _trace.TRACER is not None:
            _trace.TRACER.emit(
                "fabric.drop", t=self._engine.now, port=port_idx, cells=n
            )

    def queue_depth(self, port_idx: int) -> int:
        """Cells waiting at an output port (diagnostics)."""
        return len(self._ports[port_idx].queue)

    def delivered_cells(self, port_idx: int) -> int:
        """Cells delivered through an output port so far."""
        return self._ports[port_idx].delivered_cells

    def dropped_cells(self, port_idx: int) -> int:
        """Cells dropped at an output port by fabric death so far."""
        return self._ports[port_idx].dropped_cells
