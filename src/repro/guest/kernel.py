"""The guest kernel.

Owns the frame allocator, the process table, the netlink bus and the
background kernel activity (a small steady dirtying rate from OS
housekeeping — timers, slab churn, page-cache metadata — which is what
keeps a "quiet" VM from migrating in a single iteration).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigurationError
from repro.guest.netlink import NetlinkBus
from repro.guest.process import Process
from repro.mem.address import ring_spans
from repro.mem.constants import PAGE_SIZE, bytes_to_pages
from repro.mem.frame_alloc import FrameAllocator
from repro.sim.actor import Actor
from repro.units import MiB
from repro.xen.domain import Domain

#: Frames reserved for the kernel image, LKM, page tables, drivers.
DEFAULT_KERNEL_RESERVED_BYTES = MiB(96)


class GuestKernel(Actor):
    """A Linux-like kernel for one domain."""

    priority = 0
    #: checkpoint-protocol layout version (see repro.sim.actor);
    #: bump when a state field is added/renamed/repurposed
    snapshot_version = 1

    def __init__(
        self,
        domain: Domain,
        kernel_reserved_bytes: int = DEFAULT_KERNEL_RESERVED_BYTES,
        os_dirty_bytes_per_s: float = MiB(2),
    ) -> None:
        reserved_pages = bytes_to_pages(kernel_reserved_bytes)
        if reserved_pages >= domain.n_pages:
            raise ConfigurationError("kernel reservation exceeds domain memory")
        self.domain = domain
        self.reserved_pages = reserved_pages
        self.allocator = FrameAllocator(range(reserved_pages, domain.n_pages))
        self.netlink = NetlinkBus()
        self.os_dirty_bytes_per_s = float(os_dirty_bytes_per_s)
        self._processes: dict[int, Process] = {}
        self._next_pid = 100
        self._os_cursor = 0
        domain.add_writer(self)

    # -- frames --------------------------------------------------------------------

    def alloc_frames(self, n_pages: int) -> np.ndarray:
        return self.allocator.alloc(n_pages)

    def free_frames(self, pfns: np.ndarray) -> None:
        self.allocator.free(pfns)

    def allocated_or_reserved_pfns(self) -> np.ndarray:
        """PFNs that hold meaningful state (kernel + allocated frames)."""
        kernel = np.arange(self.reserved_pages, dtype=np.int64)
        return np.concatenate([kernel, self.allocator.allocated_pfns()])

    def free_pfns(self) -> np.ndarray:
        """PFNs that hold no meaningful state (for free-page skipping)."""
        return self.allocator.free_pfns()

    # -- processes --------------------------------------------------------------------

    def spawn(self, name: str) -> Process:
        proc = Process(self._next_pid, name, self)
        self._processes[proc.pid] = proc
        self._next_pid += 1
        return proc

    def reap(self, proc: Process) -> None:
        self._processes.pop(proc.pid, None)

    def process(self, pid: int) -> Process:
        return self._processes[pid]

    @property
    def processes(self) -> list[Process]:
        return list(self._processes.values())

    # -- background activity -------------------------------------------------------------

    def next_event(self, now: float) -> float:
        # Housekeeping dirtying is self-contained: nothing else reads it
        # between its own acting ticks.  A migration daemon that leaps
        # through a pre-copy race reads it back through tick-stamped
        # dirty-log marks and bounds it with :meth:`page_write_bound`,
        # so the kernel never needs to bound a leap.
        return math.inf

    def page_write_bound(self, dt: float) -> int:
        """Most page-dirty events one housekeeping tick issues."""
        return max(int(self.os_dirty_bytes_per_s * dt / PAGE_SIZE), 1)

    def step_many(self, start_tick: int, ticks: int, dt: float) -> None:
        """Aggregate *ticks* housekeeping steps into one batched write.

        The per-tick cursor walk is replayed with vectorized interval
        arithmetic; page version counts and dirty-log marks are exactly
        those of the per-tick :meth:`step` sequence, and every write is
        stamped with its tick.
        """
        if self.domain.paused:
            return
        reserved = self.reserved_pages
        tick_ids = start_tick + 1 + np.arange(ticks, dtype=np.int64)
        n_pages = int(self.os_dirty_bytes_per_s * dt / PAGE_SIZE)
        if n_pages >= 1:
            if 2 * n_pages >= reserved:
                # The wrap-clamp path; rare enough to replay per tick.
                try:
                    for tick in tick_ids.tolist():
                        self.domain.write_tick = tick
                        self.step(tick * dt, dt)
                finally:
                    self.domain.write_tick = None
                return
            starts, lens, stamps, self._os_cursor = ring_spans(
                self._os_cursor, reserved, np.full(ticks, n_pages, dtype=np.int64), tick_ids
            )
            self.domain.touch_pfn_intervals(starts, lens, stamps)
            return
        # Sub-page rate: find the cadence ticks, one page each.
        period = PAGE_SIZE / max(self.os_dirty_bytes_per_s, 1e-9)
        nows = tick_ids * dt
        fires = (nows / period).astype(np.int64) != ((nows - dt) / period).astype(
            np.int64
        )
        n_fired = int(fires.sum())
        if n_fired == 0:
            return
        starts = (self._os_cursor + np.arange(n_fired, dtype=np.int64)) % reserved
        self.domain.touch_pfn_intervals(
            starts, np.ones(n_fired, dtype=np.int64), tick_ids[fires]
        )
        self._os_cursor = int((self._os_cursor + n_fired) % reserved)

    def step(self, now: float, dt: float) -> None:
        """Dirty a few kernel pages per step (housekeeping writes)."""
        if self.domain.paused:
            return
        n_pages = int(self.os_dirty_bytes_per_s * dt / PAGE_SIZE)
        if n_pages <= 0:
            # Sub-page rates: dirty one page on the matching cadence.
            period = PAGE_SIZE / max(self.os_dirty_bytes_per_s, 1e-9)
            if int(now / period) != int((now - dt) / period):
                n_pages = 1
        if n_pages <= 0:
            return
        start = self._os_cursor % self.reserved_pages
        end = min(start + n_pages, self.reserved_pages)
        self.domain.touch_range(start, end)
        wrapped = n_pages - (end - start)
        if wrapped > 0:
            self.domain.touch_range(0, min(wrapped, self.reserved_pages))
        self._os_cursor = (self._os_cursor + n_pages) % self.reserved_pages
