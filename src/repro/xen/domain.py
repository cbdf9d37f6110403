"""Guest domains (VMs).

A :class:`Domain` is the unit of migration: a fixed-size page-frame
space with per-page content versions, a dirty log, vCPUs and a
pause/resume lifecycle.  All guest writes funnel through
:meth:`touch_pfns` / :meth:`touch_range` so that content versions and
the dirty log stay consistent by construction.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, MigrationError
from repro.mem.address import cover
from repro.mem.constants import PAGE_SIZE, bytes_to_pages
from repro.mem.versioned import VersionedPages
from repro.xen.dirty_log import DirtyLog


class Domain:
    """A guest VM as the hypervisor sees it."""

    def __init__(self, name: str, mem_bytes: int, vcpus: int = 4) -> None:
        if mem_bytes <= 0 or mem_bytes % PAGE_SIZE:
            raise ConfigurationError(
                f"domain memory must be a positive multiple of {PAGE_SIZE}"
            )
        if vcpus <= 0:
            raise ConfigurationError("domain needs at least one vCPU")
        self.name = name
        self.mem_bytes = int(mem_bytes)
        self.n_pages = bytes_to_pages(mem_bytes)
        self.vcpus = vcpus
        self.pages = VersionedPages(self.n_pages)
        self.dirty_log = DirtyLog(self.n_pages)
        self._paused = False
        self._running = True
        #: total pause time accumulated, for downtime cross-checks
        self.paused_seconds = 0.0
        self._paused_since: float | None = None
        #: actors that write this domain's memory, each declaring a
        #: per-tick page bound (see :meth:`page_write_bound`)
        self.writers: list = []
        #: tick stamped on writes while a quiet-tick replay steps a
        #: writer one tick at a time (see DirtyLog.mark_stamped); else None
        self.write_tick: int | None = None

    # -- writers ------------------------------------------------------------------

    def add_writer(self, writer) -> None:
        """Register an actor that writes this domain's memory.

        *writer* provides ``page_write_bound(dt)``: the most page-dirty
        events one of its quiet ticks can issue, or ``None`` if it
        declares no bound.
        """
        if writer not in self.writers:
            self.writers.append(writer)

    def page_write_bound(self, dt: float) -> int | None:
        """Most page-dirty events one quiet tick of all registered
        writers can issue; ``None`` when any writer declares no bound."""
        total = 0
        for writer in self.writers:
            bound = writer.page_write_bound(dt)
            if bound is None:
                return None
            total += bound
        return total

    # -- lifecycle ---------------------------------------------------------------

    @property
    def paused(self) -> bool:
        return self._paused

    @property
    def running(self) -> bool:
        return self._running

    def pause(self, now: float = 0.0) -> None:
        if self._paused:
            raise MigrationError(f"domain {self.name} is already paused")
        self._paused = True
        self._paused_since = now

    def unpause(self, now: float = 0.0) -> None:
        if not self._paused:
            raise MigrationError(f"domain {self.name} is not paused")
        self._paused = False
        if self._paused_since is not None:
            self.paused_seconds += max(0.0, now - self._paused_since)
            self._paused_since = None

    def destroy(self) -> None:
        """Tear the domain down (the source side after migration)."""
        self._running = False

    # -- guest memory writes -------------------------------------------------------

    def touch_pfns(self, pfns: np.ndarray) -> None:
        """Guest write to the given pages: bump versions, log dirty."""
        if self._paused:
            raise MigrationError(f"paused domain {self.name} cannot write memory")
        if self.write_tick is None:
            self.dirty_log.mark(pfns)
        else:
            self.dirty_log.mark_stamped(pfns, self.write_tick, self.pages)
        self.pages.bump(pfns)

    def touch_range(self, start_pfn: int, end_pfn: int) -> None:
        """Guest write to the contiguous PFN range ``[start, end)``."""
        if self._paused:
            raise MigrationError(f"paused domain {self.name} cannot write memory")
        if self.write_tick is None:
            self.dirty_log.mark_range(start_pfn, end_pfn)
        else:
            self.dirty_log.mark_stamped(
                np.arange(start_pfn, end_pfn, dtype=np.int64), self.write_tick, self.pages
            )
        self.pages.bump_range(start_pfn, end_pfn)

    def touch_pfns_counted(
        self, pfns: np.ndarray, counts: np.ndarray, ticks: np.ndarray | None = None
    ) -> None:
        """Batched form of :meth:`touch_pfns` over a contiguous PFN walk.

        ``counts[i]`` is how many times ``pfns[i]`` would have been
        bumped by the equivalent per-write call sequence; zero-count
        entries (gaps between write intervals) are neither bumped nor
        marked dirty.  ``ticks[i]``, when given, is the earliest tick
        among those writes (the dirty log stamps it).
        """
        if self._paused:
            raise MigrationError(f"paused domain {self.name} cannot write memory")
        events = int(counts.sum())
        if not counts.all():  # gaps between the write intervals
            covered = counts > 0
            pfns, counts = pfns[covered], counts[covered]
            if ticks is not None:
                ticks = ticks[covered]
        if ticks is None:
            self.dirty_log.mark_counted(pfns, events)
        else:
            self.dirty_log.mark_stamped(pfns, ticks, self.pages, events)
        self.pages.bump_counts(pfns, counts)

    def touch_pfn_intervals(
        self, starts: np.ndarray, lens: np.ndarray, ticks: np.ndarray | None = None
    ) -> None:
        """Batched form of :meth:`touch_range` over many PFN intervals.

        Exactly equivalent to one ``touch_range(s, s + n)`` call per
        ``(s, n)`` pair: per-page version bumps count every covering
        interval, and the dirty log sees the same page totals.  With
        per-interval *ticks*, each page is stamped with the earliest
        tick that wrote it.
        """
        if self._paused:
            raise MigrationError(f"paused domain {self.name} cannot write memory")
        keep = lens > 0
        if not keep.all():
            starts, lens = starts[keep], lens[keep]
            if ticks is not None:
                ticks = ticks[keep]
        if starts.size == 0:
            return
        if ticks is not None and not self.dirty_log.enabled:
            ticks = None  # stamps only matter while the log records
        lo, counts, earliest = cover(starts, starts + lens, ticks)
        covered = np.flatnonzero(counts)
        if earliest is None:
            self.dirty_log.mark_counted(lo + covered, int(lens.sum()))
        else:
            self.dirty_log.mark_stamped(
                lo + covered, earliest[covered], self.pages, int(lens.sum())
            )
        self.pages.bump_slice_counts(lo, counts)

    # -- migration plumbing ---------------------------------------------------------

    def read_pages(self, pfns: np.ndarray) -> np.ndarray:
        """Page contents (versions) for transfer — as of the dirty log's
        replay tick while one is set (see DirtyLog.view_tick)."""
        return self.dirty_log.versions_at(pfns, self.pages.read(pfns))

    def make_destination(self) -> "Domain":
        """An empty same-shape domain on the destination host."""
        dest = Domain(self.name, self.mem_bytes, self.vcpus)
        dest._paused = True  # restored domains start paused
        dest._paused_since = None
        return dest

    def install_pages(self, pfns: np.ndarray, versions: np.ndarray) -> None:
        """Destination side: accept transferred page contents."""
        self.pages.write(pfns, versions)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "paused" if self._paused else "running"
        return f"Domain({self.name!r}, {self.mem_bytes >> 20} MiB, {state})"
