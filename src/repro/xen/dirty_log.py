"""Log-dirty page tracking.

Xen's shadow log-dirty mode records which guest pages were written
since the bitmap was last read.  The migration daemon enables the mode
at the start of migration and *peeks-and-clears* the bitmap at each
iteration boundary; pages dirtied mid-iteration therefore surface in
the next iteration's working set — exactly the behaviour Figure 1's
dirtying-rate series comes from.

The log keeps, instead of one bit, the tick each page became dirty,
encoded as ``_EPOCH - tick`` so that 0 means clean and "dirty by tick
*t*" is one comparison.  Ordinary marks record tick 0, "some past
tick"; that is all a bitmap needs.  The event kernel's race leaps
(DESIGN.md §6) let the guests write a whole stretch of ticks before the
daemon replays them, and writes issued for a known tick are *stamped*
(:meth:`mark_stamped`): a page records the tick of its first mark
inside the leap and the version it had before that write, so the
replay sees the log — and reads page contents — exactly as they stood
at any tick of the stretch (:attr:`view_tick`).
"""

from __future__ import annotations

import numpy as np

from repro.mem.versioned import VersionedPages
from repro.telemetry.probe import NULL_PROBE

#: a dirty page stores ``_EPOCH - tick`` (uint32); a clean one 0
_EPOCH = int(np.iinfo(np.uint32).max)
#: the last tick a stamped write may carry
MAX_STAMP_TICK = _EPOCH - 1


class DirtyLog:
    """A dirty log that only records while tracking is enabled."""

    def __init__(self, n_pages: int) -> None:
        self.n_pages = n_pages
        #: per page, ``_EPOCH -`` the tick it became dirty (0 = clean);
        #: allocated while enabled
        self._since: np.ndarray | None = None
        #: pre-write versions of pages first marked by a stamped write
        #: (transient, allocated on the first stamped mark)
        self._pre: np.ndarray | None = None
        #: telemetry handle (see repro.telemetry); no-op unless enabled
        self.probe = NULL_PROBE
        #: pages marked while enabled (a page marked twice counts twice)
        self.marked = 0
        #: of :attr:`marked`, the pages whose write carried a tick stamp
        self.stamped = 0
        #: an upper bound on the pages turned from clean to dirty, bar
        #: :meth:`remark`: exact for stamped marks, every page for the
        #: others
        self.dirtied = 0
        #: while set, :meth:`dirty_mask` and :meth:`versions_at` answer
        #: as of the end of this tick's guest writes
        self.view_tick: int | None = None

    def __getstate__(self) -> dict:
        # Between engine advances, where checkpoints are taken, every
        # stamp lies in the past: a dirty page's exact tick no longer
        # matters, so the log pickles as a bitmap and drops the
        # transient pre-write versions.
        state = {k: v for k, v in self.__dict__.items() if k not in ("_since", "_pre")}
        state["dirty"] = None if self._since is None else self._since != 0
        return state

    def __setstate__(self, state: dict) -> None:
        dirty = state.pop("dirty")
        self.__dict__.update(state)
        self._since = None if dirty is None else np.where(dirty, _EPOCH, 0).astype(np.uint32)
        self._pre = None
        self.view_tick = None

    @property
    def enabled(self) -> bool:
        return self._since is not None

    def enable(self) -> None:
        """Turn on tracking with a clean slate (Xen's LOGDIRTY_ENABLE)."""
        self._since = np.zeros(self.n_pages, dtype=np.uint32)

    def disable(self) -> None:
        self._since = self._pre = None

    def mark(self, pfns: np.ndarray) -> None:
        """Record writes to the given pages (no-op when disabled)."""
        if self._since is not None:
            self._since[pfns] = _EPOCH
            n = int(np.size(pfns))
            self.marked += n
            self.dirtied += n
            if self.probe.enabled:
                self.probe.count("dirty.pages_marked", n)

    def remark(self, pfns: np.ndarray) -> None:
        """Mark pages whose dirtiness the migration daemon consumed but
        did not act on (skip re-injection).  They lie behind its scan
        cursor, so unlike a guest write this dirties nothing it still
        has to examine: :attr:`dirtied` does not move."""
        if self._since is not None:
            self._since[pfns] = _EPOCH
            n = int(np.size(pfns))
            self.marked += n
            if self.probe.enabled:
                self.probe.count("dirty.pages_marked", n)

    def mark_range(self, start: int, end: int) -> None:
        if self._since is not None:
            self._since[start:end] = _EPOCH
            n = max(0, end - start)
            self.marked += n
            self.dirtied += n
            if self.probe.enabled:
                self.probe.count("dirty.pages_marked", int(end - start))

    def mark_counted(self, pfns: np.ndarray, marked_events: int) -> None:
        """Record a batch of writes covering *pfns*.

        *marked_events* is the total page count the equivalent
        per-write :meth:`mark` calls would have reported (duplicates
        included), so the ``dirty.pages_marked`` counter stays exact
        under the event kernel's aggregated writes.
        """
        if self._since is not None:
            self._since[pfns] = _EPOCH
            self.marked += int(pfns.size)
            self.dirtied += int(pfns.size)
            if self.probe.enabled:
                self.probe.count("dirty.pages_marked", int(marked_events))

    def mark_stamped(
        self,
        pfns: np.ndarray,
        ticks,
        pages: VersionedPages,
        marked_events: int | None = None,
    ) -> None:
        """:meth:`mark_counted` for a write stamped with its tick.

        Call just before the write bumps the versions of the distinct
        pages *pfns*.  *ticks* (a scalar or one per page, each at most
        :data:`MAX_STAMP_TICK`) is the tick the write belongs to.  A
        clean page takes this tick and keeps its current version (read
        from *pages*) as its pre-write version; a page marked earlier
        keeps the earlier tick.  Ticks are never cleared while a page
        stays dirty — a stale tick lies in the past, so it reads as
        dirty.
        """
        since = self._since
        if since is None:
            return
        if self._pre is None:
            self._pre = np.zeros(self.n_pages, dtype=np.int64)
        was = since[pfns]
        fresh = pfns[was == 0]
        if fresh.size:
            self._pre[fresh] = pages.read(fresh)
        since[pfns] = np.maximum(was, _EPOCH - ticks)
        n = int(pfns.size)
        self.marked += n
        self.stamped += n
        self.dirtied += int(fresh.size)
        if self.probe.enabled:
            self.probe.count(
                "dirty.pages_marked", n if marked_events is None else int(marked_events)
            )

    def peek_and_clear(self) -> np.ndarray:
        """Dirty PFNs since the last call; resets the log (CLEAN op)."""
        dirty = self.peek()
        if dirty.size:
            self._since[dirty] = 0
        if self.probe.enabled:
            self.probe.observe("dirty.scan_pages", float(dirty.size))
        return dirty

    def peek(self) -> np.ndarray:
        """Dirty PFNs without clearing (PEEK op), ascending."""
        if self._since is None:
            return np.empty(0, dtype=np.int64)
        # (nonzero on a bool array is several times faster than on uint32)
        return np.flatnonzero(self._since != 0)

    def is_dirty(self, pfn: int) -> bool:
        return self._since is not None and bool(self._since[pfn])

    def dirty_mask(self, pfns: np.ndarray) -> np.ndarray:
        """Boolean per-PFN dirty state for *pfns* (as of
        :attr:`view_tick` when one is set)."""
        if self._since is None:
            return np.zeros(np.shape(pfns), dtype=bool)
        if self.view_tick is None:
            return self._since[pfns] != 0
        return self._since[pfns] >= _EPOCH - self.view_tick

    def versions_at(self, pfns: np.ndarray, versions: np.ndarray) -> np.ndarray:
        """*versions* (the current versions of the pages *pfns*, all clean
        as of :attr:`view_tick`) as of that tick: a page dirty by now
        was first written after it and reads its pre-write version.
        Updates in place."""
        if self.view_tick is None or self._pre is None:
            return versions
        later = self._since[pfns].nonzero()[0]
        if later.size:
            versions[later] = self._pre[pfns[later]]
        return versions

    def count(self, where: np.ndarray | None = None) -> int:
        """Dirty pages, or only those set in the boolean page mask
        *where* (one per page)."""
        if self._since is None:
            return 0
        if where is None:
            return int(np.count_nonzero(self._since))
        return int(np.count_nonzero((self._since != 0) & where))
