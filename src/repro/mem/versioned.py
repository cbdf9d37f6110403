"""Per-page content versions.

The reproduction does not move real bytes; instead every guest page
carries a monotonically-increasing *version* that is bumped each time
the page is dirtied.  "Transferring" a page copies its current version
to the destination.  After migration, comparing version arrays proves —
page by page — that the migrator moved everything it had to move, which
is how the test suite and benchmarks verify correctness (DESIGN.md §5).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


class VersionedPages:
    """A version counter per page frame."""

    def __init__(self, n_pages: int) -> None:
        if n_pages < 0:
            raise ConfigurationError(f"page count must be >= 0, got {n_pages}")
        self.n_pages = int(n_pages)
        self._versions = np.zeros(self.n_pages, dtype=np.int64)
        #: exact running sum of the versions; ``None`` when stale (after
        #: :meth:`write` or a restore), recomputed on the next read
        self._total: int | None = 0

    def bump(self, pfns: np.ndarray) -> None:
        """Dirty the given pages (version += 1).

        ``np.add.at`` is used so duplicate PFNs in one call each count.
        """
        np.add.at(self._versions, pfns, 1)
        if self._total is not None:
            self._total += int(np.size(pfns))

    def bump_range(self, start: int, end: int) -> None:
        run = self._versions[start:end]
        run += 1
        if self._total is not None:
            self._total += run.size

    def bump_counts(self, pfns: np.ndarray, counts: np.ndarray) -> None:
        """Dirty *pfns*, bumping each by its entry in *counts*.

        Equivalent to a sequence of :meth:`bump` calls whose per-page
        occurrence totals are *counts* — the aggregated form the event
        kernel's batched writes use.
        """
        np.add.at(self._versions, pfns, counts)
        if self._total is not None:
            if np.ndim(counts):
                self._total += int(counts.sum())
            else:
                self._total += int(counts) * int(np.size(pfns))

    def bump_slice_counts(self, start: int, counts: np.ndarray) -> None:
        """Bump the contiguous PFN run from *start* by *counts* per page."""
        self._versions[start : start + counts.size] += counts
        if self._total is not None:
            self._total += int(counts.sum())

    def version(self, pfn: int) -> int:
        return int(self._versions[pfn])

    def read(self, pfns: np.ndarray) -> np.ndarray:
        """Current versions of the given pages (a copy)."""
        return self._versions.take(pfns)

    def write(self, pfns: np.ndarray, versions: np.ndarray) -> None:
        """Install received versions (the destination side of a transfer)."""
        self._versions[pfns] = versions
        self._total = None

    def snapshot(self) -> np.ndarray:
        """A copy of all versions."""
        return self._versions.copy()

    def mismatches(self, other: "VersionedPages") -> np.ndarray:
        """PFNs whose versions differ between ``self`` and *other*."""
        if other.n_pages != self.n_pages:
            raise ConfigurationError(
                f"page count mismatch: {self.n_pages} vs {other.n_pages}"
            )
        return np.flatnonzero(self._versions != other._versions)

    def total_dirty_events(self) -> int:
        """Sum of all versions = number of page-dirty events so far.

        O(1) from the running total every bump path keeps; only after a
        :meth:`write` or a restore is the array summed again.
        """
        if self._total is None:
            self._total = int(self._versions.sum())
        return self._total

    def __getstate__(self) -> dict:
        return {"n_pages": self.n_pages, "_versions": self._versions}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._total = None
