"""Guest page-frame allocator.

Models the guest kernel's physical-page allocator at the granularity
this reproduction needs: frames are fungible, allocation returns a set
of PFNs (not necessarily contiguous, matching the paper's observation
that VA-contiguous areas map to scattered PFNs), and freed frames are
recycled LIFO so reuse-after-free is exercised by tests — the exact
hazard the PFN cache of Section 3.3.4 exists to handle.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, FrameExhausted


class FrameAllocator:
    """LIFO free-list allocator over a fixed set of page frames."""

    def __init__(self, pfns: np.ndarray | range) -> None:
        if isinstance(pfns, range):
            # A range cannot repeat; skip the duplicate scan.
            free = np.arange(pfns.start, pfns.stop, pfns.step or 1, dtype=np.int64)
        else:
            free = np.asarray(pfns, dtype=np.int64)
            if free.size and len(np.unique(free)) != free.size:
                raise ConfigurationError("frame pool contains duplicate PFNs")
        # Stored as a stack; reverse so low PFNs are handed out first,
        # which makes tests and traces easier to read.
        self._free = free[::-1].tolist()
        self._allocated: set[int] = set()
        self.total_frames = free.size

    @property
    def free_frames(self) -> int:
        return len(self._free)

    @property
    def allocated_frames(self) -> int:
        return len(self._allocated)

    def alloc(self, n: int) -> np.ndarray:
        """Allocate *n* frames; raises :class:`FrameExhausted` if short."""
        if n < 0:
            raise ConfigurationError(f"cannot allocate {n} frames")
        if n > len(self._free):
            raise FrameExhausted(
                f"requested {n} frames, only {len(self._free)} free"
            )
        if n == 0:
            return np.empty(0, dtype=np.int64)
        # Bulk-pop the stack top: identical PFNs, in identical order, as
        # n successive pop() calls.
        taken = self._free[-n:][::-1]
        del self._free[-n:]
        self._allocated.update(taken)
        return np.asarray(taken, dtype=np.int64)

    def free(self, pfns: np.ndarray) -> None:
        """Return frames to the pool; double-free raises."""
        for p in np.asarray(pfns, dtype=np.int64).tolist():
            if p not in self._allocated:
                raise ConfigurationError(f"double free or foreign PFN {p}")
            self._allocated.remove(p)
            self._free.append(p)

    def is_allocated(self, pfn: int) -> bool:
        return int(pfn) in self._allocated

    def allocated_pfns(self) -> np.ndarray:
        """All currently-allocated PFNs, ascending."""
        return np.sort(
            np.fromiter(self._allocated, dtype=np.int64, count=len(self._allocated))
        )

    def free_pfns(self) -> np.ndarray:
        """All currently-free PFNs, ascending (for free-page-skip baselines)."""
        return np.sort(np.asarray(self._free, dtype=np.int64))
