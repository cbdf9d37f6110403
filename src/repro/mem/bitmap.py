"""Page bitmaps.

One bit per page frame, numpy-backed so the hot operations (bulk set /
clear / popcount / set-extraction) are vectorized.  Both Xen's dirty
bitmap and the LKM's transfer bitmap (Section 3.3.3) use this type; the
paper's accounting — 32 KiB of bitmap per GiB of VM memory — holds for
the packed representation reported by :meth:`nbytes_packed`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


class PageBitmap:
    """A fixed-size bitmap indexed by page frame number."""

    #: clear operations so far; a reader caching a count of set bits
    #: knows it can only have shrunk if this moved
    clears = 0

    def __init__(self, n_pages: int, fill: bool = False) -> None:
        if n_pages < 0:
            raise ConfigurationError(f"bitmap size must be >= 0, got {n_pages}")
        self.n_pages = int(n_pages)
        self._bits = np.full(self.n_pages, fill, dtype=bool)

    # -- single-bit operations -------------------------------------------------

    def test(self, pfn: int) -> bool:
        return bool(self._bits[pfn])

    def set(self, pfn: int) -> None:
        self._bits[pfn] = True

    def clear(self, pfn: int) -> None:
        self._bits[pfn] = False
        self.clears += 1

    # -- bulk operations -------------------------------------------------------

    def set_pfns(self, pfns: np.ndarray) -> None:
        self._bits[pfns] = True

    def clear_pfns(self, pfns: np.ndarray) -> None:
        self._bits[pfns] = False
        self.clears += 1

    def set_range(self, start: int, end: int) -> None:
        """Set bits for PFNs in ``[start, end)``."""
        self._bits[start:end] = True

    def clear_range(self, start: int, end: int) -> None:
        self._bits[start:end] = False
        self.clears += 1

    def set_all(self) -> None:
        self._bits[:] = True

    def clear_all(self) -> None:
        self._bits[:] = False
        self.clears += 1

    def test_pfns(self, pfns: np.ndarray) -> np.ndarray:
        """Boolean array: bit state for each PFN in *pfns*."""
        return self._bits[pfns]

    # -- queries ---------------------------------------------------------------

    def count(self) -> int:
        """Number of set bits."""
        return int(self._bits.sum())

    def set_pfns_array(self) -> np.ndarray:
        """All set PFNs, ascending."""
        return np.flatnonzero(self._bits)

    def as_bool_array(self) -> np.ndarray:
        """A *copy* of the underlying boolean array."""
        return self._bits.copy()

    def raw(self) -> np.ndarray:
        """The live underlying array (mutations are visible)."""
        return self._bits

    @property
    def nbytes_packed(self) -> int:
        """Size of the bitmap packed at one bit per page (paper's figure)."""
        return (self.n_pages + 7) // 8

    # -- combination -----------------------------------------------------------

    def and_with(self, other: "PageBitmap") -> np.ndarray:
        """PFNs set in both bitmaps, ascending."""
        self._check_shape(other)
        return np.flatnonzero(self._bits & other._bits)

    def snapshot_and_clear(self) -> np.ndarray:
        """Atomically read the set PFNs and clear the whole bitmap.

        This is Xen's log-dirty *peek-and-clear* used at the start of
        every pre-copy iteration.
        """
        pfns = np.flatnonzero(self._bits)
        self._bits[:] = False
        self.clears += 1
        return pfns

    def copy(self) -> "PageBitmap":
        dup = PageBitmap(self.n_pages)
        dup._bits[:] = self._bits
        return dup

    def _check_shape(self, other: "PageBitmap") -> None:
        if other.n_pages != self.n_pages:
            raise ConfigurationError(
                f"bitmap size mismatch: {self.n_pages} vs {other.n_pages}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PageBitmap):
            return NotImplemented
        return self.n_pages == other.n_pages and bool(np.array_equal(self._bits, other._bits))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PageBitmap(n_pages={self.n_pages}, set={self.count()})"
