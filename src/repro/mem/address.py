"""Virtual-address ranges and the paper's page-alignment rules.

Applications describe skip-over areas as half-open VA ranges
``[start, end)``.  Section 3.3.2: the LKM "aligns the start and end VAs
of the specified range to the immediate next and previous page
boundaries, respectively, to ensure pages found in the skip-over area
can be skipped ... in their entirety" — i.e. it shrinks the range
*inward* so only fully-covered pages are skipped
(:func:`page_span_inner`).  Ranges that must *cover* every touched page
(e.g. dirtying) align *outward* instead (:func:`page_span_outer`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AddressError
from repro.mem.constants import PAGE_SHIFT, PAGE_SIZE


@dataclass(frozen=True, order=True)
class VARange:
    """A half-open virtual address range ``[start, end)``."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise AddressError(f"malformed VA range [{self.start:#x}, {self.end:#x})")

    @property
    def length(self) -> int:
        return self.end - self.start

    @property
    def empty(self) -> bool:
        return self.end == self.start

    def contains(self, va: int) -> bool:
        return self.start <= va < self.end

    def contains_range(self, other: "VARange") -> bool:
        return other.empty or (self.start <= other.start and other.end <= self.end)

    def intersection(self, other: "VARange") -> "VARange":
        lo = max(self.start, other.start)
        hi = min(self.end, other.end)
        if hi <= lo:
            return VARange(lo, lo)
        return VARange(lo, hi)

    def overlaps(self, other: "VARange") -> bool:
        return max(self.start, other.start) < min(self.end, other.end)

    def subtract(self, other: "VARange") -> list["VARange"]:
        """Parts of ``self`` not covered by *other* (0, 1 or 2 pieces)."""
        pieces: list[VARange] = []
        cut = self.intersection(other)
        if cut.empty:
            return [self] if not self.empty else []
        if self.start < cut.start:
            pieces.append(VARange(self.start, cut.start))
        if cut.end < self.end:
            pieces.append(VARange(cut.end, self.end))
        return pieces

    def __repr__(self) -> str:
        return f"VARange({self.start:#x}, {self.end:#x})"


def page_span_inner(r: VARange) -> tuple[int, int]:
    """Pages fully contained in *r*, as a ``(first_vpn, end_vpn)`` pair.

    This is the LKM's shrink-inward rule for skip-over areas: a page is
    only eligible for skipping if the area covers it entirely.  Returns
    an empty span (``first == end``) when no full page fits.
    """
    first = (r.start + PAGE_SIZE - 1) >> PAGE_SHIFT
    end = r.end >> PAGE_SHIFT
    if end < first:
        end = first
    return first, end


def page_span_outer(r: VARange) -> tuple[int, int]:
    """Pages touched by *r* at all, as a ``(first_vpn, end_vpn)`` pair."""
    if r.empty:
        vpn = r.start >> PAGE_SHIFT
        return vpn, vpn
    first = r.start >> PAGE_SHIFT
    end = (r.end + PAGE_SIZE - 1) >> PAGE_SHIFT
    return first, end


#: the earliest tick of a unit no interval covers
_NEVER = int(np.iinfo(np.int64).max)


def cover(
    first: np.ndarray, end: np.ndarray, ticks: np.ndarray | None = None
) -> tuple[int, np.ndarray, np.ndarray | None]:
    """How the non-empty unit intervals ``[first[i], end[i])`` cover a run.

    Returns ``(lo, counts, earliest)`` over the units ``lo ..
    max(end) - 1``: ``counts`` is the number of intervals covering each
    unit, and with per-interval *ticks*, ``earliest`` is the smallest
    tick among them (the int64 maximum where none covers the unit).
    """
    lo = int(first.min())
    size = int(end.max()) - lo
    counts = (
        np.bincount(first - lo, minlength=size + 1)[:size]
        - np.bincount(end - lo, minlength=size + 1)[:size]
    ).cumsum()
    if ticks is None:
        return lo, counts, None
    n = first.size
    top = _NEVER
    if n == 1 or (
        (first[1:] >= end[:-1] - 1).all() and (ticks[1:] >= ticks[:-1]).all()
    ):
        # A chain (each interval starts at most one unit before its
        # predecessor ends) in tick order: every unit's earliest writer
        # is the first interval reaching it, so paint the intervals'
        # own stretches between gaps.
        prev_end = np.empty_like(end)
        prev_end[0] = lo
        prev_end[1:] = end[:-1]
        own = np.maximum(first, prev_end)
        stretch = np.empty(2 * n, dtype=np.int64)
        stretch[0::2] = own - prev_end
        stretch[1::2] = end - own
        value = np.empty(2 * n, dtype=np.int64)
        value[0::2] = top
        value[1::2] = ticks
        return lo, counts, np.repeat(value, stretch)
    span = end - first
    unit = np.repeat(first - lo - (np.cumsum(span) - span), span) + np.arange(int(span.sum()))
    earliest = np.full(size, top, dtype=np.int64)
    np.minimum.at(earliest, unit, np.repeat(ticks, span))
    return lo, counts, earliest


def ring_spans(
    cursor: int, size: int, n: np.ndarray, ticks: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Back-to-back writes of ``n[i]`` units (each at most *size*)
    around a ring of *size* units, starting at *cursor*.

    Returns ``(starts, lens, span_ticks, cursor_after)``: one span per
    write, plus a second span from 0 for a write that runs off the end
    (appended after the others, with its write's tick).
    """
    off = (cursor + np.cumsum(n) - n) % size
    end = off + n
    wrapped = end - size
    has_wrap = wrapped > 0
    if has_wrap.any():
        starts = np.concatenate([off, np.zeros(int(has_wrap.sum()), dtype=np.int64)])
        lens = np.concatenate([np.minimum(end, size) - off, wrapped[has_wrap]])
        ticks = np.concatenate([ticks, ticks[has_wrap]])
    else:
        starts, lens = off, n
    return starts, lens, ticks, int((cursor + int(n.sum())) % size)


def coalesce(ranges: list[VARange]) -> list[VARange]:
    """Sort and merge overlapping / adjacent ranges, dropping empties."""
    live = sorted(r for r in ranges if not r.empty)
    merged: list[VARange] = []
    for r in live:
        if merged and r.start <= merged[-1].end:
            last = merged[-1]
            if r.end > last.end:
                merged[-1] = VARange(last.start, r.end)
        else:
            merged.append(r)
    return merged
