"""Trace-driven workloads.

The registry workloads are constant-rate abstractions.  Real
applications have phases — a batch job ramps up, a web tier follows a
diurnal load — and migration behaviour depends on *when* in the phase
the migration lands.  :class:`TraceDrivenJVM` replays a schedule of
(time, rates) breakpoints against the same heap substrate, so users can
drive the simulator from measured application traces.

Trace format (CSV, one breakpoint per line, rates hold until the next
breakpoint)::

    # time_s, alloc_mb_s, old_write_mb_s, misc_mb_s, ops_per_s
    0,   340, 15, 6, 0.75
    60,   40,  2, 1, 0.10
    120, 340, 15, 6, 0.75
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.jvm.hotspot import HotSpotJVM
from repro.units import MiB


@dataclass(frozen=True)
class TracePoint:
    """Rates that take effect at ``time_s`` and hold until the next point."""

    time_s: float
    alloc_mb_s: float
    old_write_mb_s: float
    misc_mb_s: float
    ops_per_s: float


def parse_trace_csv(text: str) -> list[TracePoint]:
    """Parse the CSV trace format; '#' lines are comments."""
    points: list[TracePoint] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 5:
            raise ConfigurationError(
                f"trace line {lineno}: expected 5 fields, got {len(fields)}"
            )
        try:
            points.append(TracePoint(*(float(f) for f in fields)))
        except ValueError as exc:
            raise ConfigurationError(f"trace line {lineno}: {exc}") from exc
    if not points:
        raise ConfigurationError("trace contains no breakpoints")
    times = [p.time_s for p in points]
    if times != sorted(times):
        raise ConfigurationError("trace breakpoints must be time-ordered")
    return points


class TraceDrivenJVM(HotSpotJVM):
    """A JVM whose mutator rates follow a breakpoint schedule."""

    #: checkpoint-protocol layout version; this subclass adds its own
    #: state fields, so it versions its snapshot independently
    snapshot_version = 2  # v2: HotSpotJVM v2 migration-load hook

    def __init__(self, process, heap, trace: list[TracePoint], **kwargs) -> None:
        if not trace:
            raise ConfigurationError("trace must have at least one breakpoint")
        first = trace[0]
        super().__init__(
            process,
            heap,
            alloc_bytes_per_s=MiB(first.alloc_mb_s),
            ops_per_s=first.ops_per_s,
            old_write_bytes_per_s=MiB(first.old_write_mb_s),
            misc_bytes_per_s=MiB(first.misc_mb_s),
            **kwargs,
        )
        self.trace = trace
        self._times = [p.time_s for p in trace]
        self._active_index = -1

    @classmethod
    def from_csv(cls, process, heap, text: str, **kwargs) -> "TraceDrivenJVM":
        return cls(process, heap, parse_trace_csv(text), **kwargs)

    def point_at(self, now: float) -> TracePoint:
        """The breakpoint in effect at time *now*."""
        idx = bisect.bisect_right(self._times, now) - 1
        return self.trace[max(idx, 0)]

    def next_event(self, now: float) -> float | None:
        # Rates are constant between breakpoints, so the parent's horizon
        # holds as long as the leap also stops at the next breakpoint
        # (whose switch must run as an ordinary step).
        base = super().next_event(now)
        if base is None:
            return None
        idx = bisect.bisect_right(self._times, now) - 1
        if idx + 1 < len(self._times):
            return min(base, self._times[idx + 1])
        return base

    def step(self, now: float, dt: float) -> None:
        idx = max(bisect.bisect_right(self._times, now) - 1, 0)
        if idx != self._active_index:
            point = self.trace[idx]
            self.alloc_bytes_per_s = MiB(point.alloc_mb_s)
            self.old_write_bytes_per_s = MiB(point.old_write_mb_s)
            self.misc_bytes_per_s = MiB(point.misc_mb_s)
            self.ops_per_s = point.ops_per_s
            self._active_index = idx
        super().step(now, dt)
