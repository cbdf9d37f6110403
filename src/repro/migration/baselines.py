"""Related-work baselines (Section 2).

These migrate correctly but pay the costs the paper attributes to each
family of approaches:

- :class:`ThrottledPrecopyMigrator` — Clark et al.: slow down the
  memory-dirtying rate by stunning write-heavy processes.  Converges
  faster at the price of application throughput during migration.
- :class:`CompressedPrecopyMigrator` — Jin et al. / Svärd et al.:
  compress pages before sending; trades CPU for bandwidth and is
  throughput-bound by the compressor.
- :class:`FreePageSkipMigrator` — Koto et al.: OS-assisted skipping of
  pages the guest kernel holds on its free list.  Helps lightly-loaded
  VMs only.
- :class:`StopAndCopyMigrator` — the non-live reference point: pause,
  copy everything, resume.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.guest.kernel import GuestKernel
from repro.jvm.hotspot import HotSpotJVM
from repro.mem.constants import PAGE_SIZE
from repro.migration.precopy import CPU_S_PER_BYTE_SENT, MigrationPhase, PrecopyMigrator
from repro.migration.verify import verify_migration
from repro.net.link import Link
from repro.units import MiB
from repro.xen.domain import Domain


class ThrottledPrecopyMigrator(PrecopyMigrator):
    """Pre-copy with guest write-throttling while migration runs."""

    name = "xen-throttled"

    def __init__(
        self,
        domain: Domain,
        link: Link,
        jvms: list[HotSpotJVM],
        throttle_factor: float = 0.25,
        **kwargs,
    ) -> None:
        if not 0.0 < throttle_factor <= 1.0:
            raise ConfigurationError("throttle factor must be in (0, 1]")
        super().__init__(domain, link, **kwargs)
        self.jvms = jvms
        self.throttle_factor = throttle_factor
        self._saved_rates: list[tuple[float, float, float]] = []

    def _on_migration_started(self, now: float) -> None:
        for jvm in self.jvms:
            self._saved_rates.append(
                (jvm.alloc_bytes_per_s, jvm.old_write_bytes_per_s, jvm.ops_per_s)
            )
            jvm.alloc_bytes_per_s *= self.throttle_factor
            jvm.old_write_bytes_per_s *= self.throttle_factor
            # Allocation-bound workloads complete operations slower too.
            jvm.ops_per_s *= self.throttle_factor

    def _on_resumed(self, now: float) -> None:
        for jvm, (alloc, old, ops) in zip(self.jvms, self._saved_rates):
            jvm.alloc_bytes_per_s = alloc
            jvm.old_write_bytes_per_s = old
            jvm.ops_per_s = ops


class CompressedPrecopyMigrator(PrecopyMigrator):
    """Pre-copy that compresses page payloads before sending."""

    name = "xen-compressed"

    #: CPU cost of compressing one byte of page data (zlib-ish).
    CPU_S_PER_BYTE_COMPRESSED = 12.0 / (1 << 30)

    def __init__(
        self,
        domain: Domain,
        link: Link,
        compression_ratio: float = 0.45,
        compressor_bytes_per_s: float = MiB(400),
        **kwargs,
    ) -> None:
        if not 0.0 < compression_ratio <= 1.0:
            raise ConfigurationError("compression ratio must be in (0, 1]")
        super().__init__(domain, link, **kwargs)
        self.compression_ratio = compression_ratio
        self.compressor_bytes_per_s = float(compressor_bytes_per_s)

    def step(self, now: float, dt: float) -> None:
        # The compressor caps how much page data can be prepared per step.
        self._compress_budget = self.compressor_bytes_per_s * dt
        super().step(now, dt)

    def _page_payload_bytes(self) -> int:
        return int(PAGE_SIZE * self.compression_ratio)

    def _count_sent(self, n_pages: int) -> None:
        # Its own compressor stands in for the rescue one.
        self._pages_pushed += n_pages

    def _send_cpu_seconds(self) -> float:
        # Compressing dominates the daemon's CPU bill.
        return self._pages_pushed * PAGE_SIZE * (
            CPU_S_PER_BYTE_SENT + self.CPU_S_PER_BYTE_COMPRESSED
        )

    def _pump(self, now: float) -> None:
        # Clamp the wire budget to what the compressor can feed this
        # step, then restore the unused remainder.
        wire_cost = self._page_wire_cost()
        cap_pages = self._compress_budget / PAGE_SIZE
        cap_wire = cap_pages * wire_cost
        stash = max(0.0, self._budget - cap_wire)
        self._budget -= stash
        sent_before = self._iter_sent
        super()._pump(now)
        self._compress_budget -= (self._iter_sent - sent_before) * PAGE_SIZE
        self._budget += stash


class FreePageSkipMigrator(PrecopyMigrator):
    """OS-assisted pre-copy that skips guest free pages."""

    name = "xen-freepage-skip"

    def __init__(self, domain: Domain, link: Link, kernel: GuestKernel, **kwargs) -> None:
        super().__init__(domain, link, **kwargs)
        self.kernel = kernel
        self._free_mask = np.zeros(domain.n_pages, dtype=bool)

    def _begin_iteration(self, now: float) -> None:
        # Refresh the kernel's free-page view at each iteration start.
        self._free_mask[:] = False
        free = self.kernel.free_pfns()
        if free.size:
            self._free_mask[free] = True
        super()._begin_iteration(now)

    def _transfer_allowed(self, pfns: np.ndarray) -> np.ndarray | None:
        return ~self._free_mask[pfns]

    def _verify(self) -> None:
        assert self.dest_domain is not None
        result = verify_migration(self.domain, self.dest_domain, self.kernel, lkm=None)
        self.report.verified = result.ok
        self.report.mismatched_pages = result.mismatched_pages
        self.report.violating_pages = result.violating_pages


class StopAndCopyMigrator(PrecopyMigrator):
    """Non-live migration: pause first, copy everything, resume."""

    name = "stop-and-copy"

    def start(self, now: float = 0.0) -> None:
        super().start(now)
        # Immediately abandon the live phase: pause and ship everything.
        self.report.stop_reason = "non-live stop-and-copy"
        self._enter_last_copy(now)

    def _enter_last_copy(self, now: float, carry: np.ndarray | None = None) -> None:
        if not self.domain.paused:
            self.domain.pause(now)
        self.phase = MigrationPhase.LAST_COPY
        # Restart at iteration 1 so the paused pass covers every page.
        self._iter_index = 0
        self._begin_iteration(now)
