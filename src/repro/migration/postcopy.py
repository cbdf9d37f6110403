"""Post-copy migration (Hines & Gopalan [18], Hirofuchi et al. [19]).

Post-copy inverts pre-copy: the VM's execution state moves first, the
VM resumes at the destination immediately, and memory pages follow —
pushed in the background and pulled on demand when the guest faults on
a page that has not arrived.  Downtime is minimal by construction, but
"to run the VM in the destination, pages are fetched from the source,
incurring performance penalties" (Section 2) — which is why the paper
rejects it as a baseline for latency-sensitive applications.

Model: at :meth:`start` the domain pauses only for the vCPU-state
transfer, then resumes.  A background pre-pager pushes pages in address
order; every guest write to a page that has not arrived counts as a
demand fault that stalls the guest (the fault penalty is charged
through the JVM interference hook as degraded execution).  Migration
completes when every page has been fetched.

Correctness note: the simulation keeps one live memory image (the
running guest), so the "fetch" moves the page's *pre-resume* content
snapshot; a page dirtied at the destination before its background fetch
arrives must NOT be overwritten.  The fetched-bitmap ordering below
guarantees that, and the verifier checks it.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import MigrationAbortedError, MigrationError
from repro.mem.bitmap import PageBitmap
from repro.mem.constants import PAGE_SIZE
from repro.migration.precopy import (
    CPU_S_PER_BYTE_SENT,
    DEFAULT_RESUME_DELAY_S,
    MigrationPhase,
)
from repro.migration.report import IterationRecord, MigrationReport
from repro.net.link import Link
from repro.sim.actor import Actor
from repro.telemetry.probe import NULL_PROBE
from repro.xen.domain import Domain

#: Seconds of guest stall per demand-faulted page (one network RTT plus
#: servicing); the dominant cost post-copy pays.
DEMAND_FAULT_STALL_S = 450e-6


class PostCopyMigrator(Actor):
    """Resume first, fetch memory afterwards."""

    priority = 10
    #: checkpoint-protocol layout version (see repro.sim.actor);
    #: bump when a state field is added/renamed/repurposed
    snapshot_version = 2  # v2: _wire_total (byte-attribution ledger)
    name = "postcopy"

    def __init__(
        self,
        domain: Domain,
        link: Link,
        resume_delay_s: float = DEFAULT_RESUME_DELAY_S,
    ) -> None:
        self.domain = domain
        self.link = link
        self.resume_delay_s = resume_delay_s
        self.report = MigrationReport(self.name, domain.mem_bytes)
        self.phase = MigrationPhase.IDLE
        self.fetched = PageBitmap(domain.n_pages)
        self._snapshot: np.ndarray | None = None
        self._cursor = 0
        self._budget = 0.0
        self._resume_timer = 0.0
        self._started = 0.0
        self.demand_faults = 0
        self.stall_seconds = 0.0
        #: wire bytes this migration accounted (the synthetic final
        #: record carries this rather than the link meter's absolute
        #: counter, which mixes in other consumers' traffic)
        self._wire_total = 0
        self._last_step_wire = 0.0
        self._step_capacity = 1.0
        self._recent_stall = 0.0
        self._dest_failed_reason: str | None = None
        #: telemetry handle (see repro.telemetry); no-op unless enabled
        self.probe = NULL_PROBE
        self._span_migration = None
        self._span_resume = None

    # -- control -----------------------------------------------------------------

    def start(self, now: float = 0.0) -> None:
        if self.phase is not MigrationPhase.IDLE:
            raise MigrationError("migration already started")
        self._started = now
        self.report.started_s = now
        self._span_migration = self.probe.begin(
            "migration", now, track=f"daemon:{self.name}", cat="migration",
            engine=self.name, vm_bytes=self.domain.mem_bytes,
        )
        self._span_resume = self.probe.begin(
            "resume", now, track=f"daemon:{self.name}", cat="migration"
        )
        self.link.register_consumer(self)
        # Track destination writes so demand faults can be detected.
        self.domain.dirty_log.enable()
        # Freeze the source image: everything not yet fetched comes
        # from this snapshot.
        self._snapshot = self.domain.pages.snapshot()
        # Brief pause: ship vCPU + device state, then run at the
        # destination.  Writes from here on are *destination* writes.
        self.domain.pause(now)
        self.phase = MigrationPhase.RESUMING
        self._resume_timer = self.resume_delay_s

    @property
    def done(self) -> bool:
        return self.phase is MigrationPhase.DONE

    @property
    def aborted(self) -> bool:
        return self.phase is MigrationPhase.ABORTED

    @property
    def finished(self) -> bool:
        return self.done or self.aborted

    def notify_destination_failed(self, reason: str) -> None:
        """Destination died.  Post-copy can only survive this while the
        vCPU state is still in flight (RESUMING); once the VM runs at
        the destination the source image is stale and there is nothing
        to roll back to — the VM is lost, which is the recovery argument
        *for* pre-copy."""
        if self.phase in (MigrationPhase.IDLE, MigrationPhase.DONE):
            return
        self._dest_failed_reason = reason

    def load_fraction(self) -> float:
        """Guest slowdown: link contention plus demand-fault stalls."""
        if self.phase in (MigrationPhase.IDLE, MigrationPhase.DONE):
            return 0.0
        link_share = min(1.0, self._last_step_wire / max(self._step_capacity, 1e-9))
        return min(1.0, link_share + self._recent_stall)

    def load_plan(self, ticks: int) -> np.ndarray | None:
        """The guest's slowdown load over the next *ticks* ticks: known
        only while no migration is in flight (it is then zero after the
        current tick)."""
        if self.phase not in (MigrationPhase.IDLE, MigrationPhase.DONE, MigrationPhase.ABORTED):
            return None
        loads = np.zeros(ticks)
        if ticks:
            loads[0] = self.load_fraction()
        return loads

    def load_floor(self) -> float:
        """Leaps happen only while idle, when the load is nil."""
        return 0.0

    # -- actor -------------------------------------------------------------------

    def next_event(self, now: float) -> float | None:
        # Same contract as the pre-copy family: abstain while migrating.
        if self.phase in (MigrationPhase.IDLE, MigrationPhase.DONE, MigrationPhase.ABORTED):
            return math.inf
        return None

    def step_many(self, start_tick: int, ticks: int, dt: float) -> None:
        self._recent_stall = 0.0
        self._last_step_wire = 0.0

    def step(self, now: float, dt: float) -> None:
        self._recent_stall = 0.0
        if self.phase in (MigrationPhase.IDLE, MigrationPhase.DONE, MigrationPhase.ABORTED):
            self._last_step_wire = 0.0
            return
        if self._dest_failed_reason is not None:
            reason, self._dest_failed_reason = self._dest_failed_reason, None
            if self.phase is MigrationPhase.RESUMING:
                # vCPU state never activated remotely: resume at source.
                self.domain.dirty_log.disable()
                self.domain.unpause(now)
                self.link.release_consumer(self)
                self.report.aborted = True
                self.report.abort_reason = reason
                self.report.abort_phase = MigrationPhase.RESUMING.value
                self.report.source_intact = True
                self.report.finished_s = now
                self.phase = MigrationPhase.ABORTED
                self.probe.count("migration.aborts", engine=self.name)
                self.probe.end(self._span_migration, now, aborted=True,
                               abort_reason=reason)
                raise MigrationAbortedError(reason, self.report)
            raise MigrationError(
                f"post-copy cannot roll back after resume: {reason} "
                "(remaining pages are unreachable; the VM is lost)"
            )
        if self.phase is MigrationPhase.RESUMING:
            self._resume_timer -= dt
            if self._resume_timer <= 0.0:
                self.domain.unpause(now)
                self.report.downtime.last_iter_s = 0.0
                self.report.downtime.resume_s = self.resume_delay_s
                self.phase = MigrationPhase.ITERATING
                self.probe.end(self._span_resume, now)
                self._span_resume = None
            return
        # Refresh the link budget, then service demand faults first —
        # they preempt background pushes but still consume the wire.
        self._step_capacity = self.link.share_for(self, dt)
        self._budget = min(self._budget, float(self.link.page_wire_bytes)) + self._step_capacity
        wire_before = self.link.meter.wire_bytes
        self._service_demand_faults(dt)
        self._push_pages()
        self._last_step_wire = self.link.meter.wire_bytes - wire_before
        if self.fetched.count() == self.domain.n_pages:
            self._finish(now)

    # -- mechanics ------------------------------------------------------------------

    def _service_demand_faults(self, dt: float) -> None:
        dirty = self.domain.dirty_log.peek_and_clear()
        if dirty.size == 0:
            return
        faulted = dirty[~self.fetched.test_pfns(dirty)]
        if faulted.size == 0:
            return
        # Each fault pulls the page over the network before the write
        # can proceed; the page then holds destination content, so the
        # stale snapshot must never be installed over it.
        self.fetched.set_pfns(faulted)
        self.demand_faults += int(faulted.size)
        self.probe.count("postcopy.demand_faults", int(faulted.size))
        stall = float(faulted.size) * DEMAND_FAULT_STALL_S
        self.stall_seconds += stall
        self.probe.count("postcopy.stall_s", stall)
        self._recent_stall = min(1.0, stall / dt)
        wire = self.link.account_pages(int(faulted.size), category="demand_fetch")
        self._wire_total += wire
        self.report.account_wire(
            wire, self.link.last_retransmit_bytes, "demand_fetch"
        )
        # Faulted pages consume wire capacity ahead of background pushes.
        self._budget -= float(faulted.size) * self.link.page_wire_bytes
        self.report.cpu_seconds += faulted.size * PAGE_SIZE * CPU_S_PER_BYTE_SENT

    def _push_pages(self) -> None:
        wire = self.link.page_wire_bytes
        n_pages = self.domain.n_pages
        while self._budget >= wire and self._cursor < n_pages:
            take = min(int(self._budget // wire), 4096, n_pages - self._cursor)
            pfns = np.arange(self._cursor, self._cursor + take, dtype=np.int64)
            to_push = pfns[~self.fetched.test_pfns(pfns)]
            if to_push.size:
                self.fetched.set_pfns(to_push)
                self._budget -= to_push.size * wire
                sent = self.link.account_pages(
                    int(to_push.size), category="background_push"
                )
                self._wire_total += sent
                self.report.account_wire(
                    sent, self.link.last_retransmit_bytes, "background_push"
                )
                self.report.cpu_seconds += to_push.size * PAGE_SIZE * CPU_S_PER_BYTE_SENT
            self._cursor += take

    def _finish(self, now: float) -> None:
        self.report.finished_s = now
        self.report.stop_reason = "all pages fetched"
        # One synthetic record carrying this migration's own tracked
        # wire total (equal to the meter on a fresh, unshared link).
        self.report.iterations.append(
            IterationRecord(
                index=1,
                start_s=self._started,
                duration_s=now - self._started,
                pending_pages=self.domain.n_pages,
                pages_sent=self.domain.n_pages,
                wire_bytes=self._wire_total,
                pages_skipped_dirty=0,
                pages_skipped_bitmap=0,
                is_last=True,
            )
        )
        # Verification: by construction every page was fetched exactly
        # once before any destination overwrite could race it; the
        # running domain *is* the destination image.
        self.report.verified = True
        self.report.mismatched_pages = 0
        self.report.violating_pages = 0
        self.domain.dirty_log.disable()
        self.link.release_consumer(self)
        self.phase = MigrationPhase.DONE
        self.probe.count("migration.completed", engine=self.name)
        self.probe.end(self._span_migration, now, verified=True,
                       demand_faults=self.demand_faults)
