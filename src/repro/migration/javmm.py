"""JAVMM: Java-aware VM migration (Section 4).

JAVMM *is* the assisted migrator with JVM participants: the TI agents
answer the framework protocol on the applications' behalf.  This class
adds the Java-specific downtime attribution the paper reports — the
time Java threads spend reaching the safepoint and the enforced minor
GC are part of the application's downtime even though the VM itself is
still running.
"""

from __future__ import annotations

from repro.guest import messages as msg
from repro.guest.lkm import AssistLKM
from repro.jvm.hotspot import HotSpotJVM
from repro.migration.assisted import AssistedMigrator
from repro.net.link import Link
from repro.xen.domain import Domain
from repro.xen.event_channel import EventChannel


class JavmmMigrator(AssistedMigrator):
    """Assisted migration of a Java VM, skipping Young-generation garbage."""

    name = "javmm"
    #: checkpoint-protocol layout version; this subclass adds its own
    #: state fields, so it versions its snapshot independently
    snapshot_version = 3  # v3: precopy v6 race-leap bookkeeping

    def __init__(
        self,
        domain: Domain,
        link: Link,
        lkm: AssistLKM,
        jvms: list[HotSpotJVM] | None = None,
        channel: EventChannel | None = None,
        **kwargs,
    ) -> None:
        super().__init__(domain, link, lkm, channel=channel, **kwargs)
        self.jvms = list(jvms or [])
        self._safepoint_base = 0.0
        self._gc_base = 0.0

    def _request_stop(self, now: float) -> bool:
        self._safepoint_base = sum(j.safepoint_wait_seconds for j in self.jvms)
        self._gc_base = sum(j.enforced_gc_seconds for j in self.jvms)
        return super()._request_stop(now)

    def _gc_pause_seconds(self) -> float | None:
        """Total guest GC pause time, feeding the per-iteration
        ``jvm.gc_pause_budget`` telemetry series."""
        if not self.jvms:
            return None
        return sum(j.gc_pause_seconds for j in self.jvms)

    def _on_lkm_message(self, message: object) -> None:
        if isinstance(message, msg.SuspensionReady) and self.jvms:
            self.report.downtime.safepoint_s = (
                sum(j.safepoint_wait_seconds for j in self.jvms) - self._safepoint_base
            )
            self.report.downtime.enforced_gc_s = (
                sum(j.enforced_gc_seconds for j in self.jvms) - self._gc_base
            )
        super()._on_lkm_message(message)
