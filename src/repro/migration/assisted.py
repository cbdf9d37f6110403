"""Application-assisted migration daemon (Section 3).

Extends the pre-copy daemon with the framework protocol:

- on start it notifies the LKM (``MigrationBegin``), which performs the
  first transfer-bitmap update while the iterations already run;
- every page is checked against the transfer bitmap before being sent;
  a dirty page whose bit is cleared is skipped *without consuming its
  dirtiness* (the skip is re-injected into the dirty log), so a later
  bitmap change can never lose an update;
- when a stop rule fires, instead of pausing immediately the daemon
  sends ``EnterLastIter`` and keeps running (short, low-traffic)
  iterations while the applications prepare for suspension — the
  paper's Figure 8(b) "second last iteration";
- on ``SuspensionReady`` it pauses the VM, sends the remaining dirty
  pages whose transfer bits are set, and after activation notifies the
  LKM (``VMResumed``).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ProtocolError
from repro.guest import messages as msg
from repro.guest.lkm import AssistLKM
from repro.migration.precopy import PrecopyMigrator
from repro.migration.verify import verify_migration
from repro.net.link import Link
from repro.xen.domain import Domain
from repro.xen.event_channel import EventChannel


class AssistedMigrator(PrecopyMigrator):
    """Pre-copy migration guided by the LKM's transfer bitmap."""

    name = "assisted"
    #: checkpoint-protocol layout version; this subclass adds its own
    #: state fields, so it versions its snapshot independently
    snapshot_version = 3  # v3: precopy v6 race-leap bookkeeping

    def __init__(
        self,
        domain: Domain,
        link: Link,
        lkm: AssistLKM,
        channel: EventChannel | None = None,
        min_remaining_pages: int = 256,
        **kwargs,
    ) -> None:
        super().__init__(domain, link, min_remaining_pages=min_remaining_pages, **kwargs)
        self.lkm = lkm
        self.channel = channel or EventChannel()
        self.channel.bind_daemon(self._on_lkm_message)
        lkm.attach_event_channel(self.channel)
        self._suspension_ready = False

    # -- protocol ----------------------------------------------------------------------

    def _on_migration_started(self, now: float) -> None:
        self._suspension_ready = False
        self._signal_guest(now, msg.MigrationBegin())

    def _request_stop(self, now: float) -> bool:
        self._signal_guest(now, msg.EnterLastIter())
        return False  # keep iterating until the apps are ready

    def _apps_ready(self) -> bool:
        return self._suspension_ready

    def _signal_guest(self, now: float, message: object) -> None:
        self.probe.count("chan.signals", direction="to_guest")
        self.probe.instant(
            type(message).__name__, now, track=self._track
        )
        self.channel.send_to_guest(message)

    def _on_lkm_message(self, message: object) -> None:
        self.probe.count("chan.signals", direction="to_daemon")
        if isinstance(message, msg.SuspensionReady):
            self._suspension_ready = True
            self.report.downtime.final_update_s = message.final_update_seconds
        else:
            raise ProtocolError(f"daemon cannot handle LKM message {message!r}")

    def _on_resumed(self, now: float) -> None:
        # Capture mechanism overhead before VMResumed resets the LKM.
        self.report.lkm_overhead_bytes = self.lkm.overhead_bytes
        self._signal_guest(now, msg.VMResumed())

    def _on_aborted(self, now: float, reason: str) -> None:
        # Runs while log-dirty mode is still on: the LKM's rollback
        # re-marks every restored-bit page dirty, and those marks must
        # land in the live log (they are what makes a retried migration
        # resend pages the aborted attempt skipped).
        self.report.lkm_overhead_bytes = self.lkm.overhead_bytes
        self._suspension_ready = False
        self._signal_guest(now, msg.MigrationAborted(reason))

    # -- bitmap consultation --------------------------------------------------------------

    def _transfer_allowed(self, pfns: np.ndarray) -> np.ndarray | None:
        return self.lkm.transfer_mask(pfns)

    def _allow_epoch(self) -> int:
        return self.lkm.transfer_bitmap.clears

    def _reinject_skipped(self, pfns: np.ndarray) -> None:
        # A dirty page skipped because its transfer bit is cleared must
        # stay dirty: if its bit is set later (area shrink, final
        # update) it still has to be transferred.
        self.domain.dirty_log.remark(pfns)

    def _remaining_dirty_count(self) -> int:
        return self.domain.dirty_log.count(where=self.lkm.transfer_bitmap.raw())

    # -- verification ----------------------------------------------------------------------

    def _verify(self) -> None:
        assert self.dest_domain is not None
        result = verify_migration(
            self.domain, self.dest_domain, self.lkm.kernel, lkm=self.lkm
        )
        self.report.verified = result.ok
        self.report.mismatched_pages = result.mismatched_pages
        self.report.violating_pages = result.violating_pages
