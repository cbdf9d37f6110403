"""The adaptive rescue ladder's moving parts.

A migration that is not converging has three escalations available
before the supervisor gives up assistance levels, ordered by cost to
the guest:

1. **throttle** — staged auto-converge CPU capping
   (:class:`~repro.guest.throttle.GuestThrottle`): the guest runs
   slower, but keeps its engine and its wire format;
2. **compress** — rescue wire compression
   (:attr:`~repro.migration.precopy.PrecopyMigrator.wire_compression`):
   trade daemon CPU for bytes on a link that cannot carry raw pages;
3. **degrade** — the existing javmm → assisted → xen fallback chain,
   unchanged, for failures the first two cannot reshape.

:class:`RescueController` applies the first two *mid-flight*, reacting
to the online :class:`~repro.telemetry.analysis.ConvergenceMonitor`;
the supervisor applies the same ladder between attempts and owns step
3.  :class:`CircuitBreaker` sits across the whole ladder: a link whose
recent attempts all died in the same phase is dead, and re-attempting
across it only burns backoff time.
"""

from __future__ import annotations

import math

from repro.migration.precopy import PrecopyMigrator
from repro.sim.actor import Actor
from repro.telemetry.analysis.convergence import ConvergenceState
from repro.telemetry.probe import NULL_PROBE

#: Convergence states the ladder reacts to.
RESCUE_STATES = (ConvergenceState.STALLED, ConvergenceState.DIVERGING)


def supports_wire_compression(migrator: object) -> bool:
    """True when rescue compression is meaningful for this daemon.

    Engines with their own payload model (the compression baselines and
    hybrids) override the payload hooks; switching the base ratio on
    under them would burn CPU without changing the wire.
    """
    cls = type(migrator)
    return (
        getattr(migrator, "wire_compression", "absent") is None
        and cls._page_payload_bytes is PrecopyMigrator._page_payload_bytes
        and cls._payload_for is PrecopyMigrator._payload_for
    )


class RescueController(Actor):
    """Mid-flight rescue: throttle, then compress, while iterating.

    Stepped after the migration daemon (priority 15) so each tick's
    decision sees that tick's convergence verdict.  A decision fires
    only after *patience* consecutive STALLED/DIVERGING observations —
    one bad iteration on a bursty link is noise, a streak is a trend.
    Decisions are recorded on :attr:`decisions`; the supervisor flushes
    them into the write-ahead journal when it digests the attempt (the
    controller itself is part of the checkpointed actor graph, so a
    crash mid-attempt resumes with the ladder exactly as it stood).
    """

    priority = 15
    name = "rescue-controller"
    snapshot_version = 1

    def __init__(
        self,
        migrator,
        monitor,
        throttle=None,
        compression_ratio: float | None = None,
        patience: int = 2,
    ) -> None:
        self.migrator = migrator
        self.monitor = monitor
        self.throttle = throttle
        self.compression_ratio = compression_ratio
        self.patience = max(1, int(patience))
        #: rescue decisions taken this attempt, in order
        self.decisions: list[dict] = []
        self._seen = 0  # monitor observations already digested
        self._streak = 0  # consecutive STALLED/DIVERGING observations
        self.probe = NULL_PROBE

    # -- actor -------------------------------------------------------------------------

    def next_event(self, now: float) -> float | None:
        if self.migrator is None or self.migrator.finished or self.monitor is None:
            return math.inf
        if self.monitor.diagnosis.n_iterations > self._seen:
            return now + self.sim_dt if self.sim_dt else None
        # The monitor only learns at the daemon's iteration ends, which
        # are acting ticks (always ordinary steps); this controller
        # steps right after the daemon and digests them there.
        return math.inf

    def step_many(self, start_tick: int, ticks: int, dt: float) -> None:
        pass  # quiet ticks bring no new observation

    def step(self, now: float, dt: float) -> None:
        migrator = self.migrator
        if migrator is None or migrator.finished or self.monitor is None:
            return
        diagnosis = self.monitor.diagnosis
        if diagnosis.n_iterations <= self._seen:
            return  # no new observation this tick
        self._seen = diagnosis.n_iterations
        if diagnosis.state not in RESCUE_STATES:
            self._streak = 0
            return
        self._streak += 1
        if self._streak < self.patience:
            return
        self._streak = 0
        self._act(now, diagnosis)

    # -- the ladder --------------------------------------------------------------------

    def _act(self, now: float, diagnosis) -> None:
        if self.throttle is not None and not self.throttle.exhausted:
            factor = self.throttle.escalate()
            decision = {
                "action": "throttle",
                "at_s": now,
                "stage": self.throttle.stage,
                "factor": factor,
                "state": diagnosis.state.value,
            }
        elif self.compression_ratio is not None and supports_wire_compression(
            self.migrator
        ):
            self.migrator.wire_compression = self.compression_ratio
            decision = {
                "action": "compress",
                "at_s": now,
                "ratio": self.compression_ratio,
                "state": diagnosis.state.value,
            }
        else:
            return  # ladder spent mid-flight; the supervisor owns degrade
        self.decisions.append(decision)
        probe = self.probe
        if probe.enabled:
            probe.count("supervisor.rescues", action=decision["action"])
            probe.instant("rescue", now, track="supervisor", **decision)
            if decision["action"] == "throttle":
                probe.gauge("supervisor.throttle_factor", decision["factor"])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RescueController({len(self.decisions)} decisions)"


class CircuitBreaker:
    """Trips when consecutive aborts all die in the same phase.

    A transient outage kills one attempt in one phase; a dead link (or
    a systematically hostile one) kills *every* attempt the same way.
    After *trip_after* consecutive same-phase aborts the breaker opens
    and the supervisor stops burning attempts.  Any success, or an
    abort in a different phase, resets the streak.  ``trip_after=None``
    disables the breaker entirely.
    """

    def __init__(self, trip_after: int | None = None) -> None:
        if trip_after is not None and trip_after < 2:
            raise ValueError("breaker needs trip_after >= 2 (or None)")
        self.trip_after = trip_after
        self.tripped = False
        self._phase: str | None = None
        self._count = 0

    @property
    def streak(self) -> tuple[str | None, int]:
        return (self._phase, self._count)

    def record_abort(self, phase: str) -> bool:
        """Note an abort in *phase*; returns True if the breaker trips."""
        if self.trip_after is None:
            return False
        if phase == self._phase:
            self._count += 1
        else:
            self._phase = phase
            self._count = 1
        if self._count >= self.trip_after:
            self.tripped = True
        return self.tripped

    def record_success(self) -> None:
        """Close the breaker and clear the streak."""
        self._phase = None
        self._count = 0
        self.tripped = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "OPEN" if self.tripped else "closed"
        return f"CircuitBreaker({state}, {self._count}x {self._phase!r})"
