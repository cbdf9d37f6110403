"""The probe handle threaded through every instrumented component.

Components never talk to the :class:`Tracer` or
:class:`MetricsRegistry` directly; they hold a probe and call its
methods.  The default is :data:`NULL_PROBE`, whose every method is a
bound no-op — instrumentation costs one attribute lookup and one empty
call when telemetry is off, so the hot paths (``_pump``, dirty-log
marks, netlink delivery) stay within the <5 % overhead budget the
benchmarks enforce.

The real :class:`Probe` owns (or is handed) a tracer, a metrics
registry, and optionally the guest's shared
:class:`~repro.sim.eventlog.EventLog`, giving one object that can feed
the unified JSONL export.
"""

from __future__ import annotations

from repro.telemetry.metrics import BoundCounter, MetricsRegistry
from repro.telemetry.timeseries import TimeseriesStore
from repro.telemetry.tracer import Span, Tracer


class Probe:
    """A live telemetry handle: spans + metrics + series + event log."""

    enabled = True
    #: optional streaming sink (see :mod:`repro.telemetry.live`): when
    #: set, instants and samples are mirrored onto the stream as they
    #: happen.  A class attribute so probes restored from pre-streaming
    #: checkpoints get ``None`` instead of an AttributeError.
    sink = None

    def __init__(
        self,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        event_log: object | None = None,
        timeseries: TimeseriesStore | None = None,
    ) -> None:
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.event_log = event_log
        self.timeseries = timeseries if timeseries is not None else TimeseriesStore()

    # -- metrics -------------------------------------------------------------------------

    def count(self, name: str, amount: float = 1.0, **labels) -> None:
        self.metrics.counter(name, **labels).inc(amount)

    def counter(self, name: str, **labels) -> BoundCounter:
        """A bound handle for a hot call site: ``handle.inc(n)`` equals
        ``count(name, n, **labels)`` without the per-call label lookup."""
        return BoundCounter(self.metrics, name, labels)

    def gauge(self, name: str, value: float, **labels) -> None:
        self.metrics.gauge(name, **labels).set(value)

    def observe(self, name: str, value: float, **labels) -> None:
        self.metrics.histogram(name, **labels).observe(value)

    # -- time series ---------------------------------------------------------------------

    def sample(self, name: str, now: float, value: float) -> None:
        """Append one ``(now, value)`` point to the named series."""
        self.timeseries.add(name, now, value)
        if self.sink is not None:
            self.sink.emit(
                {"type": "sample", "series": name,
                 "time_s": float(now), "value": float(value)}
            )

    # -- spans ---------------------------------------------------------------------------

    def begin(self, name: str, now: float, track: str = "main",
              cat: str = "", **args) -> Span | None:
        return self.tracer.begin(name, now, track=track, cat=cat, **args)

    def end(self, span: Span | None, now: float, **args) -> None:
        if span is not None:
            self.tracer.end(span, now, **args)

    def instant(self, name: str, now: float, track: str = "main", **args) -> None:
        self.tracer.instant(name, now, track=track, **args)
        if self.sink is not None:
            self.sink.emit(
                {"type": "instant", "name": name, "track": track,
                 "time_s": now, "args": dict(args)}
            )

    def finish(self, now: float) -> None:
        self.tracer.finish(now)


class NullProbe(Probe):
    """The disabled probe: every method is a no-op, nothing is stored."""

    enabled = False

    def __init__(self) -> None:  # no tracer/registry/store allocated
        self.tracer = None  # type: ignore[assignment]
        self.metrics = None  # type: ignore[assignment]
        self.event_log = None
        self.timeseries = None  # type: ignore[assignment]

    def __reduce__(self):
        # Checkpoint restore must hand back the shared singleton, not a
        # fresh copy per holder — components compare against NULL_PROBE.
        return (_restore_null_probe, ())

    def count(self, name: str, amount: float = 1.0, **labels) -> None:
        pass

    def counter(self, name: str, **labels) -> "NullCounter":
        return NULL_COUNTER

    def gauge(self, name: str, value: float, **labels) -> None:
        pass

    def observe(self, name: str, value: float, **labels) -> None:
        pass

    def sample(self, name: str, now: float, value: float) -> None:
        pass

    def begin(self, name: str, now: float, track: str = "main",
              cat: str = "", **args) -> None:
        return None

    def end(self, span: object, now: float, **args) -> None:
        pass

    def instant(self, name: str, now: float, track: str = "main", **args) -> None:
        pass

    def finish(self, now: float) -> None:
        pass


class NullCounter:
    """The disabled probe's counter handle: :meth:`inc` does nothing."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass


#: The shared disabled probe.  Stateless, so one instance serves everyone.
NULL_PROBE = NullProbe()

#: The handle every :meth:`NullProbe.counter` call returns.
NULL_COUNTER = NullCounter()


def _restore_null_probe() -> NullProbe:
    """Pickle target for :class:`NullProbe` (see its ``__reduce__``)."""
    return NULL_PROBE
