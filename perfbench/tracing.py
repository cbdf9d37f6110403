"""In-memory span tracing around the simulator's layer boundaries.

The benchmark measures end-to-end metrics with tracing off; a traced
run installs the wrappers below and reports per-layer numbers.  The
wrappers are installed on the *classes* (never on instances), so a
checkpoint pickle of an instrumented actor graph is byte-for-byte what
an uninstrumented one would write.

Every wrapped call becomes a span ``(id, name, start, end, parent)``
kept in typed arrays and written out at the end.  Self time is
accumulated online: a span's duration minus the time its child spans
cover, charged to the span's layer.  The layer self times add up to
the time spent inside top-level spans, so ``unattributed_s = wall -
sum(layer self times)`` is the time outside every span and closes the
ledger exactly.
"""

from __future__ import annotations

import statistics
from array import array
from collections import Counter, defaultdict
from time import perf_counter

#: layers whose self time is reported as ``<layer>.self_s``
LAYERS = (
    "sim",
    "jvm",
    "mem.walk",
    "mem.bitmap",
    "guest.kernel",
    "guest.lkm",
    "xen",
    "migration",
    "net",
    "net.wan",
    "core.rescue",
    "workloads.analyzer",
    "telemetry.emit",
    "telemetry.board",
    "checkpoint.write",
    "service",
)

#: control verbs whose daemon-side handle time is reported
VERBS = ("submit", "status", "watch", "pause", "resume", "finalize")

#: stored spans are capped; aggregates stay exact past the cap
SPAN_CAP = 1_000_000


class SpanStore:
    """Spans, per-layer self time, counters and duration samples."""

    def __init__(self, cap: int = SPAN_CAP) -> None:
        self.cap = cap
        self.names: list[str] = []
        self.ids = array("q")
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.dropped = 0
        self.next_id = 0
        #: open frames: [span id, child time, family]
        self.stack: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        #: set by an abstaining ``next_event`` during one engine advance
        self.abstained = False
        #: (class, attribute, original) for :func:`uninstall`
        self.wrapped: list[tuple] = []

    def name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def record(self, span_id, name_id, t0, t1, parent_id) -> None:
        if len(self.ids) >= self.cap:
            self.dropped += 1
            return
        self.ids.append(span_id)
        self.name_ids.append(name_id)
        self.starts.append(t0)
        self.ends.append(t1)
        self.parents.append(parent_id)

    def dump(self, path: str) -> None:
        """Write every stored span (and the name table) to *path*."""
        import numpy as np

        np.savez_compressed(
            path,
            id=np.frombuffer(self.ids, dtype=np.int64),
            name=np.frombuffer(self.name_ids, dtype=np.int32),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
            parent=np.frombuffer(self.parents, dtype=np.int64),
            names=np.array(self.names),
            dropped=np.array(self.dropped),
        )

    def state(self) -> dict:
        """The aggregates, JSON-safe (what a daemon hands back)."""
        return {
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "samples": {k: list(v) for k, v in self.samples.items()},
            "spans": len(self.ids),
            "dropped": self.dropped,
        }


def _wrap(store: SpanStore, cls, attr: str, layer: str, family: str,
          before=None, after=None) -> None:
    """Replace ``cls.attr`` by a span-recording wrapper.

    *before(args)* returns a token handed to *after(store, args, kwargs,
    result, token)*; *after* runs only on the outermost call of a
    *family* (an override calling ``super()`` is not counted twice).
    """
    orig = cls.__dict__[attr]
    name_id = store.name_id(f"{cls.__name__}.{attr}")
    self_s = store.self_s
    stack = store.stack

    def wrapper(*args, **kwargs):
        parent = stack[-1] if stack else None
        outer = parent is None or parent[2] != family
        token = before(args) if before is not None and outer else None
        frame = [store.next_id, 0.0, family]
        store.next_id += 1
        stack.append(frame)
        t0 = perf_counter()
        try:
            result = orig(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            dur = t1 - t0
            self_s[layer] += dur - frame[1]
            if parent is not None:
                parent[1] += dur
            store.record(frame[0], name_id, t0, t1,
                         -1 if parent is None else parent[0])
        if after is not None and outer:
            after(store, args, kwargs, result, token)
        return result

    wrapper.__wrapped__ = orig
    wrapper.__name__ = getattr(orig, "__name__", attr)
    wrapper.__qualname__ = getattr(orig, "__qualname__", attr)
    store.wrapped.append((cls, attr, orig))
    setattr(cls, attr, wrapper)


def _family(store: SpanStore, root, attrs, layer: str, hooks=None) -> None:
    """Wrap *attrs* on *root* and every loaded subclass defining them."""
    hooks = hooks or {}
    seen, todo = set(), [root]
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        todo.extend(cls.__subclasses__())
        for attr in attrs:
            if attr in cls.__dict__:
                before, after = hooks.get(attr, (None, None))
                _wrap(store, cls, attr, layer, f"{root.__name__}.{attr}",
                      before, after)


def _count(key, measure=None):
    """An *after* hook adding 1 (or ``measure(args, kwargs, result)``)."""
    def after(store, args, kwargs, result, token):
        store.counts[key] += 1 if measure is None else measure(args, kwargs, result)
    return after


def _sample(key):
    """An *after* hook keeping the call's own duration, in ms."""
    def before(args):
        return perf_counter()

    def after(store, args, kwargs, result, token):
        store.samples[key].append((perf_counter() - token) * 1e3)
    return before, after


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def install(store: SpanStore) -> None:
    """Instrument every layer boundary the benchmark reports on."""
    # Import every module whose subclasses must be wrapped first.
    import repro.core  # noqa: F401  (loads the migrator subclasses)
    import repro.migration  # noqa: F401
    from repro.checkpoint.runner import Checkpointer
    from repro.core.rescue import RescueController
    from repro.guest.kernel import GuestKernel
    from repro.guest.lkm import AssistLKM
    from repro.jvm.heap import GenerationalHeap
    from repro.jvm.hotspot import HotSpotJVM
    from repro.mem.bitmap import PageBitmap
    from repro.mem.page_table import PageTable
    from repro.migration.precopy import PrecopyMigrator
    from repro.net.link import Link
    from repro.net.wan import WanDriver
    from repro.service.manager import MigrationManager
    from repro.service.server import ServiceDaemon
    from repro.service.session import MigrationSession
    from repro.sim.engine import Engine
    from repro.telemetry.live import FleetBoard, StreamSink
    from repro.workloads.analyzer import Analyzer
    from repro.xen.dirty_log import DirtyLog
    from repro.xen.domain import Domain

    actor = ("step", "step_many", "next_event")

    # -- repro.sim: one engine advance (a tick or a leap) --------------------
    def advance_before(args):
        store.abstained = False
        return args[0].clock.ticks

    def advance_after(store, args, kwargs, ticks, token):
        c = store.counts
        c["sim.ticks"] += ticks
        if ticks > 1:
            c["sim.leaps"] += 1
            c["sim.leapt_ticks"] += ticks - 1
        elif store.abstained:
            c["sim.fallback_ticks"] += 1

    _family(store, Engine, ("_advance",), "sim",
            {"_advance": (advance_before, advance_after)})

    def next_event_after(key):
        def after(store, args, kwargs, result, token):
            if result is None:
                store.abstained = True
                store.counts[key] += 1
        return after

    def actor_hooks(prefix, abstain_key="sim.abstain.other"):
        return {
            "step": (None, _count(f"{prefix}.steps")),
            "step_many": (None, _count(f"{prefix}.batch_ticks",
                                       lambda a, k, r: a[2])),
            "next_event": (None, next_event_after(abstain_key)),
        }

    # -- actors ----------------------------------------------------------------
    _family(store, HotSpotJVM, actor, "jvm", actor_hooks("jvm"))
    _family(store, GuestKernel, actor, "guest.kernel", actor_hooks("guest.kernel"))
    _family(store, AssistLKM, actor, "guest.lkm", actor_hooks("guest.lkm"))
    _family(store, Analyzer, actor, "workloads.analyzer",
            actor_hooks("workloads.analyzer"))
    _family(store, WanDriver, actor, "net.wan", actor_hooks("net.wan"))
    _family(store, RescueController, actor, "core.rescue",
            actor_hooks("core.rescue"))

    def pump_before(args):
        m = args[0]
        return m._cursor, m._iter_sent

    def pump_after(store, args, kwargs, result, token):
        m = args[0]
        store.counts["migration.pages_examined"] += m._cursor - token[0]
        store.counts["migration.pages_sent"] += m._iter_sent - token[1]

    hooks = actor_hooks("migration", "sim.abstain.precopy")
    hooks["_pump"] = (pump_before, pump_after)
    hooks["_begin_iteration"] = (None, _count("migration.iterations"))
    _family(store, PrecopyMigrator, actor + ("_pump", "_begin_iteration"),
            "migration", hooks)

    # -- repro.jvm: collections ------------------------------------------------
    def gc_after(store, args, kwargs, result, token):
        store.counts["jvm.minor_gcs"] += 1
        enforced = kwargs.get("enforced", args[1] if len(args) > 1 else False)
        if enforced:
            store.counts["jvm.enforced_gcs"] += 1

    _family(store, GenerationalHeap, ("perform_minor_gc",), "jvm",
            {"perform_minor_gc": (None, gc_after)})

    # -- repro.mem / repro.xen / repro.net layer functions ---------------------
    def walk_after(store, args, kwargs, pfns, token):
        store.counts["mem.walk.calls"] += 1
        store.counts["mem.walk.pages"] += len(pfns)

    _family(store, PageTable, ("walk",), "mem.walk", {"walk": (None, walk_after)})
    _family(store, PageBitmap, ("test_pfns",), "mem.bitmap", {"test_pfns": (
        None, _count("mem.bitmap.pages_tested", lambda a, k, r: int(len(a[1]))))})
    _family(store, DirtyLog, ("peek_and_clear",), "xen",
            {"peek_and_clear": (None, _count("xen.dirty_peeks"))})
    touched = _count("xen.pages_touched", lambda a, k, r: int(len(a[1])))
    _family(store, Domain, ("touch_pfns", "touch_pfns_counted"), "xen",
            {"touch_pfns": (None, touched), "touch_pfns_counted": (None, touched)})

    def account_after(store, args, kwargs, wire, token):
        store.counts["net.wire_bytes"] += wire
        store.counts["net.retx_bytes"] += args[0].last_retransmit_bytes

    _family(store, Link, ("account_pages",), "net",
            {"account_pages": (None, account_after)})

    # -- repro.telemetry / repro.checkpoint ----------------------------------------
    _family(store, StreamSink, ("emit",), "telemetry.emit",
            {"emit": (None, _count("telemetry.records"))})
    _family(store, MigrationManager, ("board",), "telemetry.board")
    _family(store, FleetBoard, ("to_dict", "render", "to_prom_text"),
            "telemetry.board")

    def ckpt_after(store, args, kwargs, archive, token):
        store.counts["checkpoint.writes"] += 1
        store.counts["checkpoint.bytes"] += _dir_bytes(archive.path)

    _family(store, Checkpointer, ("write",), "checkpoint.write",
            {"write": (None, ckpt_after)})

    # -- repro.service -------------------------------------------------------------
    _family(store, MigrationSession, ("step_slice",), "service",
            {"step_slice": _sample("service.slice")})

    def admit_before(args):
        store.samples["service.queue_depth"].append(len(args[0].queued))

    _family(store, MigrationManager, ("_admit",), "service",
            {"_admit": (admit_before, None)})

    def handle_before(args):
        return perf_counter()

    def handle_after(store, args, kwargs, result, token):
        op = args[1].get("op")
        ms = (perf_counter() - token) * 1e3
        store.samples[f"service.handle.{op}"].append(ms)
        store.samples["service.handle_seq"].append([op, ms])

    _family(store, ServiceDaemon, ("handle",), "service",
            {"handle": (handle_before, handle_after)})


def uninstall(store: SpanStore) -> None:
    """Put back every original :func:`install` replaced."""
    while store.wrapped:
        cls, attr, orig = store.wrapped.pop()
        setattr(cls, attr, orig)


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n) at the highest percentile that still has
    at least ten samples beyond it; the maximum when n < 11."""
    n = len(values)
    if n == 0:
        return 0.0, 0.0, 0
    ordered = sorted(values)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def layer_metrics(state: dict, wall_s: float) -> dict:
    """Per-layer metrics from a :meth:`SpanStore.state` dict."""
    c = Counter(state["counts"])
    samples = state["samples"]
    out = {f"{layer}.self_s": state["self_s"].get(layer, 0.0) for layer in LAYERS}
    ticks = c["sim.ticks"]
    out.update({
        "sim.ticks": ticks,
        "sim.leaps": c["sim.leaps"],
        "sim.leap_coverage": c["sim.leapt_ticks"] / ticks if ticks else 0.0,
        "sim.fallback_ticks": c["sim.fallback_ticks"],
        "sim.abstain.precopy": c["sim.abstain.precopy"],
        "sim.abstain.other": c["sim.abstain.other"],
        "jvm.steps": c["jvm.steps"],
        "jvm.batch_ticks": c["jvm.batch_ticks"],
        "jvm.minor_gcs": c["jvm.minor_gcs"],
        "jvm.enforced_gcs": c["jvm.enforced_gcs"],
        "mem.walk.calls": c["mem.walk.calls"],
        "mem.walk.pages": c["mem.walk.pages"],
        "mem.bitmap.pages_tested": c["mem.bitmap.pages_tested"],
        "guest.lkm.steps": c["guest.lkm.steps"],
        "xen.pages_touched": c["xen.pages_touched"],
        "xen.dirty_peeks": c["xen.dirty_peeks"],
        "migration.pages_examined": c["migration.pages_examined"],
        "migration.pages_sent": c["migration.pages_sent"],
        "migration.pump_efficiency": (
            c["migration.pages_sent"] / c["migration.pages_examined"]
            if c["migration.pages_examined"] else 0.0
        ),
        "migration.iterations": c["migration.iterations"],
        "net.wire_bytes": c["net.wire_bytes"],
        "net.retx_bytes": c["net.retx_bytes"],
        "telemetry.records": c["telemetry.records"],
        "checkpoint.writes": c["checkpoint.writes"],
        "checkpoint.bytes": c["checkpoint.bytes"],
    })
    slices = samples.get("service.slice", [])
    depth = samples.get("service.queue_depth", [])
    out["service.slices"] = len(slices)
    out["service.slice_p50_ms"] = statistics.median(slices) if slices else 0.0
    out["service.slice_tail_ms"] = tail(slices)[0]
    for verb in VERBS:
        handled = samples.get(f"service.handle.{verb}", [])
        out[f"service.handle_ms.{verb}"] = (
            statistics.median(handled) if handled else 0.0
        )
    out["service.queue_depth_mean"] = statistics.fmean(depth) if depth else 0.0
    out["service.queue_depth_max"] = max(depth) if depth else 0
    out["unattributed_s"] = wall_s - sum(state["self_s"].values())
    return out
