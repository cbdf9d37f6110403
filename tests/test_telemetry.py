"""The unified telemetry layer: tracer, metrics, probe, exports."""

import gzip
import json
from pathlib import Path

import pytest

from repro.core import MigrationExperiment, supervised_migrate
from repro.core.builders import build_java_vm, make_migrator
from repro.faults import FaultPlan
from repro.migration.report import IterationRecord
from repro.net.link import Link
from repro.sim.engine import Engine
from repro.sim.eventlog import EventLog
from repro.telemetry import (
    NULL_PROBE,
    MetricsRegistry,
    Probe,
    Tracer,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.telemetry.probe import NULL_COUNTER
from repro.units import MiB

from tests.conftest import TINY

GOLDEN = Path(__file__).parent / "golden"


# -- metrics registry ---------------------------------------------------------------


def test_counter_gauge_histogram_basics():
    reg = MetricsRegistry()
    reg.counter("pages").inc(3)
    reg.counter("pages").inc(2)
    reg.gauge("rate").set(7.5)
    h = reg.histogram("lat")
    for v in (0.5, 1.5, 4.0):
        h.observe(v)
    snap = reg.snapshot()
    assert snap.value("pages") == 5.0
    assert snap.value("rate") == 7.5
    lat = snap.get("lat")
    assert lat.count == 3
    assert lat.value == pytest.approx(6.0)  # histogram value = total
    assert lat.min == 0.5 and lat.max == 4.0


def test_counter_rejects_negative_and_labels_separate_series():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        reg.counter("n").inc(-1)
    reg.counter("n", engine="xen").inc(1)
    reg.counter("n", engine="javmm").inc(2)
    snap = reg.snapshot()
    assert snap.value("n", engine="xen") == 1.0
    assert snap.value("n", engine="javmm") == 2.0
    # Label order never matters: one series per sorted label set.
    reg.counter("m", a="1", b="2").inc(1)
    reg.counter("m", b="2", a="1").inc(1)
    assert reg.snapshot().value("m", b="2", a="1") == 2.0


def test_snapshot_diff_arithmetic():
    reg = MetricsRegistry()
    reg.counter("c").inc(10)
    reg.gauge("g").set(1.0)
    reg.histogram("h").observe(2.0)
    before = reg.snapshot()
    reg.counter("c").inc(5)
    reg.gauge("g").set(9.0)
    reg.histogram("h").observe(4.0)
    after = reg.snapshot()
    delta = after.diff(before)
    assert delta.value("c") == 5.0  # counters subtract
    assert delta.value("g") == 9.0  # gauges keep the later reading
    h = delta.get("h")
    assert h.count == 1 and h.value == pytest.approx(4.0)


# -- tracer -------------------------------------------------------------------------


def test_span_nesting_parent_ids_and_ordering():
    tr = Tracer()
    mig = tr.begin("migration", 0.0, track="daemon")
    it1 = tr.begin("iteration", 0.0, track="daemon")
    tr.end(it1, 1.0)
    it2 = tr.begin("iteration", 1.0, track="daemon")
    tr.end(it2, 2.0)
    tr.end(mig, 2.5)
    assert it1.parent_id == mig.id and it2.parent_id == mig.id
    assert mig.parent_id is None
    assert [s.name for s in tr.children_of(mig)] == ["iteration", "iteration"]
    assert it1.end_s <= it2.start_s  # iterations do not overlap
    assert not tr.open_spans()


def test_ending_parent_closes_open_descendants():
    tr = Tracer()
    mig = tr.begin("migration", 0.0, track="d")
    it = tr.begin("iteration", 0.5, track="d")
    tr.end(mig, 2.0, aborted=True)  # abort path: iteration still open
    assert it.end_s == 2.0
    assert mig.args["aborted"] is True
    assert not tr.open_spans()


def test_finish_closes_everything_across_tracks():
    tr = Tracer()
    tr.begin("a", 0.0, track="t1")
    tr.begin("b", 1.0, track="t2")
    tr.finish(3.0)
    assert not tr.open_spans()
    assert all(s.end_s == 3.0 for s in tr.spans)


def test_chrome_trace_schema():
    tr = Tracer()
    mig = tr.begin("migration", 0.0, track="daemon", cat="migration")
    tr.instant("abort", 0.25, track="daemon", reason="test")
    tr.end(mig, 0.5)
    tr.begin("gc", 0.1, track="jvm")  # left open: clamped to horizon
    trace = tr.to_chrome_trace()
    events = trace["traceEvents"]
    assert isinstance(events, list)
    json.dumps(trace)  # must be JSON-serialisable as-is

    meta = [e for e in events if e["ph"] == "M"]
    assert {m["args"]["name"] for m in meta} == {"daemon", "jvm"}
    assert all(m["name"] == "thread_name" for m in meta)

    complete = {e["name"]: e for e in events if e["ph"] == "X"}
    assert complete["migration"]["ts"] == 0.0
    assert complete["migration"]["dur"] == pytest.approx(0.5e6)  # microseconds
    # The open gc span is clamped to the latest timestamp (0.5 s).
    assert complete["gc"]["dur"] == pytest.approx(0.4e6)

    (inst,) = [e for e in events if e["ph"] == "i"]
    assert inst["s"] == "t" and inst["ts"] == pytest.approx(0.25e6)

    tids = {m["args"]["name"]: m["tid"] for m in meta}
    assert complete["migration"]["tid"] == tids["daemon"]
    assert complete["gc"]["tid"] == tids["jvm"]


def test_phase_table_lists_each_track_span_pair():
    tr = Tracer()
    s = tr.begin("iteration", 0.0, track="daemon")
    tr.end(s, 2.0)
    table = tr.phase_table()
    assert "daemon" in table and "iteration" in table and "2.000" in table


# -- probe --------------------------------------------------------------------------


def test_null_probe_records_nothing():
    span = NULL_PROBE.begin("x", 0.0)
    assert span is None
    NULL_PROBE.end(span, 1.0)
    NULL_PROBE.count("c")
    NULL_PROBE.observe("h", 1.0)
    NULL_PROBE.instant("i", 0.0)
    assert NULL_PROBE.enabled is False
    assert NULL_PROBE.tracer is None and NULL_PROBE.metrics is None


def test_null_probe_counter_is_a_shared_no_op():
    handle = NULL_PROBE.counter("c", engine="xen")
    assert handle is NULL_COUNTER
    assert NULL_PROBE.counter("other") is handle
    handle.inc(5)


def test_bound_counter_creates_its_series_at_first_use():
    probe = Probe()
    late = probe.counter("late")
    probe.count("early", 1)
    assert probe.metrics.snapshot().get("late") is None
    late.inc(2)
    late.inc(3)
    probe.count("late", 1)
    snap = probe.metrics.snapshot()
    assert [sv.name for sv in snap.series.values()] == ["early", "late"]
    assert snap.value("late") == 6.0
    with pytest.raises(ValueError):
        late.inc(-1)


def test_probe_routes_to_tracer_and_metrics():
    probe = Probe()
    span = probe.begin("s", 0.0, track="t")
    probe.end(span, 1.0)
    probe.count("c", 2, engine="xen")
    assert probe.tracer.find("s", "t")[0].duration_s == 1.0
    assert probe.metrics.snapshot().value("c", engine="xen") == 2.0


# -- JSONL export -------------------------------------------------------------------


def test_wan_telemetry_export_matches_golden_bytes(tmp_path):
    """A supervised WAN run's metrics snapshot and JSONL export are
    byte-identical to the stored golden copies: series order, label
    sets and values cannot drift when call sites change how they reach
    their counters (e.g. bound handles instead of ``Probe.count``)."""
    from repro.net import wan_link

    result, vm = supervised_migrate(
        workload="derby", engine_name="xen", link=wan_link("metro"),
        kernel="event", telemetry=True,
        vm_kwargs={"mem_bytes": MiB(512), "max_young_bytes": MiB(128)},
    )
    assert result.ok
    snapshot = json.dumps(vm.probe.metrics.snapshot().to_dict(), indent=1) + "\n"
    assert snapshot == (GOLDEN / "wan_metro_metrics.json").read_text()
    path = tmp_path / "run.jsonl"
    write_jsonl(path, probe=vm.probe)
    with gzip.open(GOLDEN / "wan_metro_telemetry.jsonl.gz", "rb") as fh:
        assert path.read_bytes() == fh.read()



def test_jsonl_round_trip(tmp_path):
    probe = Probe(event_log=EventLog(capacity=2))
    span = probe.begin("migration", 0.0, track="d", cat="migration")
    probe.instant("abort", 0.5, track="d")
    probe.end(span, 1.0)
    probe.count("pages", 7, engine="xen")
    for t in (0.1, 0.2, 0.3):  # overflows capacity 2 -> 1 dropped
        probe.event_log.log(t, "test", f"event at {t}")
    path = tmp_path / "telemetry.jsonl"
    n = write_jsonl(path, probe=probe)
    assert n == 1 + 1 + 1 + 2 + 1 + 1  # meta, span, instant, events, dropped, metric

    dump = read_jsonl(path)
    assert dump.schema == "repro-telemetry/3"
    (span_rec,) = dump.spans
    assert span_rec["name"] == "migration" and span_rec["end_s"] == 1.0
    assert dump.instants[0]["name"] == "abort"
    assert [e["message"] for e in dump.events] == ["event at 0.2", "event at 0.3"]
    assert dump.dropped_events == 1
    assert dump.metric_value("pages") == 7.0
    # Every line is valid standalone JSON with a type tag.
    for line in path.read_text().splitlines():
        assert "type" in json.loads(line)


# -- event log ring buffer (satellite a) --------------------------------------------


def test_eventlog_ring_keeps_newest():
    log = EventLog(capacity=3)
    for i in range(10):
        log.log(float(i), "src", f"msg {i}")
    assert len(log) == 3
    assert log.dropped == 7
    assert [e.message for e in log.events()] == ["msg 7", "msg 8", "msg 9"]


# -- iteration record field (satellite b) -------------------------------------------


def test_dirtied_during_bytes_is_a_real_field_in_to_dict():
    rec = IterationRecord(
        index=1, start_s=0.0, duration_s=1.0, pending_pages=10,
        pages_sent=10, wire_bytes=1, pages_skipped_dirty=0,
        pages_skipped_bitmap=0,
    )
    assert rec.dirtied_during_bytes == 0
    rec.set_dirtied_during(3)
    assert rec.dirtied_during_bytes == 3 * 4096
    assert "dirtied_during_bytes" in IterationRecord.__dataclass_fields__


# -- integration: instrumented migrations -------------------------------------------


def _tiny_experiment(engine="javmm", **kwargs):
    return MigrationExperiment(
        workload=TINY, engine=engine, mem_bytes=MiB(512),
        max_young_bytes=MiB(64), warmup_s=2.0, cooldown_s=1.0,
        telemetry=True, **kwargs,
    )


def test_experiment_span_tree_covers_iterations_gc_and_stop_and_copy():
    result = _tiny_experiment().run()
    tracer = result.probe.tracer
    (mig,) = tracer.find("migration")
    iters = tracer.find("iteration")
    assert len(iters) >= len(result.report.iterations) - 1
    assert all(s.parent_id == mig.id for s in iters)
    (sc,) = tracer.find("stop-and-copy")
    assert sc.parent_id == mig.id
    enforced = [s for s in tracer.find("gc") if s.args.get("enforced")]
    assert len(enforced) == 1
    assert tracer.find("safepoint")
    assert not tracer.open_spans()
    # Metrics agree with the report.
    snap = result.probe.metrics.snapshot()
    assert snap.value("migration.pages_sent", engine="javmm") == (
        result.report.total_pages_sent
    )
    assert snap.value("migration.wire_bytes", engine="javmm") == (
        result.report.total_wire_bytes
    )
    assert snap.value("jvm.gc_count", kind="enforced") == 1.0


def test_telemetry_off_allocates_nothing():
    result = _tiny_experiment().run()  # sanity: telemetry path used above
    assert result.probe.enabled
    off = MigrationExperiment(
        workload=TINY, engine="xen", mem_bytes=MiB(512),
        max_young_bytes=MiB(64), warmup_s=1.0, cooldown_s=0.5,
    ).run()
    assert off.probe is NULL_PROBE


def test_aborted_migration_closes_span_tree():
    vm = build_java_vm(
        workload=TINY, mem_bytes=MiB(512), max_young_bytes=MiB(64),
        telemetry=True,
    )
    engine = Engine(0.005)
    for actor in vm.actors():
        engine.add(actor)
    link = Link()
    migrator = make_migrator("xen", vm, link)
    engine.add(migrator)
    engine.run_until(1.0)
    migrator.start(engine.now)
    engine.run_until(engine.now + 0.05)
    migrator.abort(engine.now, "test abort")
    assert migrator.aborted
    tracer = vm.probe.tracer
    track = f"daemon:{migrator.name}"
    (mig,) = tracer.find("migration")
    assert mig.args["aborted"] is True
    assert mig.args["abort_reason"] == "test abort"
    assert not [s for s in tracer.open_spans() if s.track == track]
    assert ("abort", track) in [(i.name, i.track) for i in tracer.instants]
    assert vm.probe.metrics.snapshot().value(
        "migration.aborts", engine=migrator.name
    ) == 1.0


def test_supervised_migration_attempt_spans_and_retry_counter():
    plan = FaultPlan().link_outage(at_s=0.05, duration_s=1.0)
    result, vm = supervised_migrate(
        workload=TINY, plan=plan, warmup_s=0.5, telemetry=True,
        vm_kwargs={"mem_bytes": MiB(512), "max_young_bytes": MiB(64)},
        stall_timeout_s=0.5, backoff_s=1.0,
    )
    assert result.ok and result.n_attempts >= 2
    tracer = vm.probe.tracer
    attempts = tracer.find("attempt", "supervisor")
    assert len(attempts) == result.n_attempts
    assert [s.args["attempt"] for s in attempts] == list(
        range(1, result.n_attempts + 1)
    )
    assert attempts[0].args["aborted"] is True
    assert attempts[-1].args["aborted"] is False
    assert tracer.find("backoff", "supervisor")
    assert not tracer.open_spans()
    snap = vm.probe.metrics.snapshot()
    assert snap.value("supervisor.retries", engine="javmm") == result.n_attempts - 1
    assert snap.value("faults.injected", kind="link-down") == 1.0
    # The windowed fault shows up as a span covering its whole window.
    (window,) = tracer.find("fault-window", "faults")
    assert window.duration_s == pytest.approx(1.0)


# -- CLI ----------------------------------------------------------------------------


def test_cli_trace_outputs(tmp_path, capsys):
    from repro.cli import main

    trace = tmp_path / "t.json"
    metrics = tmp_path / "m.json"
    jsonl = tmp_path / "u.jsonl"
    rc = main([
        "trace", "--workload", "derby", "--engine", "javmm",
        "--mem-mb", "512", "--young-mb", "128",
        "--trace-out", str(trace), "--metrics-out", str(metrics),
        "--telemetry-out", str(jsonl),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "iteration" in out and "stop-and-copy" in out  # phase table

    payload = json.loads(trace.read_text())
    names = {e["name"] for e in payload["traceEvents"]}
    assert {"migration", "iteration", "stop-and-copy", "gc"} <= names

    series = json.loads(metrics.read_text())["series"]
    assert any(s["name"] == "migration.pages_sent" for s in series)

    dump = read_jsonl(jsonl)
    assert dump.schema == "repro-telemetry/3"
    assert dump.spans and dump.metrics and dump.events


def test_cli_migrate_stays_telemetry_free_without_flags(tmp_path):
    from repro.cli import build_parser

    args = build_parser().parse_args(["migrate"])
    assert args.trace_out is None
    assert args.metrics_out is None
    assert args.telemetry_out is None


def test_chrome_trace_file_written_by_export_helper(tmp_path):
    tr = Tracer()
    s = tr.begin("migration", 0.0, track="d")
    tr.end(s, 1.0)
    path = tmp_path / "trace.json"
    n = write_chrome_trace(path, tr)
    payload = json.loads(path.read_text())
    assert n == len(payload["traceEvents"]) == 2  # metadata + span
