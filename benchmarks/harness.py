"""Interleaved overhead harness for the observability stack.

Migrates each workload (derby, crypto, scimark) with ``xen`` and with
``javmm`` under :func:`supervised_migrate` in five cumulative
configurations:

- **plain** — telemetry off, no monitor (every probe is ``NULL_PROBE``);
- **telemetry** — the probe live (spans, metrics, series samples);
- **analysis** — plus the online ``ConvergenceMonitor`` and the rescue
  ladder (the supervisor's default);
- **attribution** — plus :func:`assert_conserved` on every attempt,
  :func:`audit_meter` on the link and a batch :func:`write_jsonl`
  export carrying the ledgers;
- **live** — attribution with a line-flushed :class:`JsonlSink` in
  place of the batch export: the stream is finalized, tailed with
  :func:`watch_file`, folded into a :class:`FleetBoard` (plus its
  Prometheus text) and checked against
  :meth:`LiveStatus.from_result`.

After one discarded warm-up sweep, every round runs all five configs
back to back for each workload/engine, in an order rotated every round
(so over five rounds each config takes each slot once).  Every
migration records ``time.process_time()`` and wall time.  Each gate is
the median across rounds of one paired per-round CPU ratio, which must
stay below 1.05 (each gate keeps the threshold of the baseline it
replaces):

- telemetry / plain (``BENCH_PR3.json``)
- analysis / telemetry (``BENCH_PR4.json``)
- attribution / analysis, and every ledger conserved (``BENCH_PR8.json``)
- live / attribution, and every tailed board equal to its post-mortem
  recomputation (``BENCH_PR9.json``)

Observability must not change what is simulated: within each
workload/engine the simulated measures must be identical across
plain/telemetry and across analysis/attribution/live (the monitor and
rescue ladder may change the trajectory, so the two settings differ).

Every migration must also land verified (``result.ok`` and
``report.verified``), or the harness stops with an assertion error.

Each row's flags key it the way the legacy baselines did under
``repro compare`` (``w/e/plain``, ``w/e/telemetry/plain``,
``w/e/analysis``, ``w/e/attribution`` and bare ``w/e`` for live), so
``make check-bench`` diffs the one output against ``BENCH_PR3.json``,
``BENCH_PR4.json``, ``BENCH_PR8.json`` and ``BENCH_PR9.json``.

Plain script; exits 1 when any gate fails::

    PYTHONPATH=src python benchmarks/harness.py OUT.json
"""

from __future__ import annotations

import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro.core.supervisor import supervised_migrate
from repro.net.link import Link
from repro.telemetry.attribution import AttributionAuditError, assert_conserved, audit_meter
from repro.telemetry.export import write_jsonl
from repro.telemetry.live import FleetBoard, JsonlSink, LiveStatus, watch_file
from repro.units import MiB

WORKLOADS = ("derby", "crypto", "scimark")
ENGINES = ("xen", "javmm")
CONFIGS = ("plain", "telemetry", "analysis", "attribution", "live")
ROUNDS = 5
VM_KWARGS = {"mem_bytes": MiB(512), "max_young_bytes": MiB(128)}

#: (config, baseline config, oracle that must also hold): each gate is
#: named by its config; the per-round CPU ratio is config/baseline
GATES = (
    ("telemetry", "plain", None),
    ("analysis", "telemetry", None),
    ("attribution", "analysis", "conservation_ok"),
    ("live", "attribution", "board_ok"),
)
THRESHOLD_PCT = 5.0

#: row flags that give each config its legacy ``repro compare`` key
KEY_FLAGS = {
    "plain": {"analysis": False},
    "telemetry": {"telemetry": True, "analysis": False},
    "analysis": {"analysis": True},
    "attribution": {"attribution": True},
    "live": {},
}
SIM_MEASURES = (
    "migration_total_s",
    "downtime_s",
    "wire_bytes",
    "retransmit_wire_bytes",
    "saved_bytes",
    "n_iterations",
)


def migrate_once(
    workload: str, engine: str, config: str, export_dir: Path, board: FleetBoard
) -> dict:
    """One supervised migration in *config*; returns its row."""
    level = CONFIGS.index(config)
    name = f"{workload}-{engine}"
    path = export_dir / f"{name}-{config}.jsonl"
    link = Link()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    sink = JsonlSink(path, flush="line") if config == "live" else None
    result, vm = supervised_migrate(
        workload=workload,
        engine_name=engine,
        link=link,
        vm_kwargs=VM_KWARGS,
        telemetry=level >= CONFIGS.index("telemetry"),
        analysis=level >= CONFIGS.index("analysis"),
        telemetry_sink=sink,
    )
    checks = {}
    if level >= CONFIGS.index("attribution"):
        reports = [rec.report for rec in result.attempts if rec.report is not None]
        try:
            ledgers = [assert_conserved(report).to_dict() for report in reports]
            conserved = not audit_meter(link.meter, reports)
        except AttributionAuditError:
            ledgers, conserved = [], False
        checks["conservation_ok"] = conserved
        if sink is not None:
            sink.finalize(probe=vm.probe, attributions=ledgers)
            status = watch_file(path, name=name)
            board.update(status)
            board.to_prom_text()
            post = LiveStatus.from_result(result, name=name)
            checks["board_ok"] = status.to_dict() == post.to_dict()
        else:
            write_jsonl(path, probe=vm.probe, attributions=ledgers)
    cpu_s, wall_s = time.process_time() - cpu0, time.perf_counter() - wall0
    report = result.report
    assert result.ok and report.verified, (workload, engine, config)
    return {
        "workload": workload,
        "engine": engine,
        "config": config,
        **KEY_FLAGS[config],
        "cpu_s": round(cpu_s, 4),
        "wall_s": round(wall_s, 4),
        "migration_total_s": round(report.completion_time_s, 4),
        "downtime_s": round(report.downtime.vm_downtime_s, 5),
        "wire_bytes": report.total_wire_bytes,
        "retransmit_wire_bytes": report.wire_by_category.get("loss_retx", 0),
        "saved_bytes": sum(report.saved_by_category.values()),
        "n_iterations": len(report.iterations),
        **checks,
    }


def sim_identical(rows: list[dict]) -> bool:
    """Simulated measures agree within each workload/engine and
    supervisor setting (monitor off: plain/telemetry; on: the rest)."""
    seen: dict[tuple, set] = {}
    for row in rows:
        setting = CONFIGS.index(row["config"]) >= CONFIGS.index("analysis")
        key = (row["workload"], row["engine"], setting)
        seen.setdefault(key, set()).add(tuple(row[m] for m in SIM_MEASURES))
    return all(len(values) == 1 for values in seen.values())


def gate(rows: list[dict], config: str, baseline: str) -> dict:
    """Median and IQR across rounds of the paired per-round CPU ratio."""
    cpu: dict[tuple[int, str], float] = {}
    for row in rows:
        key = (row["round"], row["config"])
        cpu[key] = cpu.get(key, 0.0) + row["cpu_s"]
    ratios = [cpu[(r, config)] / cpu[(r, baseline)] for r in range(ROUNDS)]
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return {
        "ratio": f"{config}/{baseline}",
        "cpu_ratios": [round(x, 4) for x in ratios],
        "median_pct": round(100.0 * (median - 1.0), 2),
        "iqr_pct": round(100.0 * (q3 - q1), 2),
        "threshold_pct": THRESHOLD_PCT,
        "ok": 100.0 * (median - 1.0) < THRESHOLD_PCT,
    }


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: harness.py OUT.json", file=sys.stderr)
        return 2
    rows: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="bench-harness-") as tmp:
        export_dir = Path(tmp)
        # Discarded warm-up: the first sweep otherwise pays import and
        # caching costs that read as (fake) overhead; live touches every
        # code path the other configs do.
        for workload in WORKLOADS:
            for engine in ENGINES:
                migrate_once(workload, engine, "live", export_dir, FleetBoard())
        for rnd in range(ROUNDS):
            order = CONFIGS[rnd % len(CONFIGS):] + CONFIGS[: rnd % len(CONFIGS)]
            board = FleetBoard()
            for workload in WORKLOADS:
                for engine in ENGINES:
                    for config in order:
                        row = migrate_once(workload, engine, config, export_dir, board)
                        rows.append({**row, "round": rnd})

    checks = {
        "conservation_ok": all(r.get("conservation_ok", True) for r in rows),
        "board_ok": all(r.get("board_ok", True) for r in rows),
        "sim_identical": sim_identical(rows),
    }
    gates = {}
    for config, baseline, oracle in GATES:
        g = gates[config] = gate(rows, config, baseline)
        g["ok"] = g["ok"] and checks.get(oracle, True)
    ok = all(g["ok"] for g in gates.values()) and checks["sim_identical"]
    payload = {
        "benchmark": "overhead-harness",
        "sweep": {
            "workloads": WORKLOADS,
            "engines": ENGINES,
            "configs": CONFIGS,
            "rounds": ROUNDS,
            "clock": "process_time",
        },
        "gates": gates,
        **checks,
        "ok": ok,
        "runs": rows,
    }
    out = Path(argv[0])
    out.write_text(json.dumps(payload, indent=2) + "\n")
    for g in gates.values():
        ratios = " ".join(f"{x:.3f}" for x in g["cpu_ratios"])
        print(
            f"{g['ratio']:<22s} median {g['median_pct']:+6.2f}% "
            f"IQR {g['iqr_pct']:5.2f} pts  [{ratios}]  "
            f"{'ok' if g['ok'] else 'FAIL'}"
        )
    verdicts = ", ".join(f"{k} {'ok' if v else 'FAIL'}" for k, v in checks.items())
    print(f"{verdicts} (wrote {out})")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
