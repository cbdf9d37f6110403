"""Event-kernel speedup benchmark (PR 5 acceptance gate).

Runs the same three sweeps under ``REPRO_SIM_KERNEL=fixed`` and
``=event``:

- **fig05** — five of the nine Figure-5 heap profiles (no migration;
  the quiet-window case the event kernel exists for);
- **table2** — the three Table-2 warm-up observations;
- **migrate** — a small Section-5 migration matrix (warm-up and
  cool-down leap; the active migration phases pump per tick under
  both kernels).

Two things gate:

1. **speedup** — median fixed wall time over median event wall time
   across the migration-free sweeps (fig05 + table2) must be >= 3x;
2. **equivalence** — every *simulated* measure must be bit-identical
   between kernels: the full :class:`HeapProfile` rows, the Table-2
   :class:`SettingsRow` rows, and each migration's complete
   ``report.to_dict()`` (per-iteration records included).  Not within
   a tolerance — equal.

Every run row records its simulated measures, deterministic for the
fixed seed — ``make check-bench`` diffs them against the checked-in
``BENCH_PR5.json`` with ``repro compare``, so drift is a code change,
not machine noise.  Wall times are reported but never gated there.

Plain script on purpose (no pytest-benchmark dependency)::

    PYTHONPATH=src python benchmarks/bench_pr5_kernel.py OUT.json
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from pathlib import Path

from repro.core import MigrationExperiment
from repro.experiments.fig05 import profile_workload
from repro.experiments.table2 import observe
from repro.sim.engine import KERNEL_ENV_VAR
from repro.units import MiB

FIG05_WORKLOADS = ("derby", "compiler", "crypto", "scimark", "compress")
FIG05_DURATION_S = 240.0
TABLE2_WORKLOADS = ("derby", "crypto", "scimark")
MIGRATIONS = (
    ("derby", "xen"),
    ("derby", "javmm"),
    ("crypto", "javmm"),
    ("scimark", "javmm"),
)
#: sweep repetitions; the median wall time absorbs scheduler noise
ROUNDS = 3
SPEEDUP_GATE = 3.0


def _fig05_sweep(kernel: str) -> tuple[float, list[dict], dict]:
    """One Figure-5 sweep; returns (wall seconds, run rows, profiles)."""
    os.environ[KERNEL_ENV_VAR] = kernel
    rows, profiles, total = [], {}, 0.0
    for workload in FIG05_WORKLOADS:
        t0 = time.perf_counter()
        p = profile_workload(workload, duration_s=FIG05_DURATION_S)
        elapsed = time.perf_counter() - t0
        total += elapsed
        profiles[workload] = p
        rows.append(
            {
                "workload": workload,
                "engine": f"fig05-{kernel}",
                "wall_s": round(elapsed, 4),
                "minor_gcs": p.minor_gcs,
                "avg_young_mb": round(p.avg_young_mb, 6),
                "avg_old_mb": round(p.avg_old_mb, 6),
                "garbage_per_gc_mb": round(p.garbage_per_gc_mb, 6),
                "gc_duration_s": round(p.gc_duration_s, 6),
            }
        )
    return total, rows, profiles


def _table2_sweep(kernel: str) -> tuple[float, list[dict], list]:
    os.environ[KERNEL_ENV_VAR] = kernel
    rows, settings, total = [], [], 0.0
    for workload in TABLE2_WORKLOADS:
        t0 = time.perf_counter()
        s = observe(workload)
        elapsed = time.perf_counter() - t0
        total += elapsed
        settings.append(s)
        rows.append(
            {
                "workload": workload,
                "engine": f"table2-{kernel}",
                "wall_s": round(elapsed, 4),
                "observed_young_mb": round(s.observed_young_mb, 6),
                "observed_old_mb": round(s.observed_old_mb, 6),
            }
        )
    return total, rows, settings


def _migration_sweep(kernel: str) -> tuple[float, list[dict], dict]:
    rows, reports, total = [], {}, 0.0
    for workload, engine in MIGRATIONS:
        t0 = time.perf_counter()
        result = MigrationExperiment(
            workload=workload,
            engine=engine,
            mem_bytes=MiB(512),
            max_young_bytes=MiB(128),
            warmup_s=10.0,
            cooldown_s=5.0,
            kernel=kernel,
        ).run()
        elapsed = time.perf_counter() - t0
        total += elapsed
        report = result.report
        assert report.verified, (workload, engine, kernel)
        reports[(workload, engine)] = report.to_dict()
        rows.append(
            {
                "workload": workload,
                "engine": f"{engine}-{kernel}",
                "wall_s": round(elapsed, 4),
                "migration_total_s": round(report.completion_time_s, 6),
                "downtime_s": round(report.downtime.vm_downtime_s, 6),
                "wire_bytes": report.total_wire_bytes,
                "n_iterations": report.n_iterations,
            }
        )
    return total, rows, reports


def main(out_path: str) -> int:
    saved_env = os.environ.get(KERNEL_ENV_VAR)
    walls = {
        k: {"fig05": [], "table2": [], "migrate": []} for k in ("fixed", "event")
    }
    artifacts: dict[str, tuple] = {}
    details: list[dict] = []
    try:
        # One discarded warm-up pass: the first run otherwise pays
        # interpreter/numpy caching costs that skew the ratio.
        os.environ[KERNEL_ENV_VAR] = "fixed"
        profile_workload("derby", duration_s=20.0)
        for round_i in range(ROUNDS):
            for kernel in ("fixed", "event"):
                fig_w, fig_rows, profiles = _fig05_sweep(kernel)
                tab_w, tab_rows, settings = _table2_sweep(kernel)
                mig_w, mig_rows, reports = _migration_sweep(kernel)
                walls[kernel]["fig05"].append(fig_w)
                walls[kernel]["table2"].append(tab_w)
                walls[kernel]["migrate"].append(mig_w)
                details.extend(fig_rows + tab_rows + mig_rows)
                if round_i == 0:
                    artifacts[kernel] = (profiles, settings, reports)
    finally:
        if saved_env is None:
            os.environ.pop(KERNEL_ENV_VAR, None)
        else:
            os.environ[KERNEL_ENV_VAR] = saved_env

    fixed_profiles, fixed_settings, fixed_reports = artifacts["fixed"]
    event_profiles, event_settings, event_reports = artifacts["event"]
    identical = {
        "fig05": fixed_profiles == event_profiles,
        "table2": fixed_settings == event_settings,
        "migrate": fixed_reports == event_reports,
    }

    med = {
        k: {sweep: statistics.median(v) for sweep, v in sweeps.items()}
        for k, sweeps in walls.items()
    }
    quiet_fixed = med["fixed"]["fig05"] + med["fixed"]["table2"]
    quiet_event = med["event"]["fig05"] + med["event"]["table2"]
    speedup = quiet_fixed / quiet_event
    migrate_speedup = med["fixed"]["migrate"] / med["event"]["migrate"]

    payload = {
        "benchmark": "pr5-event-kernel",
        "sweep": {
            "fig05_workloads": FIG05_WORKLOADS,
            "fig05_duration_s": FIG05_DURATION_S,
            "table2_workloads": TABLE2_WORKLOADS,
            "migrations": [list(m) for m in MIGRATIONS],
            "rounds": ROUNDS,
        },
        "fixed_quiet_s": round(quiet_fixed, 4),
        "event_quiet_s": round(quiet_event, 4),
        "speedup": round(speedup, 3),
        "speedup_gate": SPEEDUP_GATE,
        "migrate_fixed_s": round(med["fixed"]["migrate"], 4),
        "migrate_event_s": round(med["event"]["migrate"], 4),
        "migrate_speedup": round(migrate_speedup, 3),
        "bit_identical": identical,
        "rounds_s": {
            kernel: {s: [round(x, 4) for x in v] for s, v in sweeps.items()}
            for kernel, sweeps in walls.items()
        },
        "runs": details,
    }
    out = Path(out_path)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"quiet sweeps: fixed {quiet_fixed:.2f}s, event {quiet_event:.2f}s "
        f"-> {speedup:.2f}x (gate >= {SPEEDUP_GATE:.1f}x); "
        f"migrations {migrate_speedup:.2f}x; "
        f"bit-identical: {identical} (wrote {out})"
    )
    return 0 if speedup >= SPEEDUP_GATE and all(identical.values()) else 1


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print("usage: bench_pr5_kernel.py OUT.json", file=sys.stderr)
        raise SystemExit(2)
    raise SystemExit(main(sys.argv[1]))
