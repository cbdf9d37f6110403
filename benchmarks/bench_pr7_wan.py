"""WAN survival benchmark (PR 7 acceptance gate).

Drags every workload across four hostile WAN profiles under a repeated
outage plan (eight 2.5 s blackouts — each one outlives the LAN-tuned
2 s stall watchdog) and migrates each cell twice:

- **baseline** — the fixed LAN policy (``rescue=False``,
  ``scale_timeouts=False``): the stall watchdog fires inside every
  outage, the attempt budget drains, the migration aborts;
- **ladder** — RTT/goodput-rescaled watchdogs plus the adaptive rescue
  ladder (auto-converge throttle -> rescue wire compression -> engine
  degrade).

Gates:

1. **hostility** — the fixed policy must abort at least one cell on
   every profile (else the scenario is not stressing anything);
2. **survival** — the ladder must complete 100 % of the cells the
   fixed policy aborted;
3. **kernel bit-identity** — a subset cell re-run under the event
   kernel must match the fixed-kernel run measure for measure;
4. **resume equivalence** — one cell crashed mid-rescue at a fixed
   tick and resumed from its durable checkpoint must reproduce the
   uncrashed outcome bit-identically;
5. **doctor attribution** — a telemetry export of a rescued cell must
   lead with the ``throttle-rescue`` finding (the doctor names the
   applied rescue first).

Throttle overhead (deepest auto-converge floor, peak guest slowdown)
and added downtime versus a quiet-LAN reference run are recorded per
profile, not gated.  Every ladder row records its simulated measures,
deterministic for the fixed seed — ``make check-bench`` diffs them
against the checked-in ``BENCH_PR7.json`` with ``repro compare``.
Plain script on purpose::

    PYTHONPATH=src python benchmarks/bench_pr7_wan.py OUT.json
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro.checkpoint import CheckpointConfig, SimulatedCrash, resume
from repro.core import supervised_migrate
from repro.faults import FaultPlan
from repro.net import wan_link
from repro.sim import KERNEL_ENV_VAR
from repro.telemetry import write_jsonl
from repro.telemetry.analysis import Doctor
from repro.units import MiB
from repro.workloads.spec import REGISTRY

PROFILES = ("metro", "continental", "intercontinental", "satellite")
WORKLOADS = tuple(sorted(REGISTRY))
SEED = 20150421
DT = 0.01  # half the default tick rate: same physics, half the wall time
MEM_MB, YOUNG_MB = 384, 96
#: eight 2.5 s outages, 8 s apart — each outlives the 2 s stall watchdog
OUTAGE = dict(at_s=1.0, down_s=2.5, count=8, spacing_s=8.0)
MAX_ATTEMPTS = 4
#: subset cell for the kernel-identity, crash+resume and doctor legs
PROBE_CELL = ("intercontinental", "derby")
CRASH_AT_TICK = 2000  # sim t = 20 s at DT: mid-transfer, post-rescue


def _vm_kwargs() -> dict:
    return {"mem_bytes": MiB(MEM_MB), "max_young_bytes": MiB(YOUNG_MB)}


def _plan() -> FaultPlan:
    return FaultPlan().link_flap(**OUTAGE)


def _migrate(workload: str, profile: str, ladder: bool, **extra):
    kwargs = dict(
        workload=workload,
        link=wan_link(profile, seed=SEED),
        plan=_plan(),
        vm_kwargs=_vm_kwargs(),
        seed=SEED,
        dt=DT,
        max_attempts=MAX_ATTEMPTS,
    )
    if not ladder:
        kwargs.update(rescue=False, scale_timeouts=False)
    kwargs.update(extra)
    return supervised_migrate(**kwargs)


def _lan_reference(workload: str):
    """Quiet-LAN supervised run: the downtime yardstick for a cell."""
    return supervised_migrate(
        workload=workload, vm_kwargs=_vm_kwargs(), seed=SEED, dt=DT
    )


def _measures(result) -> dict:
    report = result.report
    return {
        "ok": result.ok,
        "n_attempts": result.n_attempts,
        "rescues": result.rescues,
        "breaker_tripped": result.breaker_tripped,
        "report": report.to_dict() if report else None,
    }


def _row(workload: str, profile: str, wall: float, result) -> dict:
    report = result.report
    return {
        "workload": workload,
        "engine": f"{profile}-ladder",
        "wall_s": round(wall, 4),
        "migration_total_s": round(report.completion_time_s, 6),
        "downtime_s": round(report.downtime.vm_downtime_s, 6),
        "wire_bytes": report.total_wire_bytes,
        "n_iterations": report.n_iterations,
    }


def main(out_path: str) -> int:
    # The sweep's measures are part of the checked-in baseline: pin the
    # kernel rather than inherit whatever REPRO_SIM_KERNEL says.
    saved_kernel = os.environ.get(KERNEL_ENV_VAR)
    os.environ[KERNEL_ENV_VAR] = "fixed"
    try:
        return _main(out_path)
    finally:
        if saved_kernel is None:
            os.environ.pop(KERNEL_ENV_VAR, None)
        else:
            os.environ[KERNEL_ENV_VAR] = saved_kernel


def _main(out_path: str) -> int:
    lan_downtime: dict[str, float] = {}
    for workload in WORKLOADS:
        ref, _ = _lan_reference(workload)
        assert ref.ok, f"quiet-LAN reference for {workload} must complete"
        lan_downtime[workload] = ref.report.downtime.vm_downtime_s

    rows: list[dict] = []
    cells: list[dict] = []
    ladder_measures: dict[tuple, dict] = {}
    for profile in PROFILES:
        for workload in WORKLOADS:
            base, _ = _migrate(workload, profile, ladder=False)
            t0 = time.perf_counter()
            ladder, _ = _migrate(workload, profile, ladder=True)
            wall = time.perf_counter() - t0
            ladder_measures[(profile, workload)] = _measures(ladder)
            floors = [
                d["factor"] for d in ladder.rescues if d["action"] == "throttle"
            ]
            cell = {
                "profile": profile,
                "workload": workload,
                "baseline_ok": base.ok,
                "baseline_attempts": base.n_attempts,
                "ladder_ok": ladder.ok,
                "ladder_attempts": ladder.n_attempts,
                "rescues": len(ladder.rescues),
                "throttle_floor": min(floors, default=1.0),
                "downtime_s": (
                    ladder.report.downtime.vm_downtime_s if ladder.report
                    else float("nan")
                ),
                "added_downtime_s": (
                    ladder.report.downtime.vm_downtime_s - lan_downtime[workload]
                    if ladder.report else float("nan")
                ),
            }
            cells.append(cell)
            if ladder.report is not None:
                rows.append(_row(workload, profile, wall, ladder))

    aborted = [c for c in cells if not c["baseline_ok"]]
    rescued = [c for c in aborted if c["ladder_ok"]]
    aborts_per_profile = {
        p: sum(1 for c in aborted if c["profile"] == p) for p in PROFILES
    }
    hostility_ok = all(n > 0 for n in aborts_per_profile.values())
    survival_ok = len(rescued) == len(aborted) and aborted

    profile_summary = {}
    for p in PROFILES:
        mine = [c for c in cells if c["profile"] == p]
        done = [c for c in mine if c["ladder_ok"]]
        floors = [c["throttle_floor"] for c in done]
        profile_summary[p] = {
            "baseline_aborts": aborts_per_profile[p],
            "ladder_completions": len(done),
            "deepest_throttle": min(floors, default=1.0),
            "peak_guest_slowdown_pct": round(
                100.0 * (1.0 - min(floors, default=1.0)), 1
            ),
            "median_added_downtime_s": round(
                statistics.median(c["added_downtime_s"] for c in done), 6
            ) if done else None,
        }

    # -- gate 3: fixed vs event kernel bit-identity on the probe cell --------------
    probe_profile, probe_workload = PROBE_CELL
    os.environ[KERNEL_ENV_VAR] = "event"
    try:
        event_run, _ = _migrate(probe_workload, probe_profile, ladder=True)
    finally:
        os.environ[KERNEL_ENV_VAR] = "fixed"
    kernels_identical = (
        _measures(event_run) == ladder_measures[PROBE_CELL]
    )

    # -- gate 4: crash mid-rescue, resume, compare to the uncrashed twin -----------
    with tempfile.TemporaryDirectory() as d:
        cfg = CheckpointConfig(
            directory=d, every_s=5.0, max_overhead=None,
            crash_at_tick=CRASH_AT_TICK,
        )
        try:
            _migrate(probe_workload, probe_profile, ladder=True, checkpoint=cfg)
            raise AssertionError("chaos crash did not fire")
        except SimulatedCrash:
            pass
        t0 = time.perf_counter()
        resumed = resume(d)
        restore_ms = (time.perf_counter() - t0) * 1e3
        outcome = resumed.controller.run(
            resumed.checkpointer(every_s=5.0, max_overhead=None)
        )
    resume_identical = _measures(outcome) == ladder_measures[PROBE_CELL]

    # -- gate 5: the doctor names the applied rescue in its top finding ------------
    result, vm = _migrate(probe_workload, probe_profile, ladder=True,
                          telemetry=True)
    with tempfile.TemporaryDirectory() as d:
        export = Path(d) / "wan.jsonl"
        write_jsonl(export, probe=vm.probe)
        findings = Doctor().diagnose_file(export).findings
    doctor_top_rule = findings[0].rule if findings else None
    doctor_ok = result.rescues and doctor_top_rule == "throttle-rescue"

    payload = {
        "benchmark": "pr7-wan",
        "sweep": {
            "profiles": list(PROFILES),
            "workloads": list(WORKLOADS),
            "outage": OUTAGE,
            "dt": DT,
            "seed": SEED,
            "vm_mib": [MEM_MB, YOUNG_MB],
            "max_attempts": MAX_ATTEMPTS,
            "probe_cell": list(PROBE_CELL),
            "crash_at_tick": CRASH_AT_TICK,
        },
        "baseline_aborted_cells": len(aborted),
        "ladder_rescued_cells": len(rescued),
        "survival_pct": round(100.0 * len(rescued) / len(aborted), 1)
        if aborted else 0.0,
        "profiles": profile_summary,
        "restore_latency_ms": round(restore_ms, 3),
        "doctor_top_rule": doctor_top_rule,
        "bit_identical": {
            "event_kernel": kernels_identical,
            "resumed": resume_identical,
        },
        "gates": {
            "hostility": hostility_ok,
            "survival": bool(survival_ok),
            "kernel_bit_identity": kernels_identical,
            "resume_equivalence": resume_identical,
            "doctor_attribution": bool(doctor_ok),
        },
        "cells": cells,
        "runs": rows,
    }
    out = Path(out_path)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    ok = all(payload["gates"].values())
    print(
        f"WAN survival: {len(rescued)}/{len(aborted)} baseline-aborted cells "
        f"rescued by the ladder across {len(PROFILES)} profiles x "
        f"{len(WORKLOADS)} workloads; "
        f"kernels identical={kernels_identical} resumed={resume_identical} "
        f"doctor top rule={doctor_top_rule!r}; "
        f"gates {'PASS' if ok else 'FAIL'} (wrote {out})"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print("usage: bench_pr7_wan.py OUT.json", file=sys.stderr)
        raise SystemExit(2)
    raise SystemExit(main(sys.argv[1]))
