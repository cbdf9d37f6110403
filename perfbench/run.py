"""Benchmark of the JAVMM reproduction: simulator speed, migration cost
and control-plane latency.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload lan-paper --seed 1 --seconds 12 --trace 0

Workloads (see ``workloads.json`` beside this file for the records):

- ``lan-paper``: ``repro.core.migrate_full`` over the nine SPECjvm2008
  workloads x {xen, javmm} with the paper's defaults, event kernel;
- ``heap-profile``: ``repro.experiments.fig05.profile_workload`` over the
  nine workloads, fixed kernel, no migration;
- ``ops-fleet``: a ``repro serve`` daemon driven through ``ServiceClient``
  by ten closed-loop submitters plus open-loop status/watch/pause/resume.

A run is whole passes over the workload's items for at least
``--seconds`` (``lan-paper``: at least two); every item's output digest
must repeat across the passes of a run.  ``ops-fleet`` submits ten
sessions plus one per second of ``--seconds`` and drains them.  Every
metric is printed by name with its unit and whether it is host time
(what the simulator costs) or simulated (what the modelled Xen/JVM
would take).  The simulated
outputs are the model's results; this benchmark does not validate them
against hardware or the paper.

The last line of standard output is one JSON object.  With ``--trace 0``
it carries the gated end-to-end metrics; with ``--trace 1`` the run is
done twice, untraced then with span wrappers installed on each layer's
classes, and it carries the per-layer metrics.  Exit codes: 0 success,
1 a correctness failure, 2 usage or missing sources, 3 an unsteady run
(the ``ops-fleet`` poll backlog kept growing).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

from tracing import LAYERS, VERBS, SpanStore, install, layer_metrics, tail, uninstall

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = ".perfbench_work"

WORKLOADS = ("lan-paper", "heap-profile", "ops-fleet")

#: the workloads BENCHMARK.json gates.  heap-profile runs and is checked
#: like the others, but its host timings swung by up to a quarter between
#: runs of one seed on a shared 2-core VM, wider than any bound allows.
GATED_WORKLOADS = ("lan-paper", "ops-fleet")

#: the simulation kernel each workload pins (``REPRO_SIM_KERNEL`` is
#: overwritten, never inherited)
KERNELS = {"lan-paper": "event", "heap-profile": "fixed", "ops-fleet": "event"}

#: what a fresh interpreter imports before the first timed item
IMPORTS = {"lan-paper": "repro.core", "heap-profile": "repro.experiments.fig05"}

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

#: every end-to-end metric: name -> (unit, better, kind)
END_TO_END = {
    "setup_s": ("s", "lower", "host"),
    "sim_rate": ("sim-s/cpu-s", "higher", "host"),
    "items_per_min": ("1/min", "higher", "host"),
    "item_wall_p50_s": ("s", "lower", "host"),
    "item_wall_tail_s": ("s", "lower", "host"),
    "ctl_p50_ms": ("ms", "lower", "host"),
    "ctl_tail_ms": ("ms", "lower", "host"),
    "sim_mig_s": ("s", "lower", "simulated"),
    "sim_downtime_s": ("s", "lower", "simulated"),
    "wire_gib": ("GiB", "lower", "simulated"),
    "peak_rss_mib": ("MiB", "lower", "host"),
    "error_rate": ("fraction", "lower", "-"),
}

#: the end-to-end metrics every workload reports and BENCHMARK.json
#: gates (the others apply to some workloads only, or are always 0 on
#: a correct program, and are printed but not gated)
GATED = ("setup_s", "sim_rate", "items_per_min", "item_wall_p50_s",
         "item_wall_tail_s", "peak_rss_mib")


def _per_layer() -> dict:
    """Every per-layer metric of a traced run: name -> (unit, better)."""
    units = {f"{layer}.self_s": ("s", "lower") for layer in LAYERS}
    for name in ("sim.ticks", "jvm.steps", "jvm.batch_ticks", "mem.walk.calls",
                 "mem.walk.pages", "mem.bitmap.pages_tested", "guest.lkm.steps",
                 "xen.pages_touched", "xen.dirty_peeks", "migration.pages_examined",
                 "migration.iterations", "sim.fallback_ticks", "sim.abstain.precopy",
                 "sim.abstain.other", "jvm.minor_gcs", "jvm.enforced_gcs",
                 "core.supervisor.attempts", "core.rescue.actions",
                 "telemetry.records", "checkpoint.writes", "service.slices",
                 "service.failed_sessions", "service.queue_depth_max"):
        units[name] = ("count", "lower")
    units.update({
        "sim.leaps": ("count", "higher"),
        "sim.leap_coverage": ("fraction", "higher"),
        "migration.pages_sent": ("count", "lower"),
        "migration.pump_efficiency": ("fraction", "higher"),
        "net.wire_bytes": ("B", "lower"),
        "net.retx_bytes": ("B", "lower"),
        "telemetry.bytes": ("B", "lower"),
        "checkpoint.bytes": ("B", "lower"),
        "service.slice_p50_ms": ("ms", "lower"),
        "service.slice_tail_ms": ("ms", "lower"),
        "service.wait_p50_ms": ("ms", "lower"),
        "service.queue_depth_mean": ("count", "lower"),
        "loadgen.late_p50_ms": ("ms", "lower"),
        "loadgen.late_max_ms": ("ms", "lower"),
        "unattributed_s": ("s", "lower"),
        "trace_overhead": ("fraction", "lower"),
    })
    for verb in VERBS:
        units[f"service.handle_ms.{verb}"] = ("ms", "lower")
    return units


PER_LAYER = _per_layer()


def end_to_end(phase, setup_s: float, ledger) -> tuple[dict, dict]:
    """End-to-end metric values and notes (tail percentile, n)."""
    walls = phase.item_walls or [0.0]  # no item completed: the run failed
    wall_tail, wall_pct, wall_n = tail(walls)
    values = {
        "setup_s": setup_s,
        "sim_rate": phase.sim_s / phase.cpu_s if phase.cpu_s else 0.0,
        "items_per_min": 60.0 * len(phase.item_walls) / phase.wall_s if phase.wall_s else 0.0,
        "item_wall_p50_s": statistics.median(walls),
        "item_wall_tail_s": wall_tail,
        "peak_rss_mib": phase.peak_rss_mib,
        "error_rate": ledger.error_rate,
    }
    notes = {"item_wall_tail_s": f"p{wall_pct:.1f} of n={wall_n}",
             "item_wall_p50_s": f"n={wall_n}"}
    if phase.ctl_ms:
        ctl_tail, ctl_pct, ctl_n = tail(phase.ctl_ms)
        values["ctl_p50_ms"] = statistics.median(phase.ctl_ms)
        values["ctl_tail_ms"] = ctl_tail
        notes["ctl_tail_ms"] = f"p{ctl_pct:.1f} of n={ctl_n}"
        notes["ctl_p50_ms"] = f"n={ctl_n}"
    reports = phase.reports
    if reports:
        values["sim_mig_s"] = statistics.fmean(r["completion_time_s"] for r in reports)
        values["sim_downtime_s"] = statistics.fmean(
            r["downtime"]["app_downtime_s"] for r in reports)
        values["wire_gib"] = statistics.fmean(
            r["total_wire_bytes"] for r in reports) / 2**30
        notes["sim_mig_s"] = f"n={len(reports)} migrations"
    return values, notes


def per_layer(state: dict, wall_s: float, phase, base_rate: float) -> dict:
    values = {name: 0 for name in PER_LAYER}
    values.update(layer_metrics(state, wall_s))
    values.update(phase.layer)
    if phase.late_ms:
        values["loadgen.late_p50_ms"] = statistics.median(phase.late_ms)
        values["loadgen.late_max_ms"] = max(phase.late_ms)
    values["trace_overhead"] = 1.0 - (phase.sim_s / phase.cpu_s) / base_rate
    return values


def _print_table(title: str, rows: list[tuple]) -> None:
    print(title)
    for name, value, unit, kind, note in rows:
        print(f"  {name:32s} {value:>16.6g} {unit:12s} {kind:10s} {note}")


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads as wl
    from checks import DigestBook, Ledger

    ledger, book = Ledger(), DigestBook()
    os.makedirs(WORKDIR, exist_ok=True)
    spans_path = os.path.join(WORKDIR, f"spans-{workload}-{seed}.npz")
    if workload == "ops-fleet":
        setup_s = wl.fleet_setup(WORKDIR)

        def phase_fn(traced):
            tag = f"{seed}-{os.getpid()}-{int(traced)}"
            return wl.ops_fleet(seed, seconds, ledger, WORKDIR, traced, tag)
    else:
        __import__(IMPORTS[workload])  # compile once, so setup times imports only
        setup_s = wl.time_imports(IMPORTS[workload])
        fn = wl.lan_paper if workload == "lan-paper" else wl.heap_profile
        # An untraced lan-paper run makes two passes, so every run
        # compares each migration's report digest across passes; a
        # traced run gets its second pass from the traced phase.
        min_passes = 2 if workload == "lan-paper" and not trace else 1

        def phase_fn(traced):
            return fn(seed, seconds, min_passes, ledger, book)

    phase = phase_fn(False)
    if phase.backlog_growing:
        print(f"perfbench: unsteady run: the poll backlog kept growing "
              f"(late p50 over the last quarter > {wl.BACKLOG_LATE_S} s); "
              "lower the poll rate", file=sys.stderr)
        return 3
    values, notes = end_to_end(phase, setup_s, ledger)
    rows = [(name, values[name], unit, kind, notes.get(name, ""))
            for name, (unit, _, kind) in END_TO_END.items() if name in values]
    _print_table(f"{workload} seed={seed}: end-to-end", rows)
    metrics = {name: {"value": values[name], "unit": END_TO_END[name][0]}
               for name in GATED}

    if trace:
        if workload == "ops-fleet":
            traced = phase_fn(True)
            state = traced.daemon_state
            wall_s = state["wall_s"]
            os.replace(traced.daemon_spans, spans_path)
        else:
            store = SpanStore()
            install(store)
            try:
                t0 = time.perf_counter()
                traced = phase_fn(True)
                wall_s = time.perf_counter() - t0
            finally:
                uninstall(store)
            state = store.state()
            store.dump(spans_path)
        layer = per_layer(state, wall_s, traced, values["sim_rate"])
        ledger.record("trace ledger", [] if layer["unattributed_s"] >= 0 else [
            "layer self times exceed the traced wall time"])
        _print_table(
            f"{workload} seed={seed}: per layer (traced wall {wall_s:.3f} s, "
            f"{state['spans']} spans kept in {spans_path}, "
            f"{state['dropped']} past the cap)",
            [(name, layer[name], unit, "host" if unit in ("s", "ms") else "-", "")
             for name, (unit, _) in PER_LAYER.items()],
        )
        metrics = {name: {"value": layer[name], "unit": PER_LAYER[name][0]}
                   for name in PER_LAYER}

    for error in ledger.errors:
        print(f"FAILED {error}")
    correct = ledger.failed == 0
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {ROOT}/src; run it from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["REPRO_SIM_KERNEL"] = KERNELS[args.workload]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
