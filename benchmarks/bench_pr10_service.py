"""Migration-manager multiplexing benchmark (PR 10 acceptance gate).

Three legs over one 64-session fleet (derby/crypto/scimark mix, every
eighth session supervised, distinct seeds):

- **sequential** — every config run standalone via
  :func:`repro.service.run_standalone`, one after another.  This is
  the baseline wall time *and* the bit-identity oracle.
- **multiplexed** — the same 64 configs submitted to one
  :class:`~repro.service.MigrationManager` with ``max_active=64`` and
  drained: all sessions genuinely in flight at once, round-robined in
  0.25 simulated-second slices.  Gated: per-migration wall overhead
  vs sequential must stay **< 10 %**, and every session's payload
  (report, page-version digest, attribution ledger) must equal its
  standalone twin bit for bit.
- **kill+resume** — a smaller root-backed fleet with cadence
  checkpoints is abandoned mid-flight (the in-process stand-in for a
  daemon SIGKILL; the real-subprocess variant lives in
  ``tests/test_service_chaos.py``), rebuilt over the same directory,
  recovered and drained.  Gated: still bit-identical to standalone.

Simulated measures cannot drift by construction — bit-identity is a
gate — so the ``runs[]`` rows ``make check-bench`` diffs against the
checked-in baseline double as a determinism tripwire.

Plain script on purpose (no pytest-benchmark dependency)::

    PYTHONPATH=src python benchmarks/bench_pr10_service.py OUT.json
"""

from __future__ import annotations

import gc
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro.service import MigrationConfig, MigrationManager, run_standalone

#: the gated fleet size ("at least 64 concurrent sessions")
FLEET = 64
#: wall-time repetitions; the median absorbs scheduler noise
ROUNDS = 3
#: the gated per-migration wall overhead, multiplexed vs sequential
OVERHEAD_GATE_PCT = 10.0

WORKLOADS = ("derby", "crypto", "scimark")


def fleet_configs(n: int = FLEET) -> list[MigrationConfig]:
    """*n* distinct small configs: workloads round-robined, every
    eighth session supervised, seeds all different."""
    return [
        MigrationConfig(
            workload=WORKLOADS[i % len(WORKLOADS)],
            mem_mb=512,
            young_mb=128,
            seed=1000 + i,
            supervise=(i % 8 == 7),
        )
        for i in range(n)
    ]


def _measures(config: MigrationConfig, payload: dict) -> dict:
    """The simulated measures of one finished session, flattened for
    the ``check-bench`` comparator (supervised payloads nest theirs)."""
    report = payload["report"] if config.supervise else payload
    return {
        "workload": config.workload,
        "engine": payload["engine"],
        "migration_total_s": round(report["completion_time_s"], 4),
        "downtime_s": round(report["downtime"]["vm_downtime_s"], 5),
        "wire_bytes": report["total_wire_bytes"],
        "n_iterations": len(report["iterations"]),
    }


def _sequential(configs: list[MigrationConfig]) -> tuple[float, list[dict]]:
    gc.collect()  # deterministic collector state at the leg boundary
    t0 = time.perf_counter()
    payloads = [run_standalone(config) for config in configs]
    return time.perf_counter() - t0, payloads


def _multiplexed(configs: list[MigrationConfig]) -> tuple[float, list[dict]]:
    """All *configs* live at once under one memoryless manager (the
    perf leg isolates multiplexing cost: no sinks, no checkpoints —
    those carry their own gated benches, PR 9 and PR 6)."""
    gc.collect()
    manager = MigrationManager(root_dir=None, max_active=len(configs))
    ids = [manager.submit(config) for config in configs]
    t0 = time.perf_counter()
    manager.drain()
    elapsed = time.perf_counter() - t0
    return elapsed, [manager.session(sid).result_payload for sid in ids]


def _kill_resume_leg(configs: list[MigrationConfig]) -> bool:
    """Root-backed fleet, abandoned mid-flight, recovered, drained:
    True iff every payload still matches its standalone run."""
    with tempfile.TemporaryDirectory(prefix="bench-pr10-") as tmp:
        manager = MigrationManager(
            root_dir=tmp, max_active=len(configs), slice_s=0.25,
            checkpoint_every_s=1.0, checkpoint_overhead=None,
        )
        ids = [manager.submit(config) for config in configs]
        # Step until at least one session is past warm-up with cadence
        # checkpoints on disk, so recovery exercises the restore path.
        while all(
            manager.session(sid).driver is None
            or manager.session(sid).driver.engine.now < 7.0
            for sid in ids
        ):
            manager.step_round()
        del manager  # the "crash": nothing in memory survives

        reborn = MigrationManager(
            root_dir=tmp, max_active=len(configs), slice_s=0.25,
            checkpoint_every_s=1.0, checkpoint_overhead=None,
        )
        reborn.recover()
        reborn.drain()
        return all(
            reborn.session(sid).result_payload == run_standalone(config)
            for sid, config in zip(ids, configs)
        )


def main(out_path: str) -> int:
    configs = fleet_configs()
    # One discarded full multiplexed round: having 64 VMs alive at
    # once grows the allocator's high-water mark, a one-time cost that
    # would otherwise read as (fake) multiplexing overhead.
    _multiplexed(configs)

    sequential_rounds: list[float] = []
    multiplexed_rounds: list[float] = []
    overheads: list[float] = []
    baseline: list[dict] = []
    bit_identical = True
    for rnd in range(ROUNDS):
        # Legs interleave within each round so machine drift (thermal,
        # collector phase) hits both sides of every paired ratio.
        seq_s, seq_payloads = _sequential(configs)
        mux_s, mux_payloads = _multiplexed(configs)
        sequential_rounds.append(seq_s)
        multiplexed_rounds.append(mux_s)
        overheads.append(100.0 * (mux_s - seq_s) / seq_s)
        if rnd == 0:
            baseline = seq_payloads
        # The correctness gate: every multiplexed payload equals its
        # standalone twin bit for bit, every round.
        bit_identical = bit_identical and mux_payloads == seq_payloads

    sequential_s = statistics.median(sequential_rounds)
    multiplexed_s = statistics.median(multiplexed_rounds)
    overhead_pct = statistics.median(overheads)

    resume_ok = _kill_resume_leg(
        [
            MigrationConfig(workload="derby", mem_mb=512, young_mb=128, seed=7),
            MigrationConfig(workload="scimark", mem_mb=512, young_mb=128, seed=11),
            MigrationConfig(
                workload="derby", mem_mb=512, young_mb=128, seed=13,
                supervise=True,
            ),
        ]
    )

    payload = {
        "benchmark": "pr10-service-multiplexing",
        "fleet": FLEET,
        "rounds": ROUNDS,
        "sequential_s": round(sequential_s, 4),
        "multiplexed_s": round(multiplexed_s, 4),
        "per_migration_overhead_pct": round(overhead_pct, 2),
        "round_overheads_pct": [round(x, 2) for x in overheads],
        "bit_identical": bit_identical,
        "resume_bit_identical": resume_ok,
        "sequential_rounds_s": [round(x, 4) for x in sequential_rounds],
        "multiplexed_rounds_s": [round(x, 4) for x in multiplexed_rounds],
        "runs": [
            _measures(config, p) for config, p in zip(configs, baseline)
        ],
    }
    out = Path(out_path)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"{FLEET} sessions: sequential {sequential_s:.2f}s, "
        f"multiplexed {multiplexed_s:.2f}s -> overhead "
        f"{overhead_pct:+.1f}% (gate <{OVERHEAD_GATE_PCT:.0f}%), payloads "
        f"{'IDENTICAL' if bit_identical else 'MISMATCHED'}, kill+resume "
        f"{'IDENTICAL' if resume_ok else 'MISMATCHED'} (wrote {out})"
    )
    ok = (
        overhead_pct < OVERHEAD_GATE_PCT and bit_identical and resume_ok
    )
    return 0 if ok else 1


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print("usage: bench_pr10_service.py OUT.json", file=sys.stderr)
        raise SystemExit(2)
    raise SystemExit(main(sys.argv[1]))
