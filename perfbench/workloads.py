"""The benchmark's three workloads.

Each workload function returns a :class:`Phase` of raw measurements;
``run.py`` turns phases into metrics.  Item seeds derive from the
benchmark seed through :func:`derive`, and every item runs with a
pinned simulation kernel, so a seed always gives the same inputs and
the same simulated outcomes.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from itertools import count

from checks import DigestBook, Ledger, digest, payload_problems, report_problems

HERE = os.path.dirname(os.path.abspath(__file__))

#: the nine SPECjvm2008 workloads, in the paper's order; the benchmark
#: owns its inputs, so this list does not follow the program's registry
SPEC = ("derby", "compiler", "xml", "sunflow", "serial", "crypto", "scimark",
        "mpeg", "compress")

#: simulated seconds each ``heap-profile`` item runs
PROFILE_S = 120.0

#: ``ops-fleet`` load: closed-loop submitters and open-loop verb rates
SUBMITTERS = 10
POLL_HZ = 5.0
WATCH_EVERY_S = 1.0
PAUSE_HOLD_S = 0.3
CTL_TIMEOUT_S = 10.0
#: sessions still in flight this long after --seconds fail the run
DRAIN_LIMIT_S = 90.0
#: a poll whose median lateness over the last quarter of the window
#: exceeds this means the daemon falls ever further behind
BACKLOG_LATE_S = 0.5


def derive(seed: int, *parts) -> int:
    """A 31-bit item seed from the benchmark seed and an item label."""
    label = ":".join(str(p) for p in (seed,) + parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(label).digest()[:4], "big") >> 1


@dataclass
class Phase:
    """Raw measurements of one workload phase."""

    item_walls: list[float] = field(default_factory=list)
    sim_s: float = 0.0
    cpu_s: float = 0.0
    wall_s: float = 0.0
    #: migration reports (dicts) for the simulated outcomes
    reports: list[dict] = field(default_factory=list)
    #: control-verb latency from due time, ms
    ctl_ms: list[float] = field(default_factory=list)
    #: open-loop lateness (send time minus due time), ms
    late_ms: list[float] = field(default_factory=list)
    backlog_growing: bool = False
    peak_rss_mib: float = 0.0
    #: per-layer extras measured outside the span store
    layer: dict = field(default_factory=dict)
    #: daemon span aggregates and the spans file (traced ``ops-fleet``)
    daemon_state: dict | None = None
    daemon_spans: str = ""


def self_rss_mib() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_imports(modules: str, repeats: int = 3) -> float:
    """Median wall seconds for a fresh interpreter to import *modules*."""
    code = f"import sys; sys.path.insert(0, 'src'); import {modules}"
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _passes(items, run_item, seconds: float, min_passes: int) -> Phase:
    """Whole passes over *items* until *seconds* have passed, and at
    least *min_passes*; ``run_item(item, phase)`` returns the simulated
    seconds it ran."""
    phase = Phase()
    passes = 0
    t0, c0 = time.perf_counter(), time.process_time()
    while passes < min_passes or time.perf_counter() - t0 < seconds:
        for item in items:
            t = time.perf_counter()
            phase.sim_s += run_item(item, phase)
            phase.item_walls.append(time.perf_counter() - t)
        passes += 1
    phase.wall_s = time.perf_counter() - t0
    phase.cpu_s = time.process_time() - c0
    phase.peak_rss_mib = self_rss_mib()
    return phase


# -- lan-paper ------------------------------------------------------------------------


def lan_items(seed: int) -> list[tuple[str, str, int]]:
    """Figure 10: every SPEC workload under both engines; the two
    engines of one workload share its seed, as in the paper's pairs."""
    return [(w, e, derive(seed, "lan-paper", w)) for w in SPEC for e in ("xen", "javmm")]


def lan_paper(seed: int, seconds: float, min_passes: int, ledger: Ledger,
              book: DigestBook) -> Phase:
    from repro.core import MigrationExperiment, migrate_full

    cooldown_s = MigrationExperiment.cooldown_s

    def run_item(item, phase):
        workload, engine, item_seed = item
        result = migrate_full(workload=workload, engine=engine, kernel="event",
                              seed=item_seed)
        report = result.report.to_dict()
        name = f"{workload}/{engine}"
        ledger.record(name, report_problems(report)
                      + book.problems(name, digest(report)))
        phase.reports.append(report)
        return report["finished_s"] + cooldown_s

    return _passes(lan_items(seed), run_item, seconds, min_passes)


# -- heap-profile ---------------------------------------------------------------------


def heap_items(seed: int) -> list[tuple[str, int]]:
    return [(w, derive(seed, "heap-profile", w)) for w in SPEC]


def heap_profile(seed: int, seconds: float, min_passes: int, ledger: Ledger,
                 book: DigestBook) -> Phase:
    from dataclasses import asdict

    from repro.experiments.fig05 import profile_workload

    def run_item(item, phase):
        workload, item_seed = item
        profile = profile_workload(workload, duration_s=PROFILE_S, seed=item_seed)
        problems = book.problems(workload, digest(asdict(profile)))
        if profile.minor_gcs <= 0:
            problems.append("no minor GC in the profile")
        ledger.record(workload, problems)
        return PROFILE_S

    return _passes(heap_items(seed), run_item, seconds, min_passes)


# -- ops-fleet ------------------------------------------------------------------------


def session_config(seed: int, k: int) -> dict:
    """The *k*-th session a run submits: engines alternate, workloads
    rotate in the paper's order, and two sessions in eight (one per
    engine) are supervised over a WAN profile.  Only the simulation
    seeds vary with *seed*, so every seed offers the same mix of work."""
    config = {
        "workload": SPEC[k % len(SPEC)],
        "engine": ("xen", "javmm")[k % 2],
        "mem_mb": 512,
        "kernel": "event",
        "seed": derive(seed, "ops-fleet", k),
        "name": f"b{k}",
    }
    if k % 8 in (3, 6):
        wans = ("metro", "continental")
        config["wan"] = wans[(k % 8 == 6) ^ ((k // 8) % 2)]
    return config


def _proc_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_hwm_mib(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class Daemon:
    """A ``repro serve`` child started through ``launcher.py``."""

    def __init__(self, workdir: str, tag: str, traced: bool) -> None:
        from repro.service.client import ServiceClient, ServiceUnavailable

        self.root = os.path.join(workdir, f"fleet-{tag}")
        shutil.rmtree(self.root, ignore_errors=True)
        os.makedirs(self.root)
        self.state_path = os.path.join(workdir, f"daemon-spans-{tag}.json")
        self.log = open(os.path.join(self.root, "daemon.log"), "wb")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "launcher.py"), self.root,
             os.path.join(self.root, "ctl.sock"), "1" if traced else "0",
             self.state_path],
            stdout=self.log, stderr=subprocess.STDOUT,
        )
        self.client = ServiceClient(self.root, timeout_s=CTL_TIMEOUT_S)
        #: (op, client round trip ms) for every answered request
        self.requests: list[tuple[str, float]] = []
        deadline = t0 + 60.0
        while True:
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.close()
                raise RuntimeError(f"daemon did not start; see {self.log.name}")
            try:
                self.request("ping")
                break
            except (ServiceUnavailable, OSError):
                time.sleep(0.005)
        self.ready_s = time.perf_counter() - t0

    def request(self, op: str, **fields) -> dict:
        t0 = time.perf_counter()
        response = self.client.request(op, **fields)
        self.requests.append((op, (time.perf_counter() - t0) * 1e3))
        return response

    def cpu_s(self) -> float:
        return _proc_cpu_s(self.proc.pid)

    def shutdown(self) -> dict | None:
        """Stop the daemon; return its span state when traced."""
        hwm = _proc_hwm_mib(self.proc.pid)
        self.request("shutdown")
        self.proc.wait(timeout=60)
        self.hwm_mib = hwm
        state = None
        if os.path.exists(self.state_path):
            with open(self.state_path, encoding="utf-8") as fh:
                state = json.load(fh)
            os.remove(self.state_path)
        self.close()
        return state

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)
        self.log.close()


def fleet_setup(workdir: str, repeats: int = 5) -> float:
    """Median seconds from daemon launch to its first ``ping`` answer."""
    times = []
    for i in range(repeats):
        daemon = Daemon(workdir, f"setup-{os.getpid()}-{i}", traced=False)
        times.append(daemon.ready_s)
        daemon.shutdown()
        shutil.rmtree(daemon.root, ignore_errors=True)
    return statistics.median(times)


def ops_fleet(seed: int, seconds: float, ledger: Ledger, workdir: str,
              traced: bool, tag: str) -> Phase:
    """Closed-loop sessions plus open-loop control verbs against one
    daemon.  A run submits ``SUBMITTERS + ceil(seconds)`` sessions and
    drains them: a fixed session list per ``--seconds``, so the end of
    the run (when concurrency falls) is the same work on every run."""
    from repro.service.client import RequestFailed, ServiceUnavailable
    from repro.service.session import TERMINAL_STATES

    daemon = Daemon(workdir, tag, traced)
    phase = Phase()
    layer = phase.layer
    for key in ("service.failed_sessions", "core.supervisor.attempts",
                "core.rescue.actions"):
        layer[key] = 0
    rng = random.Random(derive(seed, "ops-fleet", "schedule"))
    events: list = []
    seq = count()

    def push(due, kind, arg=None):
        heapq.heappush(events, (due, next(seq), kind, arg))

    t0 = time.perf_counter()
    deadline = t0 + seconds + DRAIN_LIMIT_S
    n_sessions = SUBMITTERS + math.ceil(seconds)
    submitted = count()
    inflight: dict[str, dict] = {}
    first_submit = last_terminal = None
    cpu_first = cpu_last = 0.0
    polls = count()
    watches = count(1)

    def next_poll():
        i = next(polls)
        push(t0 + (i + 0.5 * rng.random()) / POLL_HZ, "status")

    def next_watch():
        j = next(watches)
        push(t0 + j * WATCH_EVERY_S + 0.2 * rng.random(), "watch")

    k_next = min(SUBMITTERS, n_sessions)
    for _ in range(k_next):
        push(t0, "submit")
    next_poll()
    next_watch()
    try:
        while events:
            due, _, kind, arg = heapq.heappop(events)
            now = time.perf_counter()
            if now > deadline:
                ledger.record("drain", [f"{len(inflight)} sessions still in flight "
                                        f"after {deadline - t0:.0f} s"])
                break
            # Open-loop verbs keep coming while anything is in flight.
            busy = bool(inflight) or any(e[2] == "submit" for e in events)
            if kind == "status" and busy:
                next_poll()
            elif kind == "watch" and busy:
                next_watch()
            if due > now:
                time.sleep(due - now)
            sent = time.perf_counter()
            if kind in ("status", "watch", "resume"):
                phase.late_ms.append((sent - due) * 1e3)
            fields = {}
            if kind == "submit":
                k = next(submitted)
                config = session_config(seed, k)
                fields = {"config": config}
            elif kind in ("finalize", "pause", "resume"):
                fields = {"id": arg}
            try:
                response = daemon.request(kind, **fields)
            except (RequestFailed, ServiceUnavailable, OSError) as exc:
                ledger.record(kind, [f"{type(exc).__name__}: {exc}"])
                if kind == "finalize":
                    inflight.pop(arg, None)
                continue  # a failed submit retires its submitter
            end = time.perf_counter()
            ledger.record(kind, [])
            phase.ctl_ms.append((end - due) * 1e3)
            if kind == "submit":
                if first_submit is None:
                    first_submit, cpu_first = sent, daemon.cpu_s()
                inflight[response["id"]] = {
                    "config": config, "submitted": end,
                    "pause": k % 8 == 1, "terminal": None,
                }
            elif kind == "status":
                for st in response["sessions"]:
                    info = inflight.get(st["id"])
                    if info is None or info["terminal"] is not None:
                        continue
                    if st["state"] in TERMINAL_STATES:
                        info["terminal"] = end
                        info["state"] = st["state"]
                        info["sim_s"] = st.get("sim_now_s", 0.0)
                        last_terminal, cpu_last = end, daemon.cpu_s()
                        push(end, "finalize", st["id"])
                    elif (info["pause"] and st["state"] == "running"
                          and st.get("phase") == "warmup"
                          and st.get("sim_now_s", 99.0) < 3.0):
                        info["pause"] = False
                        push(end, "pause", st["id"])
            elif kind == "pause":
                push(end + PAUSE_HOLD_S, "resume", arg)
            elif kind == "finalize":
                info = inflight.pop(arg)
                result = response["result"]
                supervised = "wan" in info["config"]
                problems = payload_problems(result, supervised)
                if info["state"] != "done":
                    problems.insert(0, f"ended {info['state']}")
                    if info["state"] == "failed":
                        layer["service.failed_sessions"] += 1
                ledger.record(f"session {arg}", problems)
                if supervised:
                    layer["core.supervisor.attempts"] += result.get("n_attempts", 0)
                    layer["core.rescue.actions"] += len(result.get("rescues", []))
                    result = result.get("report") or {}
                phase.reports.append(result)
                phase.item_walls.append(info["terminal"] - info["submitted"])
                phase.sim_s += info["sim_s"]
                if k_next < n_sessions:
                    k_next += 1
                    push(end, "submit")
        phase.peak_rss_mib = self_rss_mib()
        if traced:
            phase.layer["telemetry.bytes"] = sum(
                os.path.getsize(os.path.join(dirpath, name))
                for dirpath, _, names in os.walk(daemon.root)
                for name in names if name == "telemetry.jsonl"
            )
        phase.daemon_state = daemon.shutdown()
        phase.daemon_spans = daemon.state_path + ".npz"
        phase.peak_rss_mib += daemon.hwm_mib
    finally:
        daemon.close()
    if first_submit is not None and last_terminal is not None:
        phase.wall_s = last_terminal - first_submit
        phase.cpu_s = cpu_last - cpu_first
    late = phase.late_ms
    quarter = late[-max(1, len(late) // 4):]
    phase.backlog_growing = bool(late) and statistics.median(quarter) > BACKLOG_LATE_S * 1e3
    if phase.daemon_state is not None:
        handled = phase.daemon_state["samples"].get("service.handle_seq", [])
        waits = [rtt - ms for (op, rtt), (hop, ms) in zip(daemon.requests, handled)
                 if op == hop]
        phase.layer["service.wait_p50_ms"] = statistics.median(waits) if waits else 0.0
    shutil.rmtree(daemon.root, ignore_errors=True)
    return phase
