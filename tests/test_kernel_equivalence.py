"""The event kernel: wake-queue semantics and fixed-vs-event equivalence.

The event kernel's contract is *bit-identical simulated measures*: a
leap covers only quiet ticks, and every acting tick runs as an ordinary
priority-ordered step.  These tests drive the same scenarios under both
kernels and require exact equality — no tolerances — across heap state,
page versions, throughput samples, iteration records and final reports.
"""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np
import pytest

from repro.core import MigrationExperiment
from repro.core.builders import build_java_vm
from repro.core.supervisor import supervised_migrate
from repro.errors import ConfigurationError, MigrationAbortedError, SimulationError
from repro.faults import FaultPlan
from repro.jvm.hotspot import JvmPhase
from repro.migration.assisted import AssistedMigrator
from repro.migration.javmm import JavmmMigrator
from repro.migration.precopy import MigrationPhase, PrecopyMigrator
from repro.net.link import Link
from repro.sim import Actor, Engine, KERNEL_ENV_VAR, make_engine, resolve_kernel
from repro.telemetry.attribution import assert_conserved
from repro.units import MiB
from repro.workloads.spec import WorkloadSpec
from tests.conftest import build_tiny_vm


def _ledgers(result) -> list[dict]:
    """Audited attribution ledgers of every attempt (conservation must
    hold in both kernels, and the ledgers must match bit-exactly)."""
    out = []
    for rec in result.attempts:
        if rec.report is not None:
            out.append(assert_conserved(rec.report).to_dict())
    return out


class Recorder(Actor):
    def __init__(self, priority: int = 0) -> None:
        self.priority = priority
        self.calls: list[float] = []

    def step(self, now: float, dt: float) -> None:
        self.calls.append(now)


class Sleeper(Recorder):
    """Declares an unbounded horizon; its default step_many replays steps."""

    def next_event(self, now: float) -> float:
        return math.inf


class Metronome(Recorder):
    """Acts every *period* seconds, quiet in between."""

    def __init__(self, period: float) -> None:
        super().__init__()
        self.period = period
        self._next = period

    def next_event(self, now: float) -> float:
        return self._next

    def step_many(self, start_tick: int, ticks: int, dt: float) -> None:
        return  # quiet ticks do nothing

    def step(self, now: float, dt: float) -> None:
        if now + 1e-9 >= self._next:
            self.calls.append(now)
            self._next += self.period


# -- Engine.step roster snapshot (the live-mutation fix) ----------------------------------


class SelfRemover(Actor):
    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self.stepped = 0

    def step(self, now: float, dt: float) -> None:
        self.stepped += 1
        self.engine.remove(self)


class Spawner(Actor):
    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self.child: Recorder | None = None

    def step(self, now: float, dt: float) -> None:
        if self.child is None:
            self.child = Recorder()
            self.engine.add(self.child)


def test_step_uses_a_roster_snapshot_on_mid_step_removal():
    """An actor removing itself must not make the engine skip the next
    actor in the list (the live-iteration bug)."""
    engine = Engine(dt=0.01)
    remover = SelfRemover(engine)
    after = Recorder()
    engine.add(remover)
    engine.add(after)
    engine.step()
    assert remover.stepped == 1
    assert len(after.calls) == 1  # not skipped
    engine.step()
    assert remover.stepped == 1  # gone for good
    assert len(after.calls) == 2


def test_step_uses_a_roster_snapshot_on_mid_step_add():
    """An actor added mid-step joins from the *next* step."""
    engine = Engine(dt=0.01)
    engine.add(Spawner(engine))
    engine.step()
    child = engine.actors()[-1]
    assert isinstance(child, Recorder)
    assert child.calls == []
    engine.step()
    assert len(child.calls) == 1


# -- wake-queue ---------------------------------------------------------------------------


def test_call_at_fires_once_at_first_tick_at_or_after_deadline():
    engine = Engine(dt=0.01)
    fired: list[float] = []
    engine.call_at(0.055, fired.append)
    engine.run_until(0.2)
    assert fired == [pytest.approx(0.06)]


def test_call_at_rejects_past_instants():
    engine = Engine(dt=0.01)
    engine.run_until(0.5)
    with pytest.raises(SimulationError):
        engine.call_at(0.1, lambda now: None)


def test_call_at_fires_in_both_kernels_at_the_same_instant():
    def run(kernel: str) -> list[float]:
        engine = Engine(dt=0.01, kernel=kernel)
        engine.add(Sleeper())
        fired: list[float] = []
        engine.call_at(0.25, fired.append)
        engine.run_until(1.0)
        return fired

    assert run("fixed") == run("event")


def test_wake_bounds_a_leap_to_the_requested_instant():
    engine = Engine(dt=0.01, kernel="event")
    sleeper = Metronome(period=100.0)  # quiet for the whole run
    engine.add(sleeper)
    engine.wake(sleeper, 0.5)
    engine.run_until(0.5)
    # The leap may not cross the wake: a step lands exactly there.
    assert engine.now == pytest.approx(0.5)
    assert engine.leaps >= 1


# -- leaping ------------------------------------------------------------------------------


def test_event_kernel_leaps_and_default_step_many_replays_exactly():
    """A horizon-declaring actor with the default micro-loop gets the
    exact same (now, dt) step calls as under the fixed kernel."""
    fixed = Engine(dt=0.01, kernel="fixed")
    event = Engine(dt=0.01, kernel="event")
    a, b = Sleeper(), Sleeper()
    fixed.add(a)
    event.add(b)
    fixed.run_until(2.0)
    event.run_until(2.0)
    assert event.leaps >= 1
    assert a.calls == b.calls  # bit-identical instants


def test_metronome_acts_at_identical_instants_under_both_kernels():
    fixed = Engine(dt=0.01, kernel="fixed")
    event = Engine(dt=0.01, kernel="event")
    m1, m2 = Metronome(0.25), Metronome(0.25)
    fixed.add(m1)
    event.add(m2)
    fixed.run_until(3.0)
    event.run_until(3.0)
    assert event.leaps >= 1
    assert m1.calls == m2.calls


def test_one_abstaining_actor_forces_per_tick_stepping():
    engine = Engine(dt=0.01, kernel="event")
    sleeper, poller = Sleeper(), Recorder()
    engine.add(sleeper)
    engine.add(poller)  # default next_event: None (abstain)
    engine.run_until(1.0)
    assert engine.leaps == 0
    assert len(poller.calls) == 100


def test_leaps_never_overshoot_run_until_target():
    engine = Engine(dt=0.01, kernel="event")
    engine.add(Sleeper())
    engine.run_until(0.105)
    assert engine.now == pytest.approx(0.11)
    assert engine.now < 0.105 + 2 * engine.dt


# -- make_engine / kernel resolution ------------------------------------------------------


def test_resolve_kernel_arg_env_default(monkeypatch):
    monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
    assert resolve_kernel() == "fixed"
    monkeypatch.setenv(KERNEL_ENV_VAR, "event")
    assert resolve_kernel() == "event"
    assert resolve_kernel("fixed") == "fixed"  # explicit arg wins
    monkeypatch.setenv(KERNEL_ENV_VAR, "warp")
    with pytest.raises(ConfigurationError):
        resolve_kernel()


def test_make_engine_honours_env(monkeypatch):
    monkeypatch.setenv(KERNEL_ENV_VAR, "event")
    assert make_engine().kernel == "event"
    assert make_engine(kernel="fixed").kernel == "fixed"
    monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
    assert make_engine().kernel == "fixed"


def test_engine_rejects_unknown_kernel():
    with pytest.raises(ConfigurationError):
        Engine(0.005, kernel="warp")


# -- guest-stack equivalence --------------------------------------------------------------


def _run_guest(kernel: str, workload: str, seed: int, until_s: float = 30.0):
    engine = make_engine(0.005, kernel=kernel)
    vm = build_java_vm(
        workload=workload,
        mem_bytes=MiB(512),
        max_young_bytes=MiB(128),
        seed=seed,
        seed_old=False,
    )
    vm.register(engine)
    engine.run_until(until_s)
    return engine, vm


@pytest.mark.parametrize("workload", ["derby", "scimark"])
@pytest.mark.parametrize("seed", [1, 20150421])
def test_pure_workload_state_is_bit_identical(workload, seed):
    e_fixed, vm_fixed = _run_guest("fixed", workload, seed)
    e_event, vm_event = _run_guest("event", workload, seed)
    assert e_event.leaps > 0  # the event kernel actually leapt
    assert vm_fixed.jvm.ops_completed == vm_event.jvm.ops_completed
    assert vm_fixed.heap.eden_used == vm_event.heap.eden_used
    assert vm_fixed.heap.old_used == vm_event.heap.old_used
    assert vm_fixed.heap.young_committed == vm_event.heap.young_committed
    assert (
        vm_fixed.heap.counters.allocated_bytes
        == vm_event.heap.counters.allocated_bytes
    )
    assert len(vm_fixed.heap.counters.minor_log) == len(
        vm_event.heap.counters.minor_log
    )
    all_pfns = np.arange(vm_fixed.domain.n_pages, dtype=np.int64)
    assert np.array_equal(
        vm_fixed.domain.read_pages(all_pfns), vm_event.domain.read_pages(all_pfns)
    )
    assert vm_fixed.analyzer.samples == vm_event.analyzer.samples


# -- migration equivalence (the satellite sweep) ------------------------------------------


def _run_migration(kernel: str, engine_name: str, seed: int):
    return MigrationExperiment(
        workload="derby",
        engine=engine_name,
        mem_bytes=MiB(512),
        max_young_bytes=MiB(128),
        warmup_s=10.0,
        cooldown_s=5.0,
        kernel=kernel,
        seed=seed,
    ).run()


@pytest.mark.parametrize("engine_name", ["xen", "assisted", "javmm"])
@pytest.mark.parametrize("seed", [7, 20150421])
def test_migration_measures_are_bit_identical(engine_name, seed):
    fixed = _run_migration("fixed", engine_name, seed)
    event = _run_migration("event", engine_name, seed)
    # Per-iteration streams and the final report, field by field.
    assert fixed.report.to_dict() == event.report.to_dict()
    # The attribution ledgers conserve under both kernels and match
    # bit-exactly (integer-ns time buckets, exact byte categories).
    assert (
        assert_conserved(fixed.report).to_dict()
        == assert_conserved(event.report).to_dict()
    )
    assert fixed.report.iterations == event.report.iterations
    assert fixed.throughput == event.throughput
    assert fixed.observed_app_downtime_s == event.observed_app_downtime_s
    assert fixed.young_committed_at_migration == event.young_committed_at_migration
    assert fixed.old_used_at_migration == event.old_used_at_migration


def _supervised_outputs(kernel: str, engine_name: str, with_faults: bool, monkeypatch):
    monkeypatch.setenv(KERNEL_ENV_VAR, kernel)
    plan = None
    if with_faults:
        plan = FaultPlan().link_outage(at_s=1.0, duration_s=0.5)
    result, vm = supervised_migrate(
        workload="derby",
        engine_name=engine_name,
        plan=plan,
        vm_kwargs={"mem_bytes": MiB(512), "max_young_bytes": MiB(128)},
    )
    return result


@pytest.mark.parametrize("engine_name", ["xen", "javmm"])
@pytest.mark.parametrize("with_faults", [False, True])
def test_supervised_runs_are_bit_identical(engine_name, with_faults, monkeypatch):
    fixed = _supervised_outputs("fixed", engine_name, with_faults, monkeypatch)
    event = _supervised_outputs("event", engine_name, with_faults, monkeypatch)
    assert fixed.ok == event.ok
    assert fixed.n_attempts == event.n_attempts
    assert fixed.degradations == event.degradations
    assert [
        (a.attempt, a.engine, a.aborted, a.reason, a.waited_before_s)
        for a in fixed.attempts
    ] == [
        (a.attempt, a.engine, a.aborted, a.reason, a.waited_before_s)
        for a in event.attempts
    ]
    assert (fixed.report is None) == (event.report is None)
    if fixed.report is not None:
        assert fixed.report.to_dict() == event.report.to_dict()
    assert _ledgers(fixed) == _ledgers(event)


# -- WAN equivalence ----------------------------------------------------------------------


def _run_wan(kernel: str, profile: str, seed: int, monkeypatch):
    from repro.net import wan_link

    monkeypatch.setenv(KERNEL_ENV_VAR, kernel)
    link = wan_link(profile, seed=seed)
    result, vm = supervised_migrate(
        workload="derby",
        link=link,
        seed=seed,
        vm_kwargs={"mem_bytes": MiB(512), "max_young_bytes": MiB(128)},
    )
    all_pfns = np.arange(vm.domain.n_pages, dtype=np.int64)
    return result, vm.domain.read_pages(all_pfns), vm.analyzer.samples, link.rng.snapshot()


@pytest.mark.parametrize("profile", ["metro", "continental"])
def test_wan_profile_runs_are_bit_identical(profile, monkeypatch):
    """Gilbert–Elliott burst loss, weather shifts and the rescue ladder
    must all replay identically under the leaping kernel: the loss
    chain freezes while the link is idle and draws one uniform per tick
    while a migration holds it — batched inside leaps, so the chain's
    RNG state ends where the fixed kernel's does."""
    f_result, f_pages, f_samples, f_rng = _run_wan("fixed", profile, 20150421, monkeypatch)
    e_result, e_pages, e_samples, e_rng = _run_wan("event", profile, 20150421, monkeypatch)
    assert f_rng == e_rng
    assert f_result.ok == e_result.ok
    assert f_result.n_attempts == e_result.n_attempts
    assert f_result.rescues == e_result.rescues
    assert f_result.breaker_tripped == e_result.breaker_tripped
    assert (f_result.report is None) == (e_result.report is None)
    if f_result.report is not None:
        assert f_result.report.to_dict() == e_result.report.to_dict()
    assert _ledgers(f_result) == _ledgers(e_result)
    assert np.array_equal(f_pages, e_pages)
    assert f_samples == e_samples


def test_wan_outage_rescue_run_is_bit_identical(monkeypatch):
    """Outage plan + WAN link + rescue ladder, fixed vs event."""
    from repro.net import wan_link

    def run(kernel: str):
        monkeypatch.setenv(KERNEL_ENV_VAR, kernel)
        plan = FaultPlan().link_flap(at_s=1.0, down_s=2.5, count=3, spacing_s=6.0)
        result, vm = supervised_migrate(
            workload="derby",
            link=wan_link("continental"),
            plan=plan,
            vm_kwargs={"mem_bytes": MiB(512), "max_young_bytes": MiB(128)},
        )
        return result

    fixed = run("fixed")
    event = run("event")
    assert fixed.ok == event.ok
    assert fixed.rescues == event.rescues
    assert [
        (a.attempt, a.engine, a.aborted, a.reason, a.waited_before_s)
        for a in fixed.attempts
    ] == [
        (a.attempt, a.engine, a.aborted, a.reason, a.waited_before_s)
        for a in event.attempts
    ]
    if fixed.report is not None:
        assert fixed.report.to_dict() == event.report.to_dict()
    assert _ledgers(fixed) == _ledgers(event)


# -- live/post-mortem equivalence (PR9) ---------------------------------------------------
#
# The live-streaming contract: a LiveStatus folded from the telemetry
# stream as it was written must, at stream end, equal bit-for-bit the
# status recomputed from the finished run's report — per workload, per
# engine, per kernel.  Tier-1 runs a representative subset; the CI
# live-board job sets REPRO_LIVE_FULL=1 to sweep all nine workloads.

def _live_workloads() -> tuple:
    if os.environ.get("REPRO_LIVE_FULL"):
        from repro.workloads import REGISTRY

        return tuple(sorted(REGISTRY))
    return ("derby", "scimark")


LIVE_WORKLOADS = _live_workloads()


def _live_and_post(kernel: str, workload: str, engine_name: str, tmp_path):
    from repro.core.experiment import ExperimentRun
    from repro.telemetry.attribution import attribute_report
    from repro.telemetry.live import JsonlSink, LiveStatus, watch_file

    path = tmp_path / f"{kernel}-{workload}-{engine_name}.jsonl"
    experiment = MigrationExperiment(
        workload=workload,
        engine=engine_name,
        mem_bytes=MiB(512),
        max_young_bytes=MiB(128),
        warmup_s=10.0,
        cooldown_s=5.0,
        kernel=kernel,
        telemetry=True,
    )
    run = ExperimentRun(experiment)
    sink = JsonlSink(path, flush="line")
    run.vm.probe.sink = sink
    run.vm.event_log.sink = sink
    result = run.run()
    sink.finalize(
        probe=run.vm.probe,
        attributions=[attribute_report(result.report).to_dict()],
    )
    live = watch_file(path, name="m")
    post = LiveStatus.from_report(result.report, name="m")
    return live, post


@pytest.mark.parametrize("engine_name", ["xen", "assisted", "javmm"])
@pytest.mark.parametrize("workload", LIVE_WORKLOADS)
@pytest.mark.parametrize("kernel", ["fixed", "event"])
def test_live_status_equals_post_mortem(kernel, workload, engine_name, tmp_path):
    live, post = _live_and_post(kernel, workload, engine_name, tmp_path)
    assert live.finished
    assert live.to_dict() == post.to_dict()


def test_live_status_is_kernel_independent(tmp_path):
    """The board a tail computes is itself a simulated measure: fixed
    and event kernels must produce identical status dicts."""
    fixed_live, _ = _live_and_post("fixed", "derby", "javmm", tmp_path)
    event_live, _ = _live_and_post("event", "derby", "javmm", tmp_path)
    assert fixed_live.to_dict() == event_live.to_dict()


def test_supervised_wan_live_status_equals_post_mortem(tmp_path, monkeypatch):
    """Rescue rungs and attempt accounting stream correctly under a
    hostile link: the supervised live board matches the supervision
    result's own report + rescue ledger."""
    from repro.net import wan_link
    from repro.telemetry.attribution import attribute_report
    from repro.telemetry.live import JsonlSink, LiveStatus, watch_file

    monkeypatch.setenv(KERNEL_ENV_VAR, "event")
    path = tmp_path / "wan.jsonl"
    sink = JsonlSink(path, flush="line")
    result, vm = supervised_migrate(
        workload="derby",
        link=wan_link("continental"),
        vm_kwargs={"mem_bytes": MiB(512), "max_young_bytes": MiB(128)},
        telemetry=True,
        telemetry_sink=sink,
    )
    sink.finalize(
        probe=vm.probe,
        attributions=[
            attribute_report(rec.report).to_dict()
            for rec in result.attempts
            if rec.report is not None
        ],
    )
    live = watch_file(path, name="m")
    post = LiveStatus.from_result(result, name="m")
    assert live.rescues == post.rescues
    assert live.to_dict() == post.to_dict()


# -- multiplexed sessions (the migration-manager service) ---------------------------------


def _session_payloads(kernel: str, tmp_path, tag: str):
    """Three mixed sessions multiplexed through one manager round-robin."""
    from repro.service import MigrationConfig, MigrationManager

    configs = [
        MigrationConfig(workload="derby", seed=7, kernel=kernel),
        MigrationConfig(workload="scimark", seed=11, kernel=kernel),
        MigrationConfig(workload="derby", seed=13, supervise=True, kernel=kernel),
    ]
    manager = MigrationManager(
        root_dir=str(tmp_path / f"svc-{tag}-{kernel}"),
        max_active=2,  # exercise admission: one session queues behind the pool
        slice_s=0.31,
    )
    ids = [manager.submit(cfg) for cfg in configs]
    manager.drain()
    return configs, [manager.session(sid).result_payload for sid in ids]


@pytest.mark.parametrize("kernel", ["fixed", "event"])
def test_multiplexed_sessions_match_standalone_runs(kernel, tmp_path):
    """A session's report, page-version digest and attribution ledger
    must be bit-identical to the same config run standalone — slicing
    only ever tightens engine-advance bounds (the PR 6 invariant), so
    cooperative multiplexing is measure-invisible."""
    from repro.service import run_standalone

    configs, payloads = _session_payloads(kernel, tmp_path, "solo")
    for config, payload in zip(configs, payloads):
        standalone = run_standalone(config)
        assert payload == standalone
        assert payload["final_digest"] == standalone["final_digest"]
        assert payload["attribution"] == standalone["attribution"]
        assert not payload["conservation_violations"]


def test_multiplexed_sessions_are_kernel_independent(tmp_path):
    """Fixed and event kernels must produce identical session payloads
    (digest included) through the manager, exactly as they do for a
    bare MigrationExperiment."""
    _, fixed = _session_payloads("fixed", tmp_path, "x")
    _, event = _session_payloads("event", tmp_path, "x")
    assert fixed == event


# -- race leaps ----------------------------------------------------------------------------
#
# The event kernel leaps through live pre-copy iterations: the guests
# write a stretch of ticks with tick-stamped marks, then the daemon
# replays one pump per tick against the stamped log.  These scenarios
# push that replay to its edges — a pending set the guests can nearly
# exhaust within a leap, and watchdog deadlines landing inside a
# would-be leap — and require exact equality with the fixed kernel.

#: A small VM whose mutators dirty pages fast relative to its pending
#: sets, so the daemon's exhaustion bound is tight.
HOT = WorkloadSpec(
    name="hot",
    description="high dirty rate test workload",
    category=1,
    alloc_mb_s=300.0,
    survival_frac=0.05,
    tenure_frac=0.10,
    young_target_mb=32,
    observed_old_mb=8,
    old_write_mb_s=40.0,
    old_ws_mb=6,
    misc_mb_s=8.0,
    ops_per_s=100.0,
    gc_scale=1.0,
    tts_enforced_s=0.05,
)

RACE_ENGINES = {
    "xen": lambda d, n, l, j, **kw: PrecopyMigrator(d, n, **kw),
    "assisted": lambda d, n, l, j, **kw: AssistedMigrator(d, n, l, **kw),
    "javmm": lambda d, n, l, j, **kw: JavmmMigrator(d, n, l, jvms=[j], **kw),
}


def _race_run(kernel: str, engine_name: str, seed: int, sever_after_s: float | None = None,
              **migrator_kwargs):
    """A tiny hot VM migrated to completion (or abort), its link cut
    *sever_after_s* into the migration if given; returns the outputs to
    compare and the lengths of the race-leap replays."""
    domain, guest, lkm, process, heap, jvm, agent = build_tiny_vm(spec=HOT, seed=seed)
    sim = Engine(0.005, kernel=kernel)
    for actor in (jvm, guest, lkm):
        sim.add(actor)
    link = Link()
    mig = RACE_ENGINES[engine_name](domain, link, lkm, jvm, **migrator_kwargs)
    sim.add(mig)
    jvm.migration_load = mig
    replays = []
    replay = mig._replay_race

    def counted(start_tick, ticks, dt):
        replays.append(ticks)
        replay(start_tick, ticks, dt)

    mig._replay_race = counted
    # The destination image at every iteration boundary: a page sent
    # mid-leap must carry the version it had at its tick, even when a
    # later tick of the leap rewrote it (the final image cannot show
    # that — the rewrite is re-sent).
    boundaries = []
    begin = mig._begin_iteration

    def recorded(now):
        if mig.dest_domain is not None:
            boundaries.append(hashlib.sha256(mig.dest_domain.pages.snapshot()).hexdigest())
        begin(now)

    mig._begin_iteration = recorded
    sim.run_until(1.0)
    mig.start(sim.now)
    aborted = None
    try:
        if sever_after_s is not None:
            sim.run_until(sim.now + sever_after_s)
            link.sever()
        sim.run_while(lambda: not mig.done, timeout=300.0)
    except MigrationAbortedError as exc:
        aborted = (str(exc), sim.now)
    pages = (mig.dest_domain or domain).pages.snapshot()
    outputs = (
        mig.report.to_dict(),
        assert_conserved(mig.report).to_dict(),
        hashlib.sha256(pages.tobytes()).hexdigest(),
        domain.pages.snapshot().tobytes(),
        jvm.ops_completed,
        boundaries,
        aborted,
    )
    return outputs, replays


@pytest.mark.parametrize("engine_name", sorted(RACE_ENGINES))
@pytest.mark.parametrize("seed", [3, 11])
def test_race_leaps_at_a_tight_exhaustion_bound(engine_name, seed):
    fixed, _ = _race_run("fixed", engine_name, seed)
    event, replays = _race_run("event", engine_name, seed)
    assert fixed[0]["verified"] is True
    assert replays, "the event kernel never leapt a live pre-copy tick"
    assert fixed == event


@pytest.mark.parametrize("engine_name", sorted(RACE_ENGINES))
@pytest.mark.parametrize(
    "watchdog, reason",
    [
        # lands inside what would otherwise be a long leap
        ({"phase_timeouts": {"iterating": 0.1234}}, "deadline"),
        # the daemon leaps through the outage (it plans no sends) until
        # the stall watchdog fires
        ({"stall_timeout_s": 0.4123, "sever_after_s": 0.3}, "no transfer progress"),
    ],
    ids=["phase-deadline", "stall"],
)
def test_race_leap_watchdog_deadlines_fire_on_the_same_tick(engine_name, watchdog, reason):
    fixed, _ = _race_run("fixed", engine_name, 5, **watchdog)
    event, replays = _race_run("event", engine_name, 5, **watchdog)
    assert fixed[-1] is not None and reason in fixed[-1][0]
    assert replays
    assert fixed == event


def test_race_leaps_cover_the_live_iterations():
    """The optimisation cannot silently turn itself off: on derby/xen,
    at least 90 % of the ticks spent ITERATING with the JVM running
    are covered by leaps."""
    engine, vm, mig = MigrationExperiment(
        workload="derby", engine="xen", mem_bytes=MiB(512),
        max_young_bytes=MiB(128), kernel="event", seed=7,
    ).build()
    engine.run_until(10.0)
    mig.start(engine.now)
    seen = {"ticks": 0, "leapt": 0}
    advance = engine._advance

    def counted(bound):
        racing = (
            mig.phase is MigrationPhase.ITERATING and vm.jvm.phase is JvmPhase.RUNNING
        )
        ticks = advance(bound)
        if racing:
            seen["ticks"] += ticks
            seen["leapt"] += ticks - 1
        return ticks

    engine._advance = counted
    engine.run_while(lambda: not mig.done, timeout=600.0)
    assert mig.report.verified
    assert seen["ticks"] > 1000
    assert seen["leapt"] >= 0.9 * seen["ticks"], seen


def test_unstamped_guest_writes_inside_a_race_leap_fail_loudly(monkeypatch):
    domain, guest, lkm, process, heap, jvm, agent = build_tiny_vm(spec=HOT)
    sim = Engine(0.005, kernel="event")
    for actor in (jvm, guest, lkm):
        sim.add(actor)
    mig = PrecopyMigrator(domain, Link())
    sim.add(mig)
    jvm.migration_load = mig
    sim.run_until(1.0)
    mig.start(sim.now)
    step_many = guest.step_many

    def sloppy(start_tick, ticks, dt):
        step_many(start_tick, ticks, dt)
        domain.touch_range(0, 1)  # a write the replay cannot place in time

    monkeypatch.setattr(guest, "step_many", sloppy)
    with pytest.raises(SimulationError, match="unstamped"):
        sim.run_while(lambda: not mig.done, timeout=300.0)


def test_race_leap_replay_that_misses_its_plan_fails_loudly(monkeypatch):
    domain, guest, lkm, process, heap, jvm, agent = build_tiny_vm(spec=HOT)
    sim = Engine(0.005, kernel="event")
    for actor in (jvm, guest, lkm):
        sim.add(actor)
    mig = PrecopyMigrator(domain, Link())
    sim.add(mig)
    jvm.migration_load = mig
    sim.run_until(1.0)
    mig.start(sim.now)
    tick_plan = mig._tick_plan

    def off_by_one(ticks, dt):
        return [(sent + 1, wire) for sent, wire in tick_plan(ticks, dt)]

    monkeypatch.setattr(mig, "_tick_plan", off_by_one)
    with pytest.raises(SimulationError, match="diverged"):
        sim.run_while(lambda: not mig.done, timeout=300.0)
