"""Host evacuation: policy-driven gang migration.

Live migration's headline use cases — load balancing, power savings,
maintenance — evacuate whole hosts, not single VMs.  This orchestrator
combines the pieces the library already has: it builds every guest on
the source host, applies the Section-6 policy (live-profiled) per VM to
pick its engine, migrates them concurrently over one fairly-shared
link, and reports per-VM and aggregate outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.auto import choose_engine_live
from repro.core.builders import JavaVM, build_java_vm, make_migrator
from repro.errors import ConfigurationError
from repro.migration.precopy import PrecopyMigrator
from repro.net.link import Link
from repro.sim.engine import make_engine
from repro.units import MiB


@dataclass(frozen=True)
class VMPlan:
    """One guest to evacuate."""

    workload: str
    mem_mb: int = 2048
    max_young_mb: int = 1024


@dataclass
class VMOutcome:
    workload: str
    engine: str
    completion_s: float
    wire_bytes: int
    app_downtime_s: float
    verified: bool


@dataclass
class EvacuationReport:
    outcomes: list[VMOutcome] = field(default_factory=list)
    evacuation_s: float = 0.0
    total_wire_bytes: int = 0

    @property
    def all_verified(self) -> bool:
        return all(o.verified for o in self.outcomes)


class HostEvacuation:
    """Plan and run the evacuation of one host."""

    def __init__(
        self,
        plans: list[VMPlan],
        link: Link | None = None,
        warmup_s: float = 12.0,
        dt: float = 0.005,
        seed: int = 20150421,
    ) -> None:
        if not plans:
            raise ConfigurationError("nothing to evacuate")
        self.plans = plans
        self.link = link or Link()
        self.warmup_s = warmup_s
        self.dt = dt
        self.seed = seed

    def run(self) -> EvacuationReport:
        engine = make_engine(self.dt)
        guests: list[JavaVM] = []
        for i, plan in enumerate(self.plans):
            vm = build_java_vm(
                workload=plan.workload,
                name=f"vm-{i}-{plan.workload}",
                mem_bytes=MiB(plan.mem_mb),
                max_young_bytes=MiB(plan.max_young_mb),
                seed=self.seed + 31 * i,
            )
            vm.register(engine)
            guests.append(vm)

        engine.run_until(self.warmup_s)

        migrators: list[tuple[JavaVM, str, PrecopyMigrator]] = []
        for vm in guests:
            decision = choose_engine_live(vm, self.warmup_s, link=self.link)
            migrator = make_migrator(decision.engine, vm, self.link)
            engine.add(migrator)
            vm.jvm.migration_load = migrator
            migrators.append((vm, decision.engine, migrator))

        start = engine.now
        for _, _, migrator in migrators:
            migrator.start(engine.now)
        engine.run_while(
            lambda: not all(m.done for _, _, m in migrators), timeout=3600
        )

        report = EvacuationReport(
            evacuation_s=engine.now - start,
            total_wire_bytes=self.link.meter.wire_bytes,
        )
        for vm, engine_name, migrator in migrators:
            rep = migrator.report
            report.outcomes.append(
                VMOutcome(
                    workload=vm.workload.name,
                    engine=engine_name,
                    completion_s=rep.completion_time_s,
                    wire_bytes=rep.total_wire_bytes,
                    app_downtime_s=rep.downtime.app_downtime_s,
                    verified=bool(rep.verified),
                )
            )
        return report
