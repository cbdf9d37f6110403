#!/usr/bin/env python3
"""Gang migration: evacuating several Java VMs at once.

Host evacuation (maintenance, power management) migrates every VM on a
machine concurrently, so the migrations share the same link — the
scenario of Deshpande et al.'s gang-migration work cited in Section 2.
This example evacuates three 2 GB Java VMs with vanilla Xen and with
JAVMM and compares evacuation time and total traffic.

Run:  python examples/gang_migration.py
"""

from repro.core.builders import build_java_vm, make_migrator
from repro.net.link import Link
from repro.sim.engine import Engine
from repro.units import GIB, GiB, MiB

WORKLOADS = ("derby", "crypto", "compiler")


def evacuate(engine_name: str) -> None:
    sim = Engine(0.005)
    link = Link()
    migrators = []
    for i, workload in enumerate(WORKLOADS):
        vm = build_java_vm(
            workload=workload,
            name=f"vm-{workload}",
            mem_bytes=GiB(2),
            max_young_bytes=MiB(768),
            seed=100 + i,
        )
        for actor in vm.actors():
            sim.add(actor)
        migrator = make_migrator(engine_name, vm, link)
        sim.add(migrator)
        vm.jvm.migration_load = migrator
        migrators.append(migrator)

    sim.run_until(15.0)
    start = sim.now
    for migrator in migrators:
        migrator.start(sim.now)
    sim.run_while(lambda: not all(m.done for m in migrators), timeout=1200)

    evacuation = sim.now - start
    print(f"{engine_name}: evacuated {len(WORKLOADS)} VMs in {evacuation:.1f} s, "
          f"{link.meter.wire_bytes / GIB:.2f} GiB total traffic")
    for workload, migrator in zip(WORKLOADS, migrators):
        rep = migrator.report
        print(f"   {workload:9s} {rep.completion_time_s:6.1f} s, "
              f"{rep.total_wire_bytes / GIB:5.2f} GiB, "
              f"downtime {rep.downtime.app_downtime_s:5.2f} s, "
              f"verified={rep.verified}")
    print()


def main() -> None:
    evacuate("xen")
    evacuate("javmm")


if __name__ == "__main__":
    main()
