"""Gang migration: several VMs share the migration link fairly."""

import pytest

from repro.migration.javmm import JavmmMigrator
from repro.migration.precopy import PrecopyMigrator
from repro.net.link import Link
from repro.sim.engine import Engine
from repro.units import MiB

from tests.conftest import build_tiny_vm


def build_gang(n: int, engine_name: str, link: Link):
    engine = Engine(0.005)
    members = []
    for i in range(n):
        domain, kernel, lkm, process, heap, jvm, agent = build_tiny_vm(seed=i + 1)
        for actor in (jvm, kernel, lkm):
            engine.add(actor)
        if engine_name == "javmm":
            migrator = JavmmMigrator(domain, link, lkm, jvms=[jvm])
        else:
            migrator = PrecopyMigrator(domain, link)
        engine.add(migrator)
        jvm.migration_load = migrator
        members.append((domain, migrator))
    return engine, members


def test_link_fair_share_accounting():
    link = Link()
    a, b = object(), object()
    assert link.share_for(a, 1.0) == pytest.approx(link.capacity_bytes(1.0))
    link.register_consumer(a)
    link.register_consumer(b)
    assert link.active_consumers == 2
    assert link.share_for(a, 1.0) == pytest.approx(link.capacity_bytes(1.0) / 2)
    link.release_consumer(b)
    assert link.share_for(a, 1.0) == pytest.approx(link.capacity_bytes(1.0))


def test_gang_of_three_all_verify():
    link = Link()
    engine, members = build_gang(3, "javmm", link)
    engine.run_until(1.0)
    for _, migrator in members:
        migrator.start(engine.now)
    engine.run_while(
        lambda: not all(m.done for _, m in members), timeout=600
    )
    for domain, migrator in members:
        assert migrator.report.verified is True
        assert migrator.report.violating_pages == 0
    assert link.active_consumers == 0


def test_concurrent_migrations_share_not_exceed_the_pipe():
    link = Link(bandwidth_bytes_per_s=MiB(60), efficiency=1.0)
    engine, members = build_gang(2, "xen", link)
    engine.run_until(1.0)
    start = engine.now
    for _, migrator in members:
        migrator.start(engine.now)
    engine.run_while(lambda: not all(m.done for _, m in members), timeout=600)
    elapsed = engine.now - start
    # Everything both migrations sent must fit inside the shared pipe.
    assert link.meter.wire_bytes <= MiB(60) * elapsed * 1.02


def test_gang_member_finishing_early_frees_bandwidth():
    link = Link()
    engine, members = build_gang(2, "javmm", link)
    # Make one member much smaller so it finishes first.
    engine.run_until(1.0)
    big, small = members[0][1], members[1][1]
    big.start(engine.now)
    small.start(engine.now)
    engine.run_while(lambda: not small.done and not big.done, timeout=600)
    # Whichever finished first released its share.
    assert link.active_consumers == 1
    engine.run_while(lambda: not (small.done and big.done), timeout=600)
    assert link.active_consumers == 0


def test_staggered_gang_migrations():
    link = Link()
    engine, members = build_gang(2, "xen", link)
    engine.run_until(1.0)
    first = members[0][1]
    second = members[1][1]
    first.start(engine.now)
    engine.run_until(engine.now + 2.0)
    second.start(engine.now)
    engine.run_while(lambda: not (first.done and second.done), timeout=600)
    assert first.report.verified and second.report.verified
    # The staggered start shows up as the first member finishing first.
    assert first.report.finished_s < second.report.finished_s
