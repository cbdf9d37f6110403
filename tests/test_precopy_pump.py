"""The pre-copy pump: one batch per budget round, results independent of
the scan window, and work proportional to the pages moved.

Each budget round sends the longest prefix of the pending pages that
holds at most ``budget // wire_cost`` sendable pages.  The scan windows
only decide how many pages one numpy call tests, so forcing them to any
fixed size must leave every simulated result bit-identical.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import repro.migration.precopy as precopy
from repro.core.builders import build_java_vm, make_migrator
from repro.core.supervisor import supervised_migrate
from repro.mem.constants import PAGE_SIZE
from repro.migration.assisted import AssistedMigrator
from repro.migration.baselines import CompressedPrecopyMigrator
from repro.migration.hybrid import JavmmCompressedMigrator
from repro.migration.javmm import JavmmMigrator
from repro.migration.precopy import PrecopyMigrator
from repro.net.link import Link
from repro.net.wan import wan_link
from repro.sim.engine import Engine, make_engine
from repro.telemetry.attribution import assert_conserved
from repro.units import MiB
from tests.conftest import build_tiny_vm

#: forced scan-window sizes: per page, odd, about one gigabit tick's
#: budget, and the old fixed chunk
WINDOWS = (1, 7, 150, 16384)

ENGINES = {
    "xen": lambda d, l, j: PrecopyMigrator(d, Link()),
    "assisted": lambda d, l, j: AssistedMigrator(d, Link(), l),
    "javmm": lambda d, l, j: JavmmMigrator(d, Link(), l, jvms=[j]),
    "compress": lambda d, l, j: CompressedPrecopyMigrator(d, Link()),
    "javmm+compress": lambda d, l, j: JavmmCompressedMigrator(d, Link(), l, jvms=[j]),
}


def _digest(pages: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(pages).tobytes()).hexdigest()


def _force_window(monkeypatch, size: int) -> None:
    monkeypatch.setattr(precopy, "_SCAN_MIN", size)
    monkeypatch.setattr(precopy, "_SCAN_MAX", size)


def _tiny_outputs(engine: str) -> tuple:
    domain, kernel, lkm, process, heap, jvm, agent = build_tiny_vm()
    sim = Engine(0.005)
    for actor in (jvm, kernel, lkm):
        sim.add(actor)
    mig = ENGINES[engine](domain, lkm, jvm)
    sim.add(mig)
    jvm.migration_load = mig
    sim.run_until(1.0)
    mig.start(sim.now)
    sim.run_while(lambda: not mig.done, timeout=300.0)
    return (
        mig.report.to_dict(),
        assert_conserved(mig.report).to_dict(),
        _digest(mig.dest_domain.pages.snapshot()),
    )


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_scan_window_cannot_change_results(engine, monkeypatch):
    runs = []
    for size in WINDOWS:
        _force_window(monkeypatch, size)
        runs.append(_tiny_outputs(engine))
    report = runs[0][0]
    assert report["verified"] is True
    assert report["pages_skipped_dirty"] + report["pages_skipped_bitmap"] > 0
    for size, run in zip(WINDOWS[1:], runs[1:]):
        assert run == runs[0], f"window {size} diverged from window {WINDOWS[0]}"


def test_scan_window_cannot_change_supervised_lossy_wan_run(monkeypatch):
    runs = []
    for size in WINDOWS:
        _force_window(monkeypatch, size)
        result, vm = supervised_migrate(
            workload="derby",
            engine_name="xen",
            link=wan_link("metro", seed=5),
            seed=5,
            vm_kwargs={"mem_bytes": MiB(512), "max_young_bytes": MiB(128)},
        )
        assert result.ok
        runs.append((
            [rec.report.to_dict() for rec in result.attempts],
            [assert_conserved(rec.report).to_dict() for rec in result.attempts],
            result.rescues,
            _digest(result.migrator.dest_domain.pages.snapshot()),
        ))
    assert runs[0][0][-1]["wire_by_category"].get("loss_retx", 0) > 0
    for size, run in zip(WINDOWS[1:], runs[1:]):
        assert run == runs[0], f"window {size} diverged from window {WINDOWS[0]}"


def _warm_xen(workload: str):
    sim = make_engine(0.005, kernel="event")
    vm = build_java_vm(workload=workload, seed=3, mem_bytes=MiB(512),
                       max_young_bytes=MiB(128))
    vm.register(sim)
    mig = make_migrator("xen", vm, Link())
    sim.add(mig)
    sim.run_until(2.0)
    return sim, vm, mig


def test_pump_work_is_bounded_by_pages_moved():
    """Pages tested per ``_pump`` stay within twice the pages consumed
    plus one budget's worth, and each call sends at most one batch."""
    sim, vm, mig = _warm_xen("derby")
    tested = [0]
    batches = [0]
    calls = []
    dirty_mask = vm.domain.dirty_log.dirty_mask
    account_pages = mig.link.account_pages
    pump = mig._pump

    def counting_mask(pfns):
        tested[0] += len(pfns)
        return dirty_mask(pfns)

    def counting_account(*args, **kwargs):
        batches[0] += 1
        return account_pages(*args, **kwargs)

    def watched_pump(now):
        first = mig._iter_index == 1
        limit = int(mig._budget // mig._page_wire_cost())
        cursor, tested[0], batches[0] = mig._cursor, 0, 0
        pump(now)
        if first:
            calls.append((tested[0], mig._cursor - cursor, limit, batches[0]))

    vm.domain.dirty_log.dirty_mask = counting_mask
    mig.link.account_pages = counting_account
    mig._pump = watched_pump
    mig.start(sim.now)
    while mig._iter_index == 1:
        sim.run_until(sim.now + 0.1)
    assert calls and sum(moved for _, moved, _, _ in calls) == vm.domain.n_pages
    for n_tested, moved, limit, n_batches in calls:
        assert n_tested <= 2 * moved + limit + 1
        assert n_batches <= 1


def test_cost_fields_are_converted_from_integer_tallies():
    """cpu_seconds, rescue compressor CPU and floor wait are products of
    integer counters, not sums whose last digits depend on grouping."""
    sim, vm, mig = _warm_xen("mpeg")  # drains iterations under the floor
    mig.wire_compression = 0.5
    mig.start(sim.now)
    while not mig.finished:
        sim.run_until(sim.now + 0.5)
    report = mig.report
    rescue = mig._pages_pushed * PAGE_SIZE * mig.wire_compression_cpu_s_per_byte
    assert report.rescue_compress_cpu_s == rescue > 0
    assert report.cpu_seconds == mig._pages_scanned * precopy.CPU_S_PER_PAGE_SCANNED + (
        mig._pages_pushed * PAGE_SIZE * precopy.CPU_S_PER_BYTE_SENT + rescue
    )
    assert mig._pages_scanned == (
        report.total_pages_sent
        + report.total_pages_skipped_dirty
        + report.total_pages_skipped_bitmap
    )
    assert report.floor_wait_s == mig._floor_ticks * 0.005 > 0
