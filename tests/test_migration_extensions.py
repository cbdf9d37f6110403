"""Post-copy, ALB ballooning, and the JAVMM+compression hybrid."""

import numpy as np
import pytest

from repro.migration.alb import BallooningPrecopyMigrator
from repro.migration.hybrid import (
    CompressionHintMap,
    CompressionMethod,
    JavmmCompressedMigrator,
    classify_java_vm,
)
from repro.migration.javmm import JavmmMigrator
from repro.migration.postcopy import PostCopyMigrator
from repro.migration.precopy import PrecopyMigrator
from repro.net.link import Link
from repro.sim.engine import Engine
from repro.units import MiB

from tests.conftest import build_tiny_vm


def build_and_run(migrator_factory, warmup=1.0, timeout=300.0, **vm_kwargs):
    domain, kernel, lkm, process, heap, jvm, agent = build_tiny_vm(**vm_kwargs)
    engine = Engine(0.005)
    for actor in (jvm, kernel, lkm):
        engine.add(actor)
    migrator = migrator_factory(domain, kernel, lkm, heap, jvm)
    engine.add(migrator)
    jvm.migration_load = migrator
    engine.run_until(warmup)
    migrator.start(engine.now)
    engine.run_while(lambda: not migrator.done, timeout=timeout)
    return migrator, engine, (domain, kernel, lkm, heap, jvm)


# -- post-copy --------------------------------------------------------------------


def test_postcopy_minimal_downtime():
    migrator, engine, (domain, *_ ) = build_and_run(
        lambda d, k, l, h, j: PostCopyMigrator(d, Link())
    )
    report = migrator.report
    # Downtime is just the vCPU-state switch; no stop-and-copy.
    assert report.downtime.vm_downtime_s == pytest.approx(
        migrator.resume_delay_s, abs=0.02
    )
    assert report.verified is True


def test_postcopy_fetches_every_page_exactly_once():
    migrator, engine, (domain, *_) = build_and_run(
        lambda d, k, l, h, j: PostCopyMigrator(d, Link())
    )
    assert migrator.fetched.count() == domain.n_pages
    # Exactly one copy of the VM went over the wire.
    assert migrator.link.meter.pages_sent == domain.n_pages


def test_postcopy_pays_demand_faults():
    migrator, engine, state = build_and_run(
        lambda d, k, l, h, j: PostCopyMigrator(d, Link())
    )
    # A busy JVM writes to not-yet-fetched pages: faults must occur.
    assert migrator.demand_faults > 0
    assert migrator.stall_seconds > 0


def test_postcopy_degrades_guest_while_fetching():
    migrator, engine, (domain, kernel, lkm, heap, jvm) = build_and_run(
        lambda d, k, l, h, j: PostCopyMigrator(d, Link())
    )
    # During fetching the load hook reported contention; after, zero.
    assert migrator.load_fraction() == 0.0
    assert migrator.report.stop_reason == "all pages fetched"


# -- ALB ballooning ----------------------------------------------------------------


def test_alb_shrinks_heap_before_transfer():
    migrator, engine, (domain, kernel, lkm, heap, jvm) = build_and_run(
        lambda d, k, l, h, j: BallooningPrecopyMigrator(
            d, Link(), jvms=[j], balloon_fraction=0.25
        ),
        warmup=2.0,
    )
    assert migrator.report.verified is True
    # Heap target restored after resume.
    assert heap.young_target_bytes == MiB(32)


def test_alb_reduces_traffic_vs_vanilla():
    vanilla, _, _ = build_and_run(
        lambda d, k, l, h, j: PrecopyMigrator(d, Link()), warmup=2.0
    )
    alb, _, _ = build_and_run(
        lambda d, k, l, h, j: BallooningPrecopyMigrator(
            d, Link(), jvms=[j], balloon_fraction=0.25
        ),
        warmup=2.0,
    )
    assert alb.report.total_wire_bytes < vanilla.report.total_wire_bytes


def test_alb_increases_gc_frequency():
    # The paper's trade-off: a smaller heap collects more often.
    _, _, (domain, kernel, lkm, heap, jvm) = build_and_run(
        lambda d, k, l, h, j: BallooningPrecopyMigrator(
            d, Link(), jvms=[j], balloon_fraction=0.2
        ),
        warmup=2.0,
    )
    log = heap.counters.minor_log
    assert len(log) >= 3
    # GCs during the ballooned phase scan far less than full-size ones.
    scans = [g.scanned_bytes for g in log]
    assert min(scans) < max(scans) / 2


def test_alb_fraction_validated():
    domain, kernel, lkm, process, heap, jvm, agent = build_tiny_vm()
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        BallooningPrecopyMigrator(domain, Link(), jvms=[jvm], balloon_fraction=0.0)


# -- compression hints --------------------------------------------------------------


def test_hint_map_payload_accounting():
    hints = CompressionHintMap(16, default=CompressionMethod.RAW)
    hints.set_range(0, 4, CompressionMethod.HEAVY)
    hints.set_range(4, 8, CompressionMethod.LIGHT)
    pfns = np.arange(12)
    payload, cpu = hints.payload_and_cpu(pfns)
    expected = int(4 * 4096 * 0.40 + 4 * 4096 * 0.60 + 4 * 4096 * 1.0)
    assert payload == expected
    assert cpu > 0


def test_hint_map_packed_size_two_bits_per_page():
    hints = CompressionHintMap(1024)
    assert hints.nbytes_packed == 256


def test_classifier_marks_old_gen_heavy():
    domain, kernel, lkm, process, heap, jvm, agent = build_tiny_vm()
    hints = CompressionHintMap(domain.n_pages)
    classify_java_vm(hints, [jvm])
    old_pfns = process.page_table.walk(heap.old_used_range())
    assert (hints.methods(old_pfns) == int(CompressionMethod.HEAVY)).all()


def test_hybrid_end_to_end_verifies_and_compresses():
    migrator, engine, (domain, kernel, lkm, heap, jvm) = build_and_run(
        lambda d, k, l, h, j: JavmmCompressedMigrator(d, Link(), l, jvms=[j])
    )
    report = migrator.report
    assert report.verified is True
    assert report.violating_pages == 0
    # Skipping still happens (Young generation)...
    assert report.total_pages_skipped_bitmap > 0
    # ...and what was sent cost less than raw payload on the wire.
    meter = migrator.link.meter
    assert meter.payload_bytes < meter.pages_sent * 4096
    assert migrator.compression_cpu_seconds > 0


def test_hybrid_cheaper_cpu_than_compress_everything():
    """The Section-6 claim: skipping before compressing saves CPU."""
    hybrid, _, _ = build_and_run(
        lambda d, k, l, h, j: JavmmCompressedMigrator(d, Link(), l, jvms=[j])
    )
    from repro.migration.baselines import CompressedPrecopyMigrator

    compress_all, _, _ = build_and_run(
        lambda d, k, l, h, j: CompressedPrecopyMigrator(d, Link())
    )
    assert hybrid.report.cpu_seconds < compress_all.report.cpu_seconds


def test_hybrid_less_traffic_than_plain_javmm():
    hybrid, _, _ = build_and_run(
        lambda d, k, l, h, j: JavmmCompressedMigrator(d, Link(), l, jvms=[j])
    )
    plain, _, _ = build_and_run(
        lambda d, k, l, h, j: JavmmMigrator(d, Link(), l, jvms=[j])
    )
    assert hybrid.report.total_wire_bytes < plain.report.total_wire_bytes
