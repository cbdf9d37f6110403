"""The HotSpot actor: phases, safepoints, enforced GC, interference."""

import numpy as np
import pytest

from repro.jvm.gc_model import GcCostModel
from repro.jvm.hotspot import JvmPhase
from repro.sim.engine import Engine
from repro.units import MiB

from tests.conftest import TINY, build_tiny_vm


def drive(jvm, kernel, seconds, dt=0.005):
    engine = Engine(dt)
    engine.add(jvm)
    engine.add(kernel)
    engine.run_until(seconds)
    return engine


def test_running_jvm_allocates_and_completes_ops(tiny_vm):
    domain, kernel, lkm, process, heap, jvm, agent = tiny_vm
    drive(jvm, kernel, 2.0)
    assert heap.counters.allocated_bytes > 0
    assert jvm.ops_completed == pytest.approx(2.0 * TINY.ops_per_s, rel=0.2)


def test_natural_gc_cycle(tiny_vm):
    domain, kernel, lkm, process, heap, jvm, agent = tiny_vm
    # Eden ~25.6 MiB at 40 MiB/s → a GC roughly every ~0.65 s.
    drive(jvm, kernel, 5.0)
    assert heap.counters.minor_gcs >= 3
    assert jvm.gc_pause_seconds > 0


def test_gc_pauses_stop_allocation(tiny_vm):
    domain, kernel, lkm, process, heap, jvm, agent = tiny_vm
    engine = Engine(0.005)
    engine.add(jvm)
    engine.add(kernel)
    engine.run_while(lambda: jvm.phase is not JvmPhase.GC, timeout=10)
    allocated = heap.counters.allocated_bytes
    ops = jvm.ops_completed
    engine.step()
    assert heap.counters.allocated_bytes == allocated
    assert jvm.ops_completed == ops


def test_enforced_gc_holds_threads_until_release(tiny_vm):
    domain, kernel, lkm, process, heap, jvm, agent = tiny_vm
    ready = []
    jvm.on_enforced_ready = lambda: ready.append(True)
    engine = Engine(0.005)
    engine.add(jvm)
    engine.add(kernel)
    engine.run_until(0.5)
    jvm.enforce_gc()
    engine.run_while(lambda: jvm.phase is not JvmPhase.HELD, timeout=10)
    assert ready == [True]
    assert heap.eden_used == 0  # post-collection state
    ops = jvm.ops_completed
    engine.run_until(engine.now + 1.0)
    assert jvm.ops_completed == ops  # held: no progress
    jvm.release()
    engine.run_until(engine.now + 1.0)
    assert jvm.ops_completed > ops


def test_enforced_gc_during_natural_gc_still_runs(tiny_vm):
    domain, kernel, lkm, process, heap, jvm, agent = tiny_vm
    engine = Engine(0.005)
    engine.add(jvm)
    engine.add(kernel)
    engine.run_while(lambda: jvm.phase is not JvmPhase.GC, timeout=10)
    jvm.enforce_gc()  # arrives mid natural collection
    engine.run_while(lambda: jvm.phase is not JvmPhase.HELD, timeout=10)
    enforced = [g for g in heap.counters.minor_log if g.enforced]
    assert len(enforced) == 1


def test_enforced_gc_duration_tracked(tiny_vm):
    domain, kernel, lkm, process, heap, jvm, agent = tiny_vm
    engine = Engine(0.005)
    engine.add(jvm)
    engine.add(kernel)
    engine.run_until(0.3)
    jvm.enforce_gc()
    engine.run_while(lambda: jvm.phase is not JvmPhase.HELD, timeout=10)
    assert jvm.enforced_gc_seconds > 0
    assert jvm.safepoint_wait_seconds > 0


def test_paused_domain_freezes_jvm(tiny_vm):
    domain, kernel, lkm, process, heap, jvm, agent = tiny_vm
    engine = Engine(0.005)
    engine.add(jvm)
    engine.add(kernel)
    engine.run_until(0.5)
    ops = jvm.ops_completed
    domain.pause(engine.now)
    engine.run_until(engine.now + 1.0)
    assert jvm.ops_completed == ops
    domain.unpause(engine.now)
    engine.run_until(engine.now + 0.5)
    assert jvm.ops_completed > ops


class FullLineRate:
    """A migration-load hook stub: the daemon at full line rate."""

    def load_fraction(self):
        return 1.0

    def load_plan(self, ticks):
        return np.ones(ticks)

    def load_floor(self):
        return 1.0


def test_migration_interference_slows_mutators(tiny_vm):
    domain, kernel, lkm, process, heap, jvm, agent = tiny_vm
    jvm.interference_k = 0.5
    jvm.migration_load = FullLineRate()
    drive(jvm, kernel, 2.0)
    assert jvm.ops_completed == pytest.approx(0.5 * 2.0 * TINY.ops_per_s, rel=0.2)


def test_old_and_misc_writes_dirty_pages(tiny_vm):
    domain, kernel, lkm, process, heap, jvm, agent = tiny_vm
    domain.dirty_log.enable()
    drive(jvm, kernel, 1.0)
    dirty = set(map(int, domain.dirty_log.peek()))
    misc_pfns = set(map(int, process.write_pfns_of(jvm.misc_region)))
    old_pfns = set(map(int, process.write_pfns_of(heap.old_used_range())))
    assert dirty & misc_pfns
    assert dirty & old_pfns


def test_gc_end_callback_fires(tiny_vm):
    domain, kernel, lkm, process, heap, jvm, agent = tiny_vm
    seen = []
    jvm.on_gc_end = seen.append
    drive(jvm, kernel, 3.0)
    assert len(seen) == heap.counters.minor_gcs > 0
