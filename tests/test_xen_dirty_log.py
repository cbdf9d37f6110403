"""Log-dirty tracking semantics (Xen's peek-and-clear)."""

import numpy as np

from repro.mem.versioned import VersionedPages
from repro.xen.dirty_log import DirtyLog


def test_disabled_log_records_nothing():
    log = DirtyLog(16)
    log.mark(np.array([1, 2]))
    assert log.count() == 0
    assert not log.enabled


def test_enable_starts_clean():
    log = DirtyLog(16)
    log.enable()
    log.mark(np.array([1]))
    log.disable()
    log.enable()
    assert log.count() == 0


def test_peek_and_clear_consumes():
    log = DirtyLog(16)
    log.enable()
    log.mark(np.array([3, 5]))
    assert list(log.peek_and_clear()) == [3, 5]
    assert log.count() == 0


def test_peek_does_not_consume():
    log = DirtyLog(16)
    log.enable()
    log.mark_range(0, 3)
    assert list(log.peek()) == [0, 1, 2]
    assert log.count() == 3


def test_mid_iteration_dirtying_surfaces_next_snapshot():
    # The property Figure 1 rests on: pages dirtied after a snapshot
    # appear in the next one.
    log = DirtyLog(16)
    log.enable()
    log.mark(np.array([1]))
    first = log.peek_and_clear()
    log.mark(np.array([2]))
    second = log.peek_and_clear()
    assert list(first) == [1]
    assert list(second) == [2]


def test_dirty_mask_and_is_dirty():
    log = DirtyLog(16)
    log.enable()
    log.mark(np.array([4]))
    assert log.is_dirty(4)
    assert not log.is_dirty(5)
    assert list(log.dirty_mask(np.array([3, 4, 5]))) == [False, True, False]


def test_disable_clears():
    log = DirtyLog(16)
    log.enable()
    log.mark(np.array([1]))
    log.disable()
    assert log.count() == 0
    log.mark(np.array([2]))
    assert log.count() == 0


# -- tick stamps (race leaps) -------------------------------------------------------------


def _stamped_log():
    pages = VersionedPages(16)
    log = DirtyLog(16)
    log.enable()
    pages.bump(np.arange(16))  # every page at version 1
    log.mark(np.array([1]))  # dirty before the leap
    pages.bump(np.array([1]))
    # a leap over ticks 10..14: page 2 written at 12, page 3 at 11
    # (by one writer) and again at 10 (by another, issued later)
    for pfns, ticks in (([2, 3], [12, 11]), ([3, 1], [10, 13])):
        pfns = np.array(pfns)
        log.mark_stamped(pfns, np.array(ticks), pages)
        pages.bump(pfns)
    return pages, log


def test_stamped_marks_answer_as_of_a_view_tick():
    pages, log = _stamped_log()
    probe = np.array([1, 2, 3, 4])
    assert log.dirty_mask(probe).tolist() == [True, True, True, False]
    views = {9: [True, False, False, False], 10: [True, False, True, False],
             12: [True, True, True, False]}
    for tick, expect in views.items():
        log.view_tick = tick
        assert log.dirty_mask(probe).tolist() == expect
    log.view_tick = None
    assert log.peek().tolist() == [1, 2, 3]


def test_stamped_marks_keep_pre_write_versions():
    pages, log = _stamped_log()
    assert pages.read(np.array([2, 3, 4])).tolist() == [2, 3, 1]
    clean_at_9 = np.array([2, 3, 4])
    log.view_tick = 9
    got = log.versions_at(clean_at_9, pages.read(clean_at_9))
    assert got.tolist() == [1, 1, 1]  # both writes to page 3 came later
    log.view_tick = None
    assert log.versions_at(clean_at_9, pages.read(clean_at_9)).tolist() == [2, 3, 1]


def test_stamp_counters_separate_stamped_from_unstamped_marks():
    pages, log = _stamped_log()
    assert log.marked == 5 and log.stamped == 4
    assert log.dirtied == 1 + 2  # page 1 unstamped; pages 2 and 3 fresh


def test_snapshots_exclude_the_transient_stamp_arrays():
    import pickle

    pages, log = _stamped_log()
    blob = pickle.dumps(log)
    assert len(blob) < 16 * 2 + 600  # a bool per page, no tick or version arrays
    back = pickle.loads(blob)
    assert back.peek().tolist() == [1, 2, 3]
    assert back._pre is None and back.view_tick is None
    back.view_tick = 1  # every restored mark lies in the past
    assert back.dirty_mask(np.array([1, 2, 3, 4])).tolist() == [True, True, True, False]
    big = DirtyLog(1 << 16)
    big.enable()
    big.mark_stamped(np.arange(1 << 15), 7, VersionedPages(1 << 16))
    assert len(pickle.dumps(big)) < (1 << 16) * 1.1  # stays bitmap-sized
