"""Property-based tests on the memory substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.address import VARange, coalesce, page_span_inner, page_span_outer
from repro.mem.bitmap import PageBitmap
from repro.mem.constants import PAGE_SIZE
from repro.mem.frame_alloc import FrameAllocator
from repro.mem.page_table import PageTable
from repro.mem.pfn_cache import PfnCache

ranges = st.tuples(
    st.integers(min_value=0, max_value=1 << 24),
    st.integers(min_value=0, max_value=1 << 24),
).map(lambda t: VARange(min(t), max(t)))


@given(ranges)
def test_inner_span_is_subset_of_outer(r):
    inner = page_span_inner(r)
    outer = page_span_outer(r)
    if inner[0] < inner[1]:  # empty spans are trivially contained
        assert outer[0] <= inner[0]
        assert inner[1] <= outer[1]


@given(ranges)
def test_inner_pages_fully_covered(r):
    first, end = page_span_inner(r)
    for vpn in range(first, min(end, first + 4)):
        assert r.contains_range(VARange(vpn * PAGE_SIZE, (vpn + 1) * PAGE_SIZE))


@given(ranges)
def test_outer_pages_cover_range(r):
    first, end = page_span_outer(r)
    if not r.empty:
        assert first * PAGE_SIZE <= r.start
        assert r.end <= end * PAGE_SIZE


@given(ranges, ranges)
def test_subtract_partitions(a, b):
    """subtract(b) pieces plus the intersection exactly tile ``a``."""
    pieces = a.subtract(b)
    cut = a.intersection(b)
    total = sum(p.length for p in pieces) + cut.length
    assert total == a.length
    for p in pieces:
        assert a.contains_range(p)
        assert not p.overlaps(b)


@given(st.lists(ranges, max_size=10))
def test_coalesce_preserves_membership(rs):
    merged = coalesce(rs)
    # Sorted, non-overlapping, non-adjacent.
    for x, y in zip(merged, merged[1:]):
        assert x.end < y.start
    # Membership preserved for sampled points.
    for r in rs:
        if not r.empty:
            assert any(m.contains(r.start) for m in merged)
            assert any(m.contains(r.end - 1) for m in merged)


@given(
    st.lists(st.integers(min_value=0, max_value=255), max_size=64),
    st.lists(st.integers(min_value=0, max_value=255), max_size=64),
)
def test_bitmap_set_clear_converges(to_set, to_clear):
    bm = PageBitmap(256)
    bm.set_pfns(np.array(to_set, dtype=np.int64))
    bm.clear_pfns(np.array(to_clear, dtype=np.int64))
    expected = set(to_set) - set(to_clear)
    assert set(map(int, bm.set_pfns_array())) == expected


@given(st.lists(st.integers(min_value=0, max_value=127), max_size=64))
def test_bitmap_snapshot_clear_roundtrip(pfns):
    bm = PageBitmap(128)
    bm.set_pfns(np.array(pfns, dtype=np.int64))
    got = set(map(int, bm.snapshot_and_clear()))
    assert got == set(pfns)
    assert bm.count() == 0


@settings(max_examples=30)
@given(st.lists(st.tuples(st.booleans(), st.integers(1, 8)), max_size=30))
def test_frame_allocator_conservation(ops):
    """Alloc/free sequences conserve the frame population."""
    fa = FrameAllocator(range(64))
    held: list[int] = []
    for is_alloc, n in ops:
        if is_alloc and fa.free_frames >= n:
            held.extend(int(p) for p in fa.alloc(n))
        elif not is_alloc and held:
            take = held[:n]
            held = held[n:]
            fa.free(np.array(take))
    assert fa.free_frames + fa.allocated_frames == 64
    assert set(held) == set(map(int, fa.allocated_pfns()))


@settings(max_examples=30)
@given(
    st.lists(
        st.tuples(st.integers(0, 60), st.integers(1, 8)),
        min_size=1,
        max_size=12,
    )
)
def test_page_table_walk_matches_per_page_translate(segments):
    """Bulk walks agree with page-by-page translation."""
    pt = PageTable()
    next_pfn = 0
    mapped: dict[int, int] = {}
    for start, n in segments:
        span = range(start, start + n)
        if any(v in mapped for v in span):
            continue
        pfns = np.arange(next_pfn, next_pfn + n, dtype=np.int64)
        pt.map_range(VARange(start * PAGE_SIZE, (start + n) * PAGE_SIZE), pfns)
        for i, v in enumerate(span):
            mapped[v] = next_pfn + i
        next_pfn += n
    walked = pt.walk(VARange(0, 80 * PAGE_SIZE))
    expected = [mapped[v] for v in sorted(mapped)]
    assert list(walked) == expected


@settings(max_examples=30)
@given(
    st.lists(st.integers(0, 63), min_size=1, max_size=32, unique=True),
    st.lists(st.integers(0, 63), max_size=32, unique=True),
)
def test_pfn_cache_take_removes_exactly_queried(recorded, queried):
    cache = PfnCache()
    for vpn in recorded:
        cache.record(vpn, np.array([vpn * 10]))
    hit_vpns = [v for v in queried if v in recorded]
    for vpn in queried:
        got = cache.take_range(VARange(vpn * PAGE_SIZE, (vpn + 1) * PAGE_SIZE))
        if vpn in recorded:
            assert list(got) == [vpn * 10]
        else:
            assert list(got) == []
    remaining = set(recorded) - set(hit_vpns)
    assert set(map(int, cache.cached_vpns())) == remaining


# -- exact O(1) accounting and vectorized views ------------------------------------------

_bump_ops = st.lists(
    st.one_of(
        st.tuples(st.just("bump"), st.lists(st.integers(0, 31), max_size=8)),
        st.tuples(st.just("range"), st.integers(0, 32), st.integers(0, 32)),
        st.tuples(st.just("counts"), st.lists(st.integers(0, 31), max_size=8, unique=True),
                  st.integers(0, 3)),
        st.tuples(st.just("slice"), st.integers(0, 24), st.lists(st.integers(0, 3), max_size=8)),
        st.tuples(st.just("write"), st.lists(st.integers(0, 31), max_size=8, unique=True),
                  st.integers(0, 50)),
        st.tuples(st.just("pickle")),
    ),
    max_size=30,
)


@given(_bump_ops)
@settings(max_examples=150, deadline=None)
def test_total_dirty_events_tracks_the_version_sum(ops):
    import pickle

    from repro.mem.versioned import VersionedPages

    vp = VersionedPages(32)
    for op in ops:
        kind = op[0]
        if kind == "bump":
            vp.bump(np.asarray(op[1], dtype=np.int64))
        elif kind == "range":
            vp.bump_range(min(op[1], op[2]), max(op[1], op[2]))
        elif kind == "counts":
            pfns = np.asarray(op[1], dtype=np.int64)
            vp.bump_counts(pfns, np.full(pfns.size, op[2], dtype=np.int64))
        elif kind == "slice":
            counts = np.asarray(op[2], dtype=np.int64)
            vp.bump_slice_counts(op[1], counts)
        elif kind == "write":
            pfns = np.asarray(op[1], dtype=np.int64)
            vp.write(pfns, np.full(pfns.size, op[2], dtype=np.int64))
        else:
            vp = pickle.loads(pickle.dumps(vp))
        assert vp.total_dirty_events() == int(vp.snapshot().sum())


@given(st.lists(st.tuples(st.booleans(), st.integers(1, 40)), max_size=40),
       st.integers(0, 2**31))
@settings(max_examples=100, deadline=None)
def test_frame_views_match_the_sorted_python_sets(steps, seed):
    rng = np.random.default_rng(seed)
    fa = FrameAllocator(rng.permutation(600).astype(np.int64))
    held: list[int] = []
    for grab, n in steps:
        if grab and n <= fa.free_frames:
            held.extend(fa.alloc(n).tolist())
        elif held:
            k = min(n, len(held))
            idx = rng.choice(len(held), size=k, replace=False)
            fa.free(np.asarray([held[i] for i in idx], dtype=np.int64))
            held = [p for i, p in enumerate(held) if i not in set(idx.tolist())]
        assert np.array_equal(
            fa.free_pfns(), np.asarray(sorted(int(p) for p in fa._free), dtype=np.int64)
        )
        assert np.array_equal(
            fa.allocated_pfns(), np.asarray(sorted(fa._allocated), dtype=np.int64)
        )
        assert fa.free_pfns().dtype == np.int64 == fa.allocated_pfns().dtype


@given(st.lists(st.tuples(st.integers(0, 60), st.integers(1, 12)), min_size=1, max_size=8),
       st.lists(st.tuples(st.integers(0, 80), st.integers(0, 30)), max_size=20),
       st.booleans())
@settings(max_examples=100, deadline=None)
def test_bisected_walk_matches_page_by_page_translation(maps, walks, unmap_some):
    pt = PageTable()
    next_pfn = 1000
    for start, n in maps:
        try:
            pt.map_range(VARange(start * PAGE_SIZE, (start + n) * PAGE_SIZE),
                         np.arange(next_pfn, next_pfn + n))
        except Exception:
            continue  # overlapping request
        next_pfn += n
    if unmap_some and pt.mapped_ranges():
        first = pt.mapped_ranges()[0]
        pt.unmap_range(VARange(first.start, first.start + PAGE_SIZE))
    for start, n in walks:
        expect = [pt.translate(v * PAGE_SIZE) for v in range(start, start + n)
                  if pt.is_mapped(v * PAGE_SIZE)]
        got = pt.walk(VARange(start * PAGE_SIZE, (start + n) * PAGE_SIZE))
        assert got.tolist() == expect
        assert np.array_equal(pt.walk((start, start + n)), got)


def _cover_reference(first, end, ticks):
    lo, hi = int(first.min()), int(end.max())
    counts = np.zeros(hi - lo, dtype=np.int64)
    earliest = np.full(hi - lo, np.iinfo(np.int64).max, dtype=np.int64)
    for f, e, t in zip(first.tolist(), end.tolist(), ticks.tolist()):
        counts[f - lo : e - lo] += 1
        earliest[f - lo : e - lo] = np.minimum(earliest[f - lo : e - lo], t)
    return lo, counts, earliest


@given(st.lists(st.tuples(st.integers(0, 40), st.integers(1, 6), st.integers(0, 9)),
                min_size=1, max_size=10),
       st.booleans())
@settings(max_examples=200, deadline=None)
def test_cover_counts_and_earliest_ticks(spans, chain):
    from repro.mem.address import cover

    spans = sorted(spans) if chain else spans
    first = np.asarray([s for s, _, _ in spans], dtype=np.int64)
    end = first + np.asarray([n for _, n, _ in spans], dtype=np.int64)
    ticks = np.asarray([t for _, _, t in spans], dtype=np.int64)
    if chain:
        # the JVM's bump-pointer shape: each span starts at most one unit
        # before its predecessor ends, in tick order
        for i in range(1, first.size):
            first[i] = max(first[i], end[i - 1] - 1)
            end[i] = max(end[i], first[i] + 1)
        ticks = np.sort(ticks)
    lo, counts, earliest = cover(first, end, ticks)
    ref = _cover_reference(first, end, ticks)
    assert lo == ref[0]
    assert np.array_equal(counts, ref[1])
    assert np.array_equal(earliest, ref[2])
    assert np.array_equal(cover(first, end)[1], ref[1])
