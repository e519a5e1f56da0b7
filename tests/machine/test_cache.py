"""Tests for the direct-mapped cache model."""

import pytest
from hypothesis import given, strategies as st

from repro.core import spp1000
from repro.machine import DirectMappedCache

CFG = spp1000()


@pytest.fixture
def cache():
    return DirectMappedCache(CFG)


def test_geometry(cache):
    assert cache.n_sets == CFG.dcache_bytes // CFG.line_bytes == 32768


def test_miss_then_hit(cache):
    line = 0x1000
    assert not cache.access(line)
    cache.insert(line)
    assert cache.access(line)


def test_line_of_alignment(cache):
    assert cache.line_of(0x1000) == 0x1000
    assert cache.line_of(0x101f) == 0x1000
    assert cache.line_of(0x1020) == 0x1020


def test_insert_requires_alignment(cache):
    with pytest.raises(ValueError):
        cache.insert(0x1001)


def test_direct_mapped_conflict_evicts(cache):
    a = 0x0
    b = a + CFG.dcache_bytes  # same set, different tag
    cache.insert(a)
    victim = cache.insert(b)
    assert victim == a
    assert not cache.contains(a)
    assert cache.contains(b)


def test_reinserting_same_line_is_noop(cache):
    assert cache.insert(0x40) is None   # empty set: no victim
    assert cache.insert(0x40) is None   # same line: no eviction
    assert cache.contains(0x40)


def test_distinct_sets_coexist(cache):
    lines = [i * CFG.line_bytes for i in range(100)]
    for line in lines:
        cache.insert(line)
    assert all(cache.contains(line) for line in lines)
    assert cache.occupancy == 100


def test_invalidate(cache):
    cache.insert(0x80)
    assert cache.invalidate(0x80)
    assert not cache.contains(0x80)
    assert not cache.invalidate(0x80)  # second time: no copy


def test_invalidate_does_not_touch_conflicting_line(cache):
    a, b = 0x0, CFG.dcache_bytes
    cache.insert(a)
    assert not cache.invalidate(b)  # same set, different tag
    assert cache.contains(a)


def test_flush(cache):
    for i in range(10):
        cache.insert(i * CFG.line_bytes)
    cache.flush()
    assert cache.occupancy == 0


@given(st.lists(st.integers(0, 2**22), min_size=1, max_size=300))
def test_contains_iff_most_recent_in_set(addresses):
    """Property: a line is cached iff it was the last line inserted
    into its set — the defining behaviour of a direct-mapped cache."""
    cache = DirectMappedCache(CFG)
    lines = [a - a % CFG.line_bytes for a in addresses]
    last_in_set = {}
    for line in lines:
        cache.insert(line)
        last_in_set[cache.set_of(line)] = line
    for line in lines:
        expected = last_in_set[cache.set_of(line)] == line
        assert cache.contains(line) == expected
