"""Tests for the memory-class placement ablation."""

import pytest

from repro.apps.fem import FEMWorkload, large_problem
from repro.core import spp1000
from repro.experiments import run_experiment


@pytest.fixture(scope="module")
def memclass():
    return run_experiment("memclass")


def idx(memclass, p):
    return memclass.data["processors"].index(p)


def test_three_placements_compared(memclass):
    assert set(memclass.data) - {"processors"} == \
        {"far_shared", "near_shared", "block_shared"}


def test_identical_on_one_hypernode(memclass):
    i8 = idx(memclass, 8)
    rates = {k: v[i8] for k, v in memclass.data.items()
             if k != "processors"}
    assert len({round(r, 6) for r in rates.values()}) == 1


def test_block_shared_removes_the_dip(memclass):
    """The unavailable mode would have fixed the Fig 7 anomaly."""
    block = memclass.data["block_shared"]
    assert block[idx(memclass, 9)] > block[idx(memclass, 8)]
    far = memclass.data["far_shared"]
    assert far[idx(memclass, 9)] < far[idx(memclass, 8)]


def test_placement_ordering_beyond_one_hypernode(memclass):
    for p in (9, 12, 16):
        i = idx(memclass, p)
        assert memclass.data["block_shared"][i] > \
            memclass.data["far_shared"][i] > \
            memclass.data["near_shared"][i]


def test_unknown_placement_rejected():
    with pytest.raises(ValueError):
        FEMWorkload(large_problem(), spp1000(), data_placement="magic")


def test_one_hypernode_sweeps_only_the_counts_that_fit():
    """At one hypernode (8 CPUs) the sweep plans and assembles its 8-CPU
    point instead of raising on 9 threads."""
    from repro.exec import execute

    result, _report = execute("memclass", spp1000(1), quick=True)
    assert result.data["processors"] == [8]
    assert all(len(result.data[p]) == 1 for p in FEMWorkload.PLACEMENTS)
