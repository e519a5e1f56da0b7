"""Tests for workload characterisation dataclasses."""

import pytest

from repro.core import spp1000
from repro.perfmodel import Access, LocalityMix, Msg, Phase, StepWork, TeamSpec
from repro.runtime import Placement


def test_locality_mix_must_sum_to_one():
    LocalityMix(0.5, 0.3, 0.2)  # fine
    with pytest.raises(ValueError):
        LocalityMix(0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        LocalityMix(1.5, -0.5, 0.0)


def test_phase_rejects_negative_quantities():
    with pytest.raises(ValueError):
        Phase("x", flops=-1)
    with pytest.raises(ValueError):
        Phase("x", traffic_bytes=-1)


def test_msg_validation():
    Msg(64, remote=True)
    with pytest.raises(ValueError):
        Msg(0, remote=False)
    with pytest.raises(ValueError):
        Msg(64, remote=False, kind="broadcast")


def test_stepwork_totals():
    p = Phase("a", flops=100.0)
    step = StepWork([[p, p], [p]])
    assert step.n_threads == 2
    assert step.total_flops == 300.0


def test_teamspec_topology_queries():
    team = TeamSpec(spp1000(2), 4, Placement.UNIFORM)
    assert team.cpus == [0, 8, 1, 9]
    assert team.hypernodes == [0, 1]
    assert team.n_hypernodes_used == 2
    assert team.threads_on_hypernode(0) == 2
    assert team.hypernode_of_thread(1) == 1


def test_teamspec_high_locality_single_node():
    team = TeamSpec(spp1000(2), 8, Placement.HIGH_LOCALITY)
    assert team.n_hypernodes_used == 1
    assert team.threads_on_hypernode(0) == 8
    assert team.threads_on_hypernode(1) == 0


def test_teamspec_geometry_is_computed_once_per_team(monkeypatch):
    from repro.perfmodel import phase

    calls = []
    assign = phase.assign
    monkeypatch.setattr(phase, "assign",
                        lambda *a: calls.append(a) or assign(*a))
    team = TeamSpec(spp1000(2), 12)
    for _ in range(3):
        assert team.hypernodes == [0, 1]
        assert team.threads_on_hypernode(1) == 4
        assert team.hypernode_of_thread(11) == 1
    assert len(calls) == 1


def test_teamspec_equality_hash_and_pickle_ignore_the_cache():
    import pickle

    fresh, used = TeamSpec(spp1000(2), 12), TeamSpec(spp1000(2), 12)
    assert used.n_hypernodes_used == 2
    assert used == fresh and hash(used) == hash(fresh)
    assert pickle.dumps(used) == pickle.dumps(fresh)
    clone = pickle.loads(pickle.dumps(used))
    assert clone == used and clone.cpus == used.cpus


def test_oversubscribed_team_raises_on_every_access():
    team = TeamSpec(spp1000(2), 17)
    for _ in range(2):
        with pytest.raises(ValueError, match="do not fit"):
            team.n_hypernodes_used
