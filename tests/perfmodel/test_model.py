"""Tests for the phase-level execution model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.fem import FEMWorkload, large_problem as fem_large
from repro.apps.nbody import NBodyWorkload, problem_32k
from repro.apps.pic import PICWorkload, small_problem as pic_small
from repro.apps.ppm import TABLE2_PROBLEMS, PPMWorkload
from repro.core import spp1000
from repro.core.units import MIB
from repro.perfmodel import (
    Access,
    LocalityMix,
    Msg,
    PerformanceModel,
    Phase,
    StepWork,
    TeamSpec,
)
from repro.runtime import Placement

CFG = spp1000(2)
MODEL = PerformanceModel(CFG)


def team(n, placement=Placement.HIGH_LOCALITY):
    return TeamSpec(CFG, n, placement)


def simple_step(n_threads, **phase_kwargs):
    defaults = dict(flops=1e6, traffic_bytes=1e6,
                    working_set_bytes=256 * 1024)
    defaults.update(phase_kwargs)
    phase = Phase("work", **defaults)
    return StepWork([[phase] for _ in range(n_threads)])


# -- spill ramp -------------------------------------------------------------

def test_cache_resident_data_has_no_spill():
    assert MODEL.spill_fraction(100 * 1024, Access.STREAM) == 0.0


def test_oversized_working_set_fully_spills():
    assert MODEL.spill_fraction(4 * MIB, Access.STREAM) == 1.0


def test_spill_ramp_is_monotone():
    points = [MODEL.spill_fraction(ws, Access.STREAM)
              for ws in range(0, 4 * MIB, 128 * 1024)]
    assert points == sorted(points)
    assert points[0] == 0.0 and points[-1] == 1.0


def test_random_access_spills_earlier_than_streaming():
    ws = int(0.7 * MIB)
    assert MODEL.spill_fraction(ws, Access.RANDOM) > \
        MODEL.spill_fraction(ws, Access.STREAM)


# -- phase time structure -----------------------------------------------------

def test_flop_bound_phase_time():
    phase = Phase("compute", flops=1e6, traffic_bytes=0.0)
    t = MODEL.phase_time_ns(phase, team(1), 0)
    assert t == pytest.approx(CFG.cycles(1e6 * CFG.flop_cycles))


def test_cache_resident_vs_spilled_factor_about_three():
    """Paper §6: in-cache vs in-memory versions of the same problem can
    differ by a factor of ~3 on a single hypernode."""
    resident = Phase("r", flops=1e6, traffic_bytes=4e6,
                     working_set_bytes=256 * 1024, access=Access.RANDOM)
    spilled = Phase("s", flops=1e6, traffic_bytes=4e6,
                    working_set_bytes=16 * MIB, access=Access.RANDOM)
    t_res = MODEL.phase_time_ns(resident, team(8), 0)
    t_spill = MODEL.phase_time_ns(spilled, team(8), 0)
    ratio = t_spill / t_res
    assert 2.0 <= ratio <= 6.0, f"in-memory/in-cache ratio {ratio:.1f}"


def test_remote_traffic_costs_more_than_local():
    local = Phase("l", traffic_bytes=1e6, working_set_bytes=16 * MIB,
                  locality=LocalityMix(1.0, 0.0, 0.0))
    remote = Phase("r", traffic_bytes=1e6, working_set_bytes=16 * MIB,
                   locality=LocalityMix(0.0, 0.0, 1.0))
    tm = team(16, Placement.UNIFORM)
    t_local = MODEL.phase_time_ns(local, tm, 0)
    t_remote = MODEL.phase_time_ns(remote, tm, 0)
    assert t_remote / t_local > 4.0


def test_random_misses_cost_more_than_streamed():
    stream = Phase("s", traffic_bytes=1e6, working_set_bytes=16 * MIB,
                   access=Access.STREAM)
    rand = Phase("g", traffic_bytes=1e6, working_set_bytes=16 * MIB,
                 access=Access.RANDOM)
    assert MODEL.phase_time_ns(rand, team(1), 0) > \
        2 * MODEL.phase_time_ns(stream, team(1), 0)


def test_messages_add_cost():
    quiet = Phase("q", flops=1e5)
    chatty = Phase("c", flops=1e5, messages=(Msg(8192, remote=True),))
    assert MODEL.phase_time_ns(chatty, team(2), 0) > \
        MODEL.phase_time_ns(quiet, team(2), 0)


def test_contention_inflates_crowded_hypernode():
    phase = Phase("x", traffic_bytes=1e6, working_set_bytes=16 * MIB)
    alone = MODEL.phase_time_ns(phase, team(1), 0)
    crowded = MODEL.phase_time_ns(phase, team(8), 0)
    assert crowded > alone
    assert crowded < 2.0 * alone  # modest, not catastrophic


# -- step / run -----------------------------------------------------------------

def test_step_time_is_critical_path_plus_barrier():
    fast = Phase("fast", flops=1e4)
    slow = Phase("slow", flops=1e6)
    step = StepWork([[slow], [fast]], barriers=0)
    t = MODEL.step_time_ns(step, team(2))
    assert t == pytest.approx(CFG.cycles(1e6 * CFG.flop_cycles))
    with_barrier = StepWork([[slow], [fast]], barriers=1)
    assert MODEL.step_time_ns(with_barrier, team(2)) > t


def test_step_thread_count_must_match_team():
    step = simple_step(4)
    with pytest.raises(ValueError):
        MODEL.step_time_ns(step, team(8))


def test_full_machine_pays_os_interference():
    step15 = simple_step(15)
    step16 = simple_step(16)
    t15 = MODEL.step_time_ns(step15, team(15)) / 15
    t16 = MODEL.step_time_ns(step16, team(16)) / 16
    # per-thread time at 16 is inflated beyond the contention trend
    per_thread_15 = MODEL.step_time_ns(step15, team(15))
    per_thread_16 = MODEL.step_time_ns(step16, team(16))
    assert per_thread_16 > per_thread_15


def test_run_scales_with_repeat():
    step = simple_step(4)
    tm = team(4)
    one = MODEL.run([step], tm, repeat=1)
    ten = MODEL.run([step], tm, repeat=10)
    assert ten.time_ns == pytest.approx(10 * one.time_ns)
    assert ten.flops == pytest.approx(10 * one.flops)
    assert ten.mflops == pytest.approx(one.mflops)


def test_run_rejects_bad_repeat():
    with pytest.raises(ValueError):
        MODEL.run([simple_step(1)], team(1), repeat=0)


def test_parallel_speedup_emerges():
    """A perfectly divisible workload speeds up with threads, sublinearly."""
    total_flops, total_bytes = 8e7, 8e7

    def step(n):
        per = Phase("w", flops=total_flops / n, traffic_bytes=total_bytes / n,
                    working_set_bytes=total_bytes / n)
        return StepWork([[per] for _ in range(n)])

    t1 = MODEL.step_time_ns(step(1), team(1))
    t8 = MODEL.step_time_ns(step(8), team(8))
    speedup = t1 / t8
    assert 5.0 <= speedup <= 8.0, f"8-thread speedup {speedup:.2f}"


# -- one pricing per role -----------------------------------------------------

_CONFIGS = {hn: spp1000(n_hypernodes=hn) for hn in range(1, 17)}
_MODELS = {hn: PerformanceModel(cfg) for hn, cfg in _CONFIGS.items()}


@st.composite
def _mixes(draw):
    private, node, remote = (draw(st.floats(0.0, 1.0)) for _ in range(3))
    total = private + node + remote
    if total == 0.0:
        return LocalityMix()
    return LocalityMix(private / total, node / total, remote / total)


_MSGS = st.builds(Msg, nbytes=st.integers(1, 1 << 20), remote=st.booleans(),
                  kind=st.sampled_from(["send", "recv"]))
_PHASES = st.builds(
    Phase, name=st.sampled_from(["a", "b", "c"]),
    flops=st.floats(0.0, 1e9), traffic_bytes=st.floats(0.0, 1e9),
    working_set_bytes=st.floats(0.0, 64.0 * MIB), locality=_mixes(),
    access=st.sampled_from(list(Access)),
    messages=st.lists(_MSGS, max_size=3).map(tuple),
    remote_reuse=st.floats(0.0, 1.0))


@st.composite
def _shared_steps(draw):
    """A team and a step whose threads pick their phase lists from a
    small pool, so threads share list objects across hypernodes."""
    hns = draw(st.integers(1, 16))
    n = draw(st.integers(1, min(128, 8 * hns)))
    placement = draw(st.sampled_from(list(Placement)))
    pool = draw(st.lists(st.lists(_PHASES, max_size=4), min_size=1,
                         max_size=4))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n,
                          max_size=n))
    barriers = draw(st.integers(0, 3))
    return (hns, TeamSpec(_CONFIGS[hns], n, placement),
            [pool[i] for i in picks], barriers)


@settings(max_examples=60, deadline=None)
@given(_shared_steps())
def test_shared_lists_price_exactly_as_copied_lists(case):
    hns, tm, rows, barriers = case
    model = _MODELS[hns]
    shared = model.step_time_ns(StepWork(rows, barriers), tm)
    copied = model.step_time_ns(StepWork([list(p) for p in rows], barriers),
                                tm)
    assert shared == copied


def _count_pricings(monkeypatch):
    calls = []
    price = PerformanceModel.phase_breakdown

    def counted(self, phase, team, tid):
        calls.append(tid)
        return price(self, phase, team, tid)

    monkeypatch.setattr(PerformanceModel, "phase_breakdown", counted)
    return calls


def test_a_shared_list_is_priced_once_per_hypernode(monkeypatch):
    phases = [Phase("stream", flops=1e6, traffic_bytes=4e6,
                    working_set_bytes=16 * MIB,
                    locality=LocalityMix(0.5, 0.25, 0.25)),
              Phase("gather", traffic_bytes=1e6, working_set_bytes=2 * MIB,
                    access=Access.RANDOM, remote_reuse=0.5),
              Phase("send", messages=(Msg(4096, remote=True),))]
    tm = TeamSpec(_CONFIGS[16], 128)
    calls = _count_pricings(monkeypatch)
    _MODELS[16].step_time_ns(StepWork([phases] * 128), tm)
    assert len(calls) == 16 * len(phases)
    # separate but equal lists are still priced, once per thread
    calls.clear()
    _MODELS[16].step_time_ns(StepWork([list(phases) for _ in range(128)]),
                             tm)
    assert len(calls) == 128 * len(phases)


def _list_objects(step):
    return len({id(phases) for phases in step.thread_phases})


def test_spmd_builders_give_each_role_one_list():
    tm = team(16)
    assert _list_objects(PICWorkload(pic_small(), CFG).shared_step(tm)) == 1
    assert _list_objects(PICWorkload(pic_small(), CFG).pvm_step(tm)) == 1
    ppm = PPMWorkload(TABLE2_PROBLEMS["120x480 / 4x16"], CFG)
    assert _list_objects(ppm.step(tm)) == 1
    # thread 0 carries the tree code's load imbalance
    nbody = NBodyWorkload(problem_32k(), CFG)
    assert _list_objects(nbody.shared_step(tm)) == 2
    assert _list_objects(nbody.shared_step(team(1))) == 1
    # one list per distinct locality mix
    assert _list_objects(FEMWorkload(fem_large(), CFG).step(tm)) == 1
    near = FEMWorkload(fem_large(), CFG, data_placement="near_shared")
    assert _list_objects(near.step(tm)) == 2
