"""Integration tests for PVM send/recv semantics and costs."""

import pytest

from repro import Machine, spp1000
from repro.core.units import to_us
from repro.pvm import ANY_SOURCE, ANY_TAG, PvmSystem
from repro.runtime import Placement, Runtime


def make_pvm(n_hypernodes=2):
    return PvmSystem(Runtime(Machine(spp1000(n_hypernodes))))


def test_send_recv_delivers_payload():
    pvm = make_pvm()

    def body(task, tid):
        if tid == 0:
            yield from task.send(1, {"data": [1, 2, 3]}, nbytes=24)
            return None
        payload = yield from task.recv(0)
        return payload

    results = pvm.run_tasks(2, body)
    assert results[1] == {"data": [1, 2, 3]}


def test_recv_blocks_until_message_arrives():
    pvm = make_pvm()
    arrival = {}

    def body(task, tid):
        if tid == 0:
            yield task.env.compute(100_000)  # 1 ms
            yield from task.send(1, "late", 8)
            return None
        payload = yield from task.recv(0)
        arrival["t"] = task.env.now
        return payload

    results = pvm.run_tasks(2, body)
    assert results[1] == "late"
    assert arrival["t"] >= 1_000_000


def test_messages_from_same_sender_arrive_in_order():
    pvm = make_pvm()

    def body(task, tid):
        if tid == 0:
            for i in range(5):
                yield from task.send(1, i, 8, tag=1)
            return None
        got = []
        for _ in range(5):
            got.append((yield from task.recv(0, tag=1)))
        return got

    results = pvm.run_tasks(2, body)
    assert results[1] == [0, 1, 2, 3, 4]


def test_tag_matching_skips_nonmatching_messages():
    pvm = make_pvm()

    def body(task, tid):
        if tid == 0:
            yield from task.send(1, "wrong", 8, tag=1)
            yield from task.send(1, "right", 8, tag=2)
            return None
        first = yield from task.recv(0, tag=2)
        second = yield from task.recv(0, tag=1)
        return [first, second]

    results = pvm.run_tasks(2, body)
    assert results[1] == ["right", "wrong"]


def test_any_source_wildcard():
    pvm = make_pvm()

    def body(task, tid):
        if tid in (0, 1):
            yield from task.send(2, f"from-{tid}", 8)
            return None
        a = yield from task.recv(ANY_SOURCE, ANY_TAG)
        b = yield from task.recv(ANY_SOURCE, ANY_TAG)
        return sorted([a, b])

    results = pvm.run_tasks(3, body)
    assert results[2] == ["from-0", "from-1"]


def test_unknown_task_rejected():
    pvm = make_pvm()

    def body(task, tid):
        if tid == 0:
            yield from task.send(99, "x", 8)
        return None
        yield

    with pytest.raises(KeyError):
        pvm.run_tasks(2, body)


def test_message_counters():
    pvm = make_pvm()

    def body(task, tid):
        if tid == 0:
            yield from task.send(1, "x", 8)
        else:
            yield from task.recv(0)
        return None

    pvm.run_tasks(2, body)
    assert pvm.task(0).sent_messages == 1
    assert pvm.task(1).received_messages == 1


# ---------------------------------------------------------------------------
# cost structure (paper Fig 4)
# ---------------------------------------------------------------------------

def round_trip_us(nbytes, placement, reps=4):
    pvm = make_pvm()
    times = []

    def body(task, tid):
        if tid == 0:
            yield from task.send(1, b"", nbytes)
            yield from task.recv(1)
            for _ in range(reps):
                t0 = task.env.now
                yield from task.send(1, b"", nbytes)
                yield from task.recv(1)
                times.append(task.env.now - t0)
        else:
            for _ in range(reps + 1):
                yield from task.recv(0)
                yield from task.send(0, b"", nbytes)
        return None

    pvm.run_tasks(2, body, placement)
    return to_us(min(times))


def test_local_round_trip_order_of_30us():
    rt = round_trip_us(64, Placement.HIGH_LOCALITY)
    assert 10.0 <= rt <= 60.0, f"local RT {rt:.1f} us"


def test_global_to_local_ratio_about_2_3():
    local = round_trip_us(64, Placement.HIGH_LOCALITY)
    globl = round_trip_us(64, Placement.UNIFORM)
    ratio = globl / local
    assert 1.7 <= ratio <= 3.2, f"global/local RT ratio {ratio:.2f}"


def test_under_8kb_round_trip_roughly_constant():
    small = round_trip_us(64, Placement.HIGH_LOCALITY)
    at_8k = round_trip_us(8192, Placement.HIGH_LOCALITY)
    assert at_8k / small < 2.5


def test_knee_above_8kb():
    # growth rate accelerates sharply past the fast-buffer boundary
    r8 = round_trip_us(8192, Placement.HIGH_LOCALITY)
    r16 = round_trip_us(16384, Placement.HIGH_LOCALITY)
    r4 = round_trip_us(4096, Placement.HIGH_LOCALITY)
    below_knee_growth = r8 / r4
    at_knee_growth = r16 / r8
    assert at_knee_growth > 1.5 * below_knee_growth


def test_growth_is_superlinear_in_pages_beyond_knee():
    r16 = round_trip_us(16384, Placement.HIGH_LOCALITY)
    r64 = round_trip_us(65536, Placement.HIGH_LOCALITY)
    assert r64 > 2.5 * r16
