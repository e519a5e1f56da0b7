"""Tests for the Chrome trace exporter and its loader."""

import json

from repro.core import spp1000
from repro.obs import chrome_trace, load_trace, write_chrome_trace
from repro.sim import Tracer

CFG = spp1000(2)


def traced_activity() -> Tracer:
    t = Tracer(enabled=True)
    t.begin(100.0, "thread", "runtime", pid=0, tid=3)
    t.emit(120.0, "load.miss.local", 3)
    t.instant(150.0, "barrier.arrive", "runtime", pid=0, tid=3)
    t.end(200.0, "thread", "runtime", pid=0, tid=3)
    t.complete(0.0, 500.0, "push", "perfmodel", pid=1, tid=8,
               args={"pipe_ns": 400.0, "stall_ns": 100.0})
    t.counter(200.0, "misses", {"local": 1})
    return t


def test_chrome_trace_is_valid_json_with_required_fields():
    doc = chrome_trace(traced_activity(), CFG)
    text = json.dumps(doc)  # must serialize
    doc2 = json.loads(text)
    events = doc2["traceEvents"]
    assert events, "no events exported"
    for ev in events:
        for key in ("ph", "ts", "pid", "tid", "name"):
            assert key in ev, f"{key} missing from {ev}"
    assert {e["ph"] for e in events} >= {"M", "B", "E", "i", "X", "C"}


def test_chrome_trace_has_one_track_per_cpu():
    doc = chrome_trace(traced_activity(), CFG)
    thread_meta = [e for e in doc["traceEvents"]
                   if e["ph"] == "M" and e["name"] == "thread_name"]
    assert len(thread_meta) == CFG.n_cpus
    # CPUs grouped into their hypernodes
    per_hn = CFG.n_cpus // CFG.n_hypernodes
    for meta in thread_meta:
        assert meta["pid"] == meta["tid"] // per_hn


def test_chrome_trace_timestamps_are_microseconds():
    doc = chrome_trace(traced_activity(), CFG)
    begin = next(e for e in doc["traceEvents"] if e["ph"] == "B")
    assert begin["ts"] == 0.1  # 100 ns
    complete = next(e for e in doc["traceEvents"] if e["ph"] == "X")
    assert complete["dur"] == 0.5  # 500 ns


def test_legacy_records_ride_along_as_machine_instants():
    doc = chrome_trace(traced_activity(), CFG)
    machine_pid = CFG.n_hypernodes
    recs = [e for e in doc["traceEvents"]
            if e["pid"] == machine_pid and e["ph"] == "i"]
    assert any(e["name"] == "load.miss.local" for e in recs)


def test_load_trace_round_trips_the_chrome_document(tmp_path):
    tracer = traced_activity()
    path = tmp_path / "trace.json"
    write_chrome_trace(tracer, str(path), CFG)
    events = load_trace(str(path))
    assert events == json.loads(path.read_text())["traceEvents"]
    # the document adds metadata tracks on top of the structured events
    assert len(events) > len(tracer.events)
    assert {"thread", "push", "barrier.arrive"} <= {e["name"] for e in events}
