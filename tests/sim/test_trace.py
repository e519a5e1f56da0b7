"""Unit tests for the tracer."""

from repro.sim import Tracer


def test_counters_work_even_when_disabled():
    t = Tracer(enabled=False)
    t.emit(1.0, "miss")
    t.emit(2.0, "miss")
    t.emit(3.0, "hit")
    assert t.count("miss") == 2
    assert t.count("hit") == 1
    assert t.count("absent") == 0
    assert t.records == []


def test_records_collected_when_enabled():
    t = Tracer(enabled=True)
    t.emit(1.0, "miss", 0xdead, "fu0")
    recs = t.select("miss")
    assert len(recs) == 1
    assert recs[0].time == 1.0
    assert recs[0].payload == (0xdead, "fu0")


def test_clear_resets_everything():
    t = Tracer(enabled=True)
    t.emit(1.0, "x")
    t.clear()
    assert t.records == [] and t.counters == {}
