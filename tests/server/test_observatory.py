"""Server observability end to end: the stats verb, trace
propagation, the merged Chrome trace, and the coalesced counter on the
Job handle."""

import json

import pytest

from repro.sdk import Client


# -- the stats verb -------------------------------------------------------


def test_stats_verb_returns_service_state(server):
    with Client(server.host, server.port) as client:
        job = client.submit("_srv_fast", quick=True)
        job.result()
        stats = client.stats()
    assert set(stats) == {"jobs", "connections", "coalesced",
                          "max_buffered", "draining", "workers",
                          "queue_depth", "uptime_s", "recent_jobs"}
    assert stats["jobs"].get("done", 0) >= 1
    assert stats["connections"] >= 1
    assert stats["uptime_s"] >= 0
    assert stats["queue_depth"] == 0
    assert stats["workers"]["total"] == 2
    recent = stats["recent_jobs"]
    assert recent and recent[-1]["id"] == job.id
    assert recent[-1]["status"] == "done"
    assert recent[-1]["trace_id"] == job.trace_id
    assert recent[-1]["wall_s"] is not None


# -- trace propagation ----------------------------------------------------


def test_client_minted_trace_id_reaches_every_leg(server):
    with Client(server.host, server.port) as client:
        job = client.submit("_srv_fast", quick=True)
        assert job.trace_id  # minted at submit, before any event
        records = list(job.events())
        result = job.result()
    # every streamed progress record carries the submit's trace ID
    units = [r for r in records if r.get("event") == "unit"]
    assert units
    for record in units:
        assert record["trace_id"] == job.trace_id
        assert record["job_id"] == job.id
    # the result message carries identity + the server's host spans
    assert result.trace == {"trace_id": job.trace_id, "job_id": job.id}
    origins = {s["origin"] for s in result.host_spans}
    assert {"server", "pool"} <= origins
    names = [s["name"] for s in result.host_spans]
    assert "queued" in names and "run" in names


def test_write_trace_merges_client_server_pool_and_sim(server, tmp_path):
    with Client(server.host, server.port) as client:
        job = client.submit("fig3", quick=True, telemetry=("trace",))
        job.result()
        path = job.write_trace(str(tmp_path / "trace.json"))
    doc = json.loads((tmp_path / "trace.json").read_text())
    assert path == str(tmp_path / "trace.json")
    events = doc["traceEvents"]
    spans = [e for e in events if e.get("ph") != "M"]
    host_pids = {e["pid"] for e in spans if e["pid"] < 10}
    assert host_pids == {0, 1, 2}  # client, server, pool all present
    # simulated spans (B/E pairs from the sim tracer) rode along
    assert any(e["pid"] >= 10 for e in spans)
    # one trace ID on every single span, host and simulated alike
    assert all(e["args"].get("trace_id") == job.trace_id for e in spans)
    assert doc["otherData"]["trace_id"] == job.trace_id
    process_names = {e["args"]["name"] for e in events
                     if e.get("ph") == "M" and e["name"] == "process_name"}
    assert {"host: client", "host: server", "host: pool"} <= process_names
    assert any(name.startswith("sim: ") for name in process_names)


def test_write_trace_before_result_is_actionable(server, tmp_path):
    from repro.sdk import ServerError

    with Client(server.host, server.port) as client:
        job = client.submit("_srv_fast", quick=True)
        with pytest.raises(ServerError, match="no result yet"):
            job.write_trace(str(tmp_path / "early.json"))
        job.result()


# -- coalescing on the Job handle -----------------------------------------


def test_job_coalesced_counter_surfaces(server):
    with Client(server.host, server.port) as client:
        job = client.submit("_srv_fast", quick=True)
        job.result()
    assert isinstance(job.coalesced, int)
    assert job.coalesced >= 0
