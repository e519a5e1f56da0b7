"""Server mechanics: scheduling, rate limits, backpressure, drain."""

import asyncio
import socket
import time
import types

import pytest

from repro.sdk import Client, RateLimited, ServerError
from repro.server import ServerThread
from repro.server.protocol import PROTOCOL_VERSION, decode, encode
from repro.server.server import ClientConnection, ReproServer, TokenBucket


# -- token bucket --------------------------------------------------------


def test_token_bucket_burst_then_refusal():
    bucket = TokenBucket(rate_per_s=0.001, burst=3)
    for _ in range(3):
        ok, retry = bucket.take()
        assert ok and retry == 0.0
    ok, retry = bucket.take()
    assert not ok
    assert retry > 0


def test_token_bucket_refills():
    bucket = TokenBucket(rate_per_s=1000.0, burst=1)
    assert bucket.take()[0]
    assert not bucket.take()[0]
    time.sleep(0.01)
    assert bucket.take()[0]


# -- bounded send buffer / coalescing (deterministic, no sockets) --------


def _bare_connection(limit):
    fake_server = types.SimpleNamespace(rate_per_s=10.0, burst=5,
                                        send_buffer=limit)
    return ClientConnection(fake_server, reader=None, writer=None)


def _unit_event(job, done):
    return {"kind": "event", "job": job,
            "record": {"event": "unit", "schema": 1, "key": f"k{done}",
                       "done": done, "total": 100}}


def test_progress_coalesces_once_buffer_is_full():
    conn = _bare_connection(limit=4)
    for done in range(20):
        conn.push(_unit_event("j1", done))
    assert len(conn._buffer) == 4          # never exceeds the bound
    assert conn.coalesced == 16
    assert conn.max_buffered == 4
    newest = conn._buffer[-1]
    assert newest["record"]["done"] == 19   # latest progress wins
    assert newest["coalesced"] == 16        # and says what it absorbed


def test_coalescing_is_per_job():
    conn = _bare_connection(limit=2)
    conn.push(_unit_event("j1", 0))
    conn.push(_unit_event("j2", 0))
    conn.push(_unit_event("j1", 1))  # coalesces into j1's entry
    conn.push(_unit_event("j2", 1))  # coalesces into j2's entry
    assert len(conn._buffer) == 2
    jobs = {m["job"]: m["record"]["done"] for m in conn._buffer}
    assert jobs == {"j1": 1, "j2": 1}


def test_critical_messages_evict_progress_not_each_other():
    conn = _bare_connection(limit=2)
    conn.push(_unit_event("j1", 0))
    conn.push(_unit_event("j2", 0))
    result = {"kind": "result", "job": "j1", "experiment": "x",
              "data": {}, "execution": {}, "wall_s": 0.1}
    conn.push(result, critical=True)
    assert result in conn._buffer           # terminal message survives
    assert conn.coalesced == 1              # one progress record evicted
    error = {"kind": "error", "error": "x", "detail": "y"}
    conn.push(error, critical=True)
    assert result in conn._buffer and error in conn._buffer


def test_non_progress_overflow_without_progress_to_evict_still_appends():
    conn = _bare_connection(limit=1)
    a = {"kind": "pong"}
    b = {"kind": "pong"}
    conn.push(a, critical=True)
    conn.push(b, critical=True)
    assert list(conn._buffer) == [a, b]  # criticals are never dropped


# -- scheduling ----------------------------------------------------------


def test_priority_ordering():
    srv = ServerThread(workers=0, no_cache=True).start()
    try:
        client = Client(srv.host, srv.port)
        low = client.submit("_srv_stamp", priority=0, seed=1)
        high = client.submit("_srv_stamp", priority=5, seed=2)
        mid = client.submit("_srv_stamp", priority=1, seed=3)

        async def _go():
            srv.server.add_worker()
        srv.call(_go())

        ran_at = {name: job.result().data["ran_at"]
                  for name, job in (("low", low), ("high", high),
                                    ("mid", mid))}
        assert ran_at["high"] < ran_at["mid"] < ran_at["low"]
        client.close()
    finally:
        srv.stop(drain=False)


def test_rate_limit_rejection_is_actionable():
    srv = ServerThread(workers=1, no_cache=True, rate_per_s=0.001,
                       burst=1).start()
    try:
        client = Client(srv.host, srv.port)
        first = client.submit("_srv_stamp")
        with pytest.raises(RateLimited) as excinfo:
            client.submit("_srv_stamp")
        err = excinfo.value
        assert err.error == "rate_limited"
        assert err.retry_after_s > 0
        assert "retry in" in err.detail  # says what to do, not just no
        first.result()  # the accepted job still completes normally
        client.close()
    finally:
        srv.stop(drain=False)


def test_queue_full_rejection():
    srv = ServerThread(workers=0, no_cache=True, max_queue=1).start()
    try:
        client = Client(srv.host, srv.port)
        client.submit("_srv_stamp")
        with pytest.raises(ServerError) as excinfo:
            client.submit("_srv_stamp")
        assert excinfo.value.error == "queue_full"
        client.close()
    finally:
        srv.stop(drain=False)


def test_unknown_experiment_lists_servable_ids():
    srv = ServerThread(workers=0, no_cache=True).start()
    try:
        client = Client(srv.host, srv.port)
        with pytest.raises(ServerError) as excinfo:
            client.submit("nope")
        assert excinfo.value.error == "unknown_experiment"
        assert "fig3" in excinfo.value.detail
        client.close()
    finally:
        srv.stop(drain=False)


# -- raw-protocol behaviour ---------------------------------------------


def _raw_connect(srv):
    sock = socket.create_connection((srv.host, srv.port), timeout=30)
    fh = sock.makefile("rb")
    sock.sendall(encode({"kind": "hello",
                         "protocol": PROTOCOL_VERSION}))
    welcome = decode(fh.readline())
    return sock, fh, welcome


def test_handshake_and_catalog(server):
    sock, fh, welcome = _raw_connect(server)
    assert welcome["kind"] == "welcome"
    assert welcome["protocol"] == PROTOCOL_VERSION
    assert welcome["experiments"]["fig3"] == {
        "title": "Cost of barrier synchronisation"}
    assert welcome["experiments"]["_srv_fast"] == {
        "title": "synthetic fast sweep"}
    sock.close()


def test_protocol_mismatch_is_rejected(server):
    sock = socket.create_connection((server.host, server.port),
                                    timeout=30)
    fh = sock.makefile("rb")
    sock.sendall(encode({"kind": "hello", "protocol": 999}))
    reply = decode(fh.readline())
    assert reply["kind"] == "error"
    assert reply["error"] == "protocol_mismatch"
    assert "999" in reply["detail"]
    sock.close()


def test_bad_message_keeps_connection_usable(server):
    sock, fh, _ = _raw_connect(server)
    sock.sendall(b"not json at all\n")
    reply = decode(fh.readline())
    assert reply["kind"] == "error" and reply["error"] == "bad_message"
    sock.sendall(encode({"kind": "ping"}))
    assert decode(fh.readline())["kind"] == "pong"
    sock.close()


def test_cancel_unknown_job_is_actionable(server):
    sock, fh, _ = _raw_connect(server)
    sock.sendall(encode({"kind": "cancel", "job": "j999999"}))
    reply = decode(fh.readline())
    assert reply["error"] == "unknown_job"
    assert "submitter" in reply["detail"]
    sock.close()


# -- graceful drain ------------------------------------------------------


def test_drain_finishes_accepted_jobs_and_says_bye():
    srv = ServerThread(workers=1, no_cache=True).start()
    try:
        client = Client(srv.host, srv.port)
        jobs = [client.submit("_srv_fast", quick=True, seed=i)
                for i in range(3)]
        srv.call(srv.server.shutdown(drain=True), timeout=120)
        # every accepted job still delivered its result before the bye
        results = [job.result() for job in jobs]
        assert all(r.data["vals"] for r in results)
        assert client.closed or _reads_bye(client)
        with pytest.raises(ServerError):
            client.submit("_srv_fast", quick=True)
        client.close()
    finally:
        srv.stop(drain=False)


def test_close_releases_a_connection_the_server_ended():
    """Reading the server's bye marks a client closed; ``close()`` must
    still release its socket."""
    srv = ServerThread(workers=1, no_cache=True).start()
    try:
        client = Client(srv.host, srv.port)
        srv.call(srv.server.shutdown(drain=True), timeout=120)
        assert _reads_bye(client)
        client.close()
        assert client._sock.fileno() == -1
    finally:
        srv.stop(drain=False)


def test_shutdown_says_bye_to_every_connection_at_once():
    """A client that stopped reading holds its connection's ``flush``
    and ``close`` for 5 s each, so a shutdown that said bye to one
    connection after another would wait that long per stalled client.
    Each patched ``flush`` waits up to 100 loop turns, not a clock, for
    the other connection's to start."""
    conns = [_bare_connection(limit=8) for _ in range(2)]
    entered = []
    seen = {}

    def stall(conn):
        async def flush(timeout=5.0):
            entered.append(conn)
            for _ in range(100):
                if len(entered) == len(conns):
                    break
                await asyncio.sleep(0)
            seen[conn] = len(entered)

        async def close():
            conn.closed = True
        return flush, close

    for conn in conns:
        conn.flush, conn.close = stall(conn)
    server = ReproServer()
    server.connections.update(conns)
    asyncio.run(server.shutdown(drain=False))
    assert seen == {conn: 2 for conn in conns}
    assert all(conn.closed for conn in conns)
    assert [conn._buffer[-1] for conn in conns] == (
        [{"kind": "bye", "reason": "stop"}] * 2)


def _reads_bye(client):
    try:
        client.ping()
    except ServerError:
        pass
    return client.closed


def test_draining_server_rejects_new_submits():
    srv = ServerThread(workers=1, no_cache=True).start()
    try:
        client = Client(srv.host, srv.port)

        async def _set():
            srv.server.draining = True
        srv.call(_set())
        with pytest.raises(ServerError) as excinfo:
            client.submit("_srv_fast", quick=True)
        assert excinfo.value.error == "draining"
        assert "retry" in excinfo.value.detail
        client.close()
    finally:
        srv.stop(drain=False)
