"""SDK end-to-end tests: concurrency, bit-identity, warm cache,
cancellation and backpressure."""

import gc
import json
import socket
import threading
import time
import weakref
from contextlib import ExitStack

import pytest

from repro.core import spp1000
from repro.core.canon import canonical_json
from repro.exec import execute
from repro.exec.events import validate_event
from repro.sdk import Client, JobCancelledError
from repro.server import ServerThread
from repro.server.protocol import PROTOCOL_VERSION, decode, encode

from .conftest import MANY_N


# -- the headline contract: N concurrent clients, bit-identical ----------


def _serial_reference(experiment, quick):
    """What the one-shot CLI would compute: execute() with no cache."""
    result, _report = execute(experiment, spp1000(), jobs=1, quick=quick)
    return canonical_json(result.data)


def test_eight_concurrent_clients_bit_identical(server):
    mix = [("_srv_fast", True), ("_srv_fast", False), ("fig3", True)]
    expected = {(exp, quick): _serial_reference(exp, quick)
                for exp, quick in set(mix)}
    outcomes = {}
    errors = []

    def one_client(idx):
        exp, quick = mix[idx % len(mix)]
        try:
            client = Client(server.host, server.port)
            job = client.submit(exp, quick=quick)
            seen = [record for record in job.events()]
            result = job.result()
            for record in seen:
                validate_event(record)  # shared schema on the wire
            outcomes[idx] = (exp, quick, canonical_json(result.data))
            client.close()
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append((idx, exc))

    threads = [threading.Thread(target=one_client, args=(i,))
               for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
    assert not errors, errors
    assert len(outcomes) == 8
    for exp, quick, payload in outcomes.values():
        assert payload == expected[(exp, quick)]


# -- warm cache ----------------------------------------------------------


def test_warm_cache_resubmit_is_instant_and_identical(server):
    client = Client(server.host, server.port)
    cold = client.submit("_srv_slow").result()
    assert cold.execution["computed"] > 0
    warm = client.submit("_srv_slow").result()
    assert warm.execution["computed"] == 0        # nothing re-simulated
    assert warm.execution["cache_hits"] == cold.execution["computed"]
    assert canonical_json(warm.data) == canonical_json(cold.data)
    client.close()


# -- streaming telemetry -------------------------------------------------


def test_event_stream_matches_progress_schema(server):
    client = Client(server.host, server.port)
    job = client.submit("_srv_fast", quick=True)
    kinds = []
    for record in job.events():
        kinds.append(validate_event(record))
        assert "t_s" in record
    result = job.result()
    assert kinds[0] == "start"
    assert kinds[-1] == "done"
    assert kinds.count("unit") + result.execution["cache_hits"] >= 6
    assert client.list()["_srv_fast"] == {"title": "synthetic fast sweep"}
    assert client.ping() is None
    client.close()


def test_telemetry_blocks_ride_along(server):
    client = Client(server.host, server.port)
    result = client.submit("_srv_fast", quick=True,
                           telemetry=("hostscope",)).result()
    assert "hostscope" in result.blocks
    assert result.manifest is not None
    client.close()


def test_ablations_job_carries_its_telemetry(server):
    client = Client(server.host, server.port)
    result = client.submit("ablations", telemetry=("memscope",)).result()
    client.close()
    assert result.blocks["memscope"]["breakdown"]["total_accesses"] > 0
    assert result.execution["units_planned"] == 6


def _observed_reference(experiment, telemetry):
    """A serial in-process ``execute`` under the same profilers: its
    data, and its profile blocks as they read after the wire's JSON."""
    from repro.obs.scopes import SCOPES

    config = spp1000()
    profilers = {name: SCOPES[name].build(config) for name in telemetry}
    with ExitStack() as stack:
        for name, profiler in profilers.items():
            stack.enter_context(SCOPES[name].install(profiler))
        result, _report = execute(experiment, config, jobs=1, quick=True,
                                  observed=True)
    blocks = {name: SCOPES[name].block(profiler)
              for name, profiler in profilers.items()}
    return canonical_json(result.data), json.loads(json.dumps(blocks))


def test_concurrent_observed_jobs_keep_their_own_profiles(server):
    """Two telemetry-observed jobs run at once on the two workers, one
    of them ``degraded`` with its ring-loss fault plans: each gets the
    profile of its own run, and data bit-identical to a serial run."""
    telemetry = ("memscope", "critscope")
    client = Client(server.host, server.port)
    jobs = {exp: client.submit(exp, quick=True, telemetry=telemetry)
            for exp in ("fig3", "degraded")}
    results = {exp: job.result() for exp, job in jobs.items()}
    client.close()
    for exp, result in results.items():
        data, blocks = _observed_reference(exp, telemetry)
        assert canonical_json(result.data) == data, exp
        assert result.blocks == blocks, exp


# -- cancellation --------------------------------------------------------


def test_cancel_running_job_stops_at_unit_boundary(server):
    client = Client(server.host, server.port)
    job = client.submit("_srv_slow")
    events = job.events()
    next(events)              # start record: the sweep is running
    job.cancel()
    with pytest.raises(JobCancelledError, match="running"):
        job.result()
    # the connection and server stay healthy afterwards
    follow_up = client.submit("_srv_fast", quick=True).result()
    assert follow_up.data["vals"]
    client.close()


def test_cancelled_sweep_resumes_warm(server):
    """Every unit a client saw reported before its cancel is already in
    the cache, so resubmitting the sweep computes only the rest."""
    client = Client(server.host, server.port)
    job = client.submit("_srv_slow")
    seen = 0
    for record in job.events():
        if record["event"] == "unit":
            seen += 1
            if seen == 5:
                break
    job.cancel()
    with pytest.raises(JobCancelledError, match="running"):
        job.result()
    again = client.submit("_srv_slow").result()
    assert again.execution["cache_hits"] >= seen
    assert again.execution["computed"] == (
        again.execution["units_planned"] - again.execution["cache_hits"])
    assert again.data["vals"] == [{"i": i} for i in range(60)]
    client.close()


def test_cancel_queued_job_is_instant():
    srv = ServerThread(workers=0, no_cache=True).start()
    try:
        client = Client(srv.host, srv.port)
        job = client.submit("_srv_fast", quick=True)
        job.cancel()
        with pytest.raises(JobCancelledError, match="queue"):
            job.result()
        client.close()
    finally:
        srv.stop(drain=False)


# -- finished jobs -------------------------------------------------------


def test_client_releases_finished_jobs(server):
    """A job leaves the client once its terminal message is consumed, so
    a long-lived client does not keep every result it fetched.  The
    cyclic collector is off: nothing but reference counts frees them."""
    gc.disable()
    try:
        client = Client(server.host, server.port)
        refs = []
        for _ in range(5):
            job = client.submit("_srv_fast", quick=True)
            assert job.result().data["vals"]
            refs.append(weakref.ref(job))
        del job
        assert client._jobs == {}
        assert [ref() for ref in refs] == [None] * 5
        # cancelling a finished job sends nothing the next call trips on
        done = client.submit("_srv_fast", quick=True)
        done.result()
        done.cancel()
        assert client.submit("_srv_fast", quick=True).result().data["vals"]
        client.close()
    finally:
        gc.enable()


def test_cancel_that_crosses_the_result_is_ignored(server):
    """A cancel sent after the result arrived but before it was read is
    answered with "already finished" once the job is released; that
    reply must not surface in the next call."""
    client = Client(server.host, server.port)
    job = client.submit("_srv_fast", quick=True)
    while not any(m["kind"] == "result" for m in job._inbox):
        client._pump()
    job.cancel()
    job.result()
    assert client.submit("_srv_fast", quick=True).result().data["vals"]
    client.close()


# -- backpressure (integration) -----------------------------------------


def test_slow_consumer_is_coalesced_not_buffered():
    """A client that stops reading must not grow server memory: the
    outbound buffer stays bounded and progress records coalesce."""
    srv = ServerThread(workers=1, no_cache=True, send_buffer=8).start()
    try:
        # a tiny receive window so the server's writer blocks early;
        # set before connect so the handshake already uses it (set
        # afterwards, the drain below waits seconds on TCP's
        # zero-window persist timer)
        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.settimeout(120)
        sock.connect((srv.host, srv.port))
        fh = sock.makefile("rb")
        sock.sendall(encode({"kind": "hello",
                             "protocol": PROTOCOL_VERSION}))
        assert decode(fh.readline())["kind"] == "welcome"
        sock.sendall(encode({"kind": "submit",
                             "experiment": "_srv_many"}))
        # ... and now read NOTHING until the sweep has finished
        deadline = time.monotonic() + 180
        while time.monotonic() < deadline:
            stats = srv.call(_stats(srv))
            jobs = stats["jobs"]
            if jobs.get("done") or jobs.get("failed"):
                break
            time.sleep(0.05)
        stats = srv.call(_stats(srv))
        assert stats["jobs"].get("done") == 1, stats
        assert stats["max_buffered"] <= 8, stats
        assert stats["coalesced"] > 0, stats
        # the stalled client can still drain to the terminal result
        kinds = []
        while True:
            message = decode(fh.readline())
            kinds.append(message["kind"])
            if message["kind"] == "result":
                assert message["data"]["total"] == \
                    sum(range(MANY_N))
                break
        # far fewer than one event per unit made it through: the rest
        # were coalesced server-side (what reached the TCP buffers
        # before the writer blocked still arrives, hence "far fewer",
        # not "exactly the buffer bound")
        assert kinds.count("event") + stats["coalesced"] >= MANY_N
        assert kinds.count("event") < MANY_N // 2
        sock.close()
    finally:
        srv.stop(drain=False)


async def _stats_async(server):
    return server.stats()


def _stats(srv):
    return _stats_async(srv.server)
