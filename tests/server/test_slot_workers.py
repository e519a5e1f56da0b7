"""Job slots and their worker processes: where a job's units compute,
what the workers hold, and that none outlives its server."""

import multiprocessing
import os
import socket
import sys
import threading

import pytest

from repro.core import spp1000
from repro.core.canon import canonical_json
from repro.exec import execute
from repro.sdk import Client
from repro.server import ServerThread
from repro.server.protocol import PROTOCOL_VERSION, decode, encode


def _children():
    return {proc.pid for proc in multiprocessing.active_children()}


@pytest.mark.parametrize("drain", [True, False])
def test_concurrent_cold_jobs_compute_in_slot_workers(cache_dir, drain):
    """Two clients' cold jobs run at once, each in its slot's worker
    process, and return the serial data; stopping the server stops the
    workers, with or without a drain."""
    before = _children()
    serial = {exp: canonical_json(execute(exp, spp1000(), quick=True)[0].data)
              for exp in ("fig2", "fig3")}
    srv = ServerThread(workers=2, cache_dir=cache_dir).start()
    results = {}

    def one_client(exp):
        with Client(srv.host, srv.port) as client:
            results[exp] = client.submit(exp, quick=True).result()

    try:
        threads = [threading.Thread(target=one_client, args=(exp,))
                   for exp in serial]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert len(_children() - before) >= 1
        if not drain:  # stop while a job is running
            client = Client(srv.host, srv.port)
            next(client.submit("_srv_slow").events())
    finally:
        srv.stop(drain=drain)
    for exp, result in results.items():
        assert canonical_json(result.data) == serial[exp]
        timings = result.execution["unit_timings"]
        assert timings and {t["where"] for t in timings} == {"worker"}
    assert _children() == before


def _open_sockets(pid):
    fd_dir = f"/proc/{pid}/fd"
    sockets = []
    for name in os.listdir(fd_dir):
        try:
            target = os.readlink(os.path.join(fd_dir, name))
        except OSError:
            continue
        if target.startswith("socket:"):
            sockets.append(target)
    return sockets


def test_slot_worker_holds_no_server_socket(cache_dir):
    """A connection open when a slot's worker forks is closed by the
    server with a FIN the client reads, while the worker lives."""
    before = _children()
    srv = ServerThread(workers=1, cache_dir=cache_dir).start()
    try:
        bystander = socket.create_connection((srv.host, srv.port),
                                             timeout=30)
        with Client(srv.host, srv.port) as client:
            client.submit("_srv_fast", quick=True).result()
        workers = _children() - before
        assert len(workers) == 1  # forked while the bystander was open
        # a bad handshake makes the server close the bystander
        bystander.sendall(encode({"kind": "hello", "protocol": 999}))
        fh = bystander.makefile("rb")
        assert decode(fh.readline())["error"] == "protocol_mismatch"
        assert fh.readline() == b""  # EOF, not a timeout
        assert _children() - before == workers  # the worker still lives
        if sys.platform.startswith("linux"):
            for pid in workers:
                assert _open_sockets(pid) == []
        bystander.close()
    finally:
        srv.stop(drain=False)
    assert _children() == before


def test_observed_and_multi_process_jobs_leave_the_slot_worker_unstarted(
        cache_dir):
    """A telemetry-observed job computes in the slot's thread and a
    ``jobs=2`` job in a pool of its own, so neither starts the slot's
    worker."""
    before = _children()
    srv = ServerThread(workers=1, cache_dir=cache_dir).start()
    try:
        with Client(srv.host, srv.port) as client:
            observed = client.submit("_srv_fast", quick=True, seed=1,
                                     telemetry=("hostscope",)).result()
            pooled = client.submit("_srv_fast", quick=True, seed=2,
                                   jobs=2).result()
        assert _children() == before
    finally:
        srv.stop(drain=False)
    assert {t["where"] for t in observed.execution["unit_timings"]} == {
        "local"}
    assert {t["where"] for t in pooled.execution["unit_timings"]} == {
        "worker"}


def test_finished_jobs_leave_the_server_but_stay_counted(cache_dir):
    srv = ServerThread(workers=1, cache_dir=cache_dir, rate_per_s=1000.0,
                       burst=100).start()
    try:
        with Client(srv.host, srv.port) as client:
            for _ in range(30):
                client.submit("_srv_fast", quick=True).result()
            stats = client.stats()
        assert stats["jobs"] == {"done": 30}
        assert len(stats["recent_jobs"]) == 20
        assert len(srv.server.jobs) <= 20
        # a job that has left the window cannot be cancelled
        sock = socket.create_connection((srv.host, srv.port), timeout=30)
        fh = sock.makefile("rb")
        sock.sendall(encode({"kind": "hello", "protocol": PROTOCOL_VERSION}))
        decode(fh.readline())
        sock.sendall(encode({"kind": "cancel", "job": "j000001"}))
        assert decode(fh.readline())["error"] == "unknown_job"
        sock.close()
    finally:
        srv.stop(drain=False)
