"""Sync and async clients for the repro.server NDJSON protocol.

Both clients multiplex: one connection can have many jobs in flight,
and the server interleaves their ``event`` streams.  The demultiplexer
is the same on both sides of the sync/async split — messages carrying a
``job`` id route to that job's inbox; replies to a ``submit`` are
matched by ``tag`` (the SDK auto-tags submits it sends untagged);
anything else is a connection-level error and raises.

Every submit mints an end-to-end trace ID
(:func:`repro.obs.tracectx.mint_trace_id`) that the server carries
through its queue, the exec pool's unit progress records, and the
result; ``Job.trace_id`` exposes it, ``Job.coalesced`` counts the
progress records a slow consumer missed, and ``Job.write_trace`` saves
one Chrome trace covering client → server → pool → simulated time.
"""

from __future__ import annotations

import json
import socket
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..obs.tracectx import TraceContext, stitch_chrome_trace, \
    write_chrome_json

from ..server.protocol import (
    DEFAULT_PORT,
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode,
    encode,
    validate_message,
)

__all__ = ["Client", "AsyncClient", "Job", "AsyncJob", "JobResult",
           "ServerError", "RateLimited", "JobFailed",
           "JobCancelledError"]


class ServerError(RuntimeError):
    """The server rejected a request; ``detail`` is one actionable line."""

    def __init__(self, error: str, detail: str, **extra):
        super().__init__(f"{error}: {detail}")
        self.error = error
        self.detail = detail
        self.extra = extra


class RateLimited(ServerError):
    """Submit rejected by the per-client rate limit.

    ``retry_after_s`` says how long to back off before resubmitting.
    """

    def __init__(self, error: str, detail: str, **extra):
        super().__init__(error, detail, **extra)
        self.retry_after_s = float(extra.get("retry_after_s") or 0.0)


class JobFailed(ServerError):
    """The job ran and failed (unit failures, bad parameters, ...)."""


class JobCancelledError(ServerError):
    """The job was cancelled before producing a result."""


@dataclass
class JobResult:
    """A completed job: canonical result data plus execution accounting."""

    experiment: str
    data: Dict
    execution: Dict
    wall_s: float
    blocks: Optional[Dict] = None
    manifest: Optional[Dict] = None
    tag: Optional[str] = None
    #: the job's end-to-end trace identity (``{"trace_id", "job_id"}``)
    trace: Optional[Dict] = None
    #: server-side host spans (queued / run / per-unit) for stitching
    host_spans: List[Dict] = field(default_factory=list)


def _error_from(message: Dict) -> ServerError:
    error = message.get("error", "error")
    detail = message.get("detail", "")
    extra = {k: v for k, v in message.items()
             if k not in ("kind", "error", "detail")}
    if error == "rate_limited":
        return RateLimited(error, detail, **extra)
    return ServerError(error, detail, **extra)


def _submit_message(experiment: str, *, quick: bool, jobs: int,
                    seed: Optional[int], hypernodes: int, priority: int,
                    telemetry: Tuple[str, ...], tag: str,
                    trace: Optional[Dict] = None) -> Dict:
    message = {"kind": "submit", "experiment": experiment, "tag": tag,
               "priority": priority}
    if quick:
        message["quick"] = True
    if jobs != 1:
        message["jobs"] = jobs
    if seed is not None:
        message["seed"] = seed
    if hypernodes != 2:
        message["hypernodes"] = hypernodes
    if telemetry:
        message["telemetry"] = list(telemetry)
    if trace:
        message["trace"] = trace
    return message


def _result_from(message: Dict) -> JobResult:
    return JobResult(experiment=message["experiment"],
                     data=message["data"],
                     execution=message["execution"],
                     wall_s=message["wall_s"],
                     blocks=message.get("blocks"),
                     manifest=message.get("manifest"),
                     tag=message.get("tag"),
                     trace=message.get("trace"),
                     host_spans=list(message.get("host_spans") or ()))


# ---------------------------------------------------------------------
# synchronous client
# ---------------------------------------------------------------------

class Job:
    """Handle for one submitted job on a :class:`Client`."""

    def __init__(self, client: "Client", job_id: str, experiment: str,
                 ctx: Optional[TraceContext] = None):
        self.id = job_id
        self.experiment = experiment
        #: the end-to-end trace ID this submit minted
        self.trace_id = ctx.trace_id if ctx is not None else None
        #: progress records the server merged/dropped for this job
        #: because this client consumed too slowly (accumulated from
        #: the ``coalesced`` counts riding the event stream)
        self.coalesced = 0
        self._client = client
        self._ctx = ctx if ctx is not None else TraceContext(
            job_id=job_id, origin="client")
        self._submitted_epoch = time.time()
        self._inbox: deque = deque()
        self._terminal: Optional[Dict] = None

    def events(self) -> Iterator[Dict]:
        """Yield telemetry records as they stream in; returns at the
        job's terminal message (which :meth:`result` then consumes)."""
        while True:
            message = self._next_message()
            if message is None:
                return
            yield message

    def result(self) -> JobResult:
        """Block until the job finishes; drains any unread events.

        Raises :class:`JobCancelledError` on a cancel,
        :class:`JobFailed` on a failed run.
        """
        for _ in self.events():
            pass
        message = self._terminal
        if message["kind"] == "result":
            return _result_from(message)
        if message["kind"] == "cancelled":
            raise JobCancelledError(
                "cancelled", f"job {self.id} was cancelled in the "
                f"{message['where']}")
        raise _job_failed(message)

    def cancel(self) -> None:
        """Ask the server to cancel this job (instant if still queued,
        next unit boundary if running)."""
        self._client._send({"kind": "cancel", "job": self.id})

    # -- plumbing ------------------------------------------------------

    def _next_message(self) -> Optional[Dict]:
        """One event record, or None once the terminal message arrived."""
        while True:
            if self._inbox:
                message = self._inbox.popleft()
            elif self._terminal is not None:
                return None
            else:
                self._client._pump()
                continue
            if message["kind"] == "event":
                record = dict(message["record"])
                if "coalesced" in message:
                    record["coalesced"] = message["coalesced"]
                    self.coalesced += message["coalesced"]
                return record
            self._terminal = message
            self._ctx.add_span("await result", self._submitted_epoch,
                               time.time(), cat="client",
                               origin="client", outcome=message["kind"])
            return None

    def write_trace(self, path: str) -> str:
        """Write the job's stitched Chrome trace to ``path``.

        One file, one ``trace_id``: the client's submit/await spans,
        the server's queue/run/unit spans from the result message, and
        — when the job was submitted with ``telemetry=("trace",)`` —
        the run's simulated-time spans.  Requires a finished job
        (:meth:`result` first).
        """
        message = self._terminal
        if message is None or message["kind"] != "result":
            raise ServerError(
                "no_result", f"job {self.id} has no result yet; call "
                "result() before write_trace()")
        ctx = TraceContext(trace_id=self.trace_id or "",
                           job_id=self.id, origin="client")
        ctx.spans = list(self._ctx.spans)
        ctx.extend_from_wire(message.get("host_spans"))
        sim_doc = (message.get("blocks") or {}).get("trace")
        doc = stitch_chrome_trace(ctx.trace_id, ctx.spans, sim_doc,
                                  job_id=self.id)
        write_chrome_json(doc, path)
        return path


def _job_failed(message: Dict) -> ServerError:
    exc = _error_from(message)
    return JobFailed(exc.error, exc.detail, **exc.extra)


class Client:
    """Synchronous SDK client (plain sockets, stdlib only)."""

    def __init__(self, host: str = "127.0.0.1", port: int = DEFAULT_PORT,
                 *, timeout: float = 600.0):
        self._sock = socket.create_connection((host, port),
                                              timeout=timeout)
        self._fh = self._sock.makefile("rb")
        self._jobs: Dict[str, Job] = {}
        self._pending_tags: Dict[str, Optional[Dict]] = {}
        self._tag_seq = 0
        self.closed = False
        self._send({"kind": "hello", "protocol": PROTOCOL_VERSION,
                    "client": "repro.sdk/1"})
        welcome = self._read_message()
        if welcome["kind"] == "error":
            raise _error_from(welcome)
        #: the server's experiment catalog (id -> title/units/servable)
        self.experiments = welcome["experiments"]
        self.server = welcome["server"]

    # -- public API ----------------------------------------------------

    def submit(self, experiment: str, *, quick: bool = False,
               jobs: int = 1, seed: Optional[int] = None,
               hypernodes: int = 2, priority: int = 0,
               telemetry: Tuple[str, ...] = (),
               tag: Optional[str] = None) -> Job:
        """Submit one job; returns its :class:`Job` handle.

        Raises :class:`RateLimited` / :class:`ServerError` if the
        server rejects the submission.
        """
        self._tag_seq += 1
        wire_tag = tag if tag is not None else f"_sdk{self._tag_seq}"
        ctx = TraceContext(origin="client")
        self._pending_tags[wire_tag] = None
        t_submit = time.time()
        self._send(_submit_message(
            experiment, quick=quick, jobs=jobs, seed=seed,
            hypernodes=hypernodes, priority=priority,
            telemetry=tuple(telemetry), tag=wire_tag,
            trace=ctx.to_wire()))
        while self._pending_tags.get(wire_tag) is None:
            self._pump()
        reply = self._pending_tags.pop(wire_tag)
        if reply["kind"] == "error":
            raise _error_from(reply)
        ctx.job_id = reply["job"]
        ctx.add_span("submit", t_submit, time.time(), cat="client",
                     experiment=experiment)
        job = Job(self, reply["job"], reply["experiment"], ctx)
        self._jobs[job.id] = job
        return job

    def list(self) -> Dict[str, Dict]:
        """The server's live experiment catalog."""
        self._send({"kind": "list"})
        message = self._wait_for_kind("experiments")
        return message["experiments"]

    def stats(self) -> Dict[str, object]:
        """Live server stats: job counts by status, queue depth, worker
        occupancy, recent jobs, and a full metrics snapshot (what
        ``repro top`` polls)."""
        self._send({"kind": "stats"})
        return self._wait_for_kind("stats")["stats"]

    def ping(self) -> None:
        self._send({"kind": "ping"})
        self._wait_for_kind("pong")

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            try:
                self._fh.close()
                self._sock.close()
            except OSError:
                pass

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- demultiplexer -------------------------------------------------

    def _send(self, message: Dict) -> None:
        if self.closed:
            raise ServerError("closed", "connection is closed; create "
                              "a new Client")
        try:
            self._sock.sendall(encode(message))
        except OSError as exc:
            self.closed = True
            raise ServerError("closed",
                              f"connection lost: {exc}") from None

    def _read_message(self) -> Dict:
        line = self._fh.readline(MAX_LINE_BYTES + 2)
        if not line:
            self.closed = True
            raise ServerError("closed", "server closed the connection")
        message = decode(line)
        validate_message(message, side="server")
        return message

    def _route(self, message: Dict) -> Optional[Dict]:
        """File a message into the right inbox; returns it when it is
        a direct reply the caller should look at (or a stray)."""
        kind = message["kind"]
        if kind == "bye":
            self.closed = True
            return None
        tag = message.get("tag")
        if tag in self._pending_tags and kind in ("accepted", "error"):
            self._pending_tags[tag] = message
            return None
        job = self._jobs.get(message.get("job"))
        if job is not None:
            job._inbox.append(message)
            return None
        return message

    def _pump(self) -> None:
        """Read one message and route it.  Connection-level errors
        raise here, in whichever caller happened to be pumping."""
        stray = self._route(self._read_message())
        if stray is not None and stray["kind"] == "error":
            raise _error_from(stray)

    def _wait_for_kind(self, kind: str) -> Dict:
        while True:
            message = self._read_message()
            if message["kind"] == kind:
                return message
            stray = self._route(message)
            if stray is not None and stray["kind"] == "error":
                raise _error_from(stray)


# ---------------------------------------------------------------------
# asyncio client
# ---------------------------------------------------------------------

class AsyncJob:
    """Handle for one submitted job on an :class:`AsyncClient`."""

    def __init__(self, client: "AsyncClient", job_id: str,
                 experiment: str, ctx: Optional[TraceContext] = None):
        import asyncio

        self.id = job_id
        self.experiment = experiment
        self.trace_id = ctx.trace_id if ctx is not None else None
        self.coalesced = 0
        self._ctx = ctx if ctx is not None else TraceContext(
            job_id=job_id, origin="client")
        self._submitted_epoch = time.time()
        self._client = client
        self._inbox: "asyncio.Queue" = asyncio.Queue()
        self._terminal: Optional[Dict] = None

    async def events(self):
        """Async-iterate telemetry records until the terminal message."""
        while True:
            if self._terminal is not None:
                return
            message = await self._inbox.get()
            if message["kind"] == "event":
                record = dict(message["record"])
                if "coalesced" in message:
                    record["coalesced"] = message["coalesced"]
                    self.coalesced += message["coalesced"]
                yield record
            else:
                self._terminal = message
                self._ctx.add_span("await result", self._submitted_epoch,
                                   time.time(), cat="client",
                                   origin="client",
                                   outcome=message["kind"])
                return

    write_trace = Job.write_trace  # same stitching, sync file write

    async def result(self) -> JobResult:
        async for _ in self.events():
            pass
        message = self._terminal
        if message["kind"] == "result":
            return _result_from(message)
        if message["kind"] == "cancelled":
            raise JobCancelledError(
                "cancelled", f"job {self.id} was cancelled in the "
                f"{message['where']}")
        raise _job_failed(message)

    async def cancel(self) -> None:
        await self._client._send({"kind": "cancel", "job": self.id})


class AsyncClient:
    """Asyncio SDK client; create with :meth:`connect`."""

    def __init__(self):
        self._reader = None
        self._writer = None
        self._jobs: Dict[str, AsyncJob] = {}
        self._pending: Dict[str, "object"] = {}
        self._waiters: Dict[str, List] = {}
        self._tag_seq = 0
        self._reader_task = None
        self.closed = False
        self.experiments: Dict[str, Dict] = {}
        self.server = ""

    @classmethod
    async def connect(cls, host: str = "127.0.0.1",
                      port: int = DEFAULT_PORT) -> "AsyncClient":
        import asyncio

        self = cls()
        self._reader, self._writer = await asyncio.open_connection(
            host, port, limit=MAX_LINE_BYTES)
        await self._send({"kind": "hello", "protocol": PROTOCOL_VERSION,
                          "client": "repro.sdk/1"})
        line = await self._reader.readline()
        if not line:
            raise ServerError("closed", "server closed the connection "
                              "during the handshake")
        welcome = decode(line)
        validate_message(welcome, side="server")
        if welcome["kind"] == "error":
            raise _error_from(welcome)
        self.experiments = welcome["experiments"]
        self.server = welcome["server"]
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_loop())
        return self

    async def submit(self, experiment: str, *, quick: bool = False,
                     jobs: int = 1, seed: Optional[int] = None,
                     hypernodes: int = 2, priority: int = 0,
                     telemetry: Tuple[str, ...] = (),
                     tag: Optional[str] = None) -> AsyncJob:
        import asyncio

        self._tag_seq += 1
        wire_tag = tag if tag is not None else f"_sdk{self._tag_seq}"
        ctx = TraceContext(origin="client")
        future = asyncio.get_running_loop().create_future()
        self._pending[wire_tag] = (future, ctx)
        t_submit = time.time()
        await self._send(_submit_message(
            experiment, quick=quick, jobs=jobs, seed=seed,
            hypernodes=hypernodes, priority=priority,
            telemetry=tuple(telemetry), tag=wire_tag,
            trace=ctx.to_wire()))
        reply = await future
        if reply["kind"] == "error":
            raise _error_from(reply)
        ctx.add_span("submit", t_submit, time.time(), cat="client",
                     experiment=experiment)
        return self._jobs[reply["job"]]

    async def list(self) -> Dict[str, Dict]:
        return (await self._request("list", "experiments"))["experiments"]

    async def stats(self) -> Dict[str, object]:
        """Live server stats (see :meth:`Client.stats`)."""
        return (await self._request("stats", "stats"))["stats"]

    async def ping(self) -> None:
        await self._request("ping", "pong")

    async def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except Exception:
                pass
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (OSError, ConnectionError):
            pass

    async def __aenter__(self) -> "AsyncClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # -- plumbing ------------------------------------------------------

    async def _send(self, message: Dict) -> None:
        if self.closed:
            raise ServerError("closed", "connection is closed; "
                              "reconnect with AsyncClient.connect")
        self._writer.write(encode(message))
        await self._writer.drain()

    async def _request(self, kind: str, reply_kind: str) -> Dict:
        import asyncio

        future = asyncio.get_running_loop().create_future()
        self._waiters.setdefault(reply_kind, []).append(future)
        await self._send({"kind": kind})
        return await future

    async def _read_loop(self) -> None:
        import asyncio

        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                try:
                    message = decode(line)
                    validate_message(message, side="server")
                except ProtocolError:
                    continue
                self._dispatch(message)
        except (asyncio.CancelledError, ConnectionError, OSError):
            pass
        finally:
            self.closed = True
            self._fail_waiters()

    def _dispatch(self, message: Dict) -> None:
        kind = message["kind"]
        waiters = self._waiters.get(kind)
        if waiters:
            future = waiters.pop(0)
            if not future.done():
                future.set_result(message)
            return
        tag = message.get("tag")
        if tag in self._pending and kind in ("accepted", "error"):
            future, ctx = self._pending.pop(tag)
            if kind == "accepted":
                # register the job before the next line is dispatched:
                # its first events can arrive before submit() resumes
                ctx.job_id = message["job"]
                self._jobs[ctx.job_id] = AsyncJob(
                    self, ctx.job_id, message["experiment"], ctx)
            if not future.done():
                future.set_result(message)
            return
        job = self._jobs.get(message.get("job"))
        if job is not None:
            job._inbox.put_nowait(message)

    def _fail_waiters(self) -> None:
        closed = {"kind": "error", "error": "closed",
                  "detail": "server closed the connection"}
        for waiters in self._waiters.values():
            for future in waiters:
                if not future.done():
                    future.set_result(closed)
        for future, _ctx in self._pending.values():
            if not future.done():
                future.set_result(closed)
        for job in self._jobs.values():
            if job._terminal is None:
                job._inbox.put_nowait(dict(closed, job=job.id))


def read_events_jsonl(path: str) -> List[Dict]:
    """Parse a ``--progress`` JSONL file into its records (test helper
    shared between the SDK examples and CI smoke checks)."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                records.append(json.loads(line))
    return records
