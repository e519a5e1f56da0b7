"""Typed client SDK for the :mod:`repro.server` job server.

Two clients over the same NDJSON protocol:

* :class:`Client` — synchronous, plain sockets; for scripts, tests,
  and notebooks.
* :class:`AsyncClient` — asyncio streams; for event-driven consumers
  that want to interleave many jobs' telemetry.

Both return :class:`JobResult` objects whose ``data`` is the
canonical-JSON form of the experiment's result — byte-identical to what
the one-shot CLI computes for the same request — plus the fabric's
execution report (cache hits, per-unit timings) and any requested
telemetry blocks.

Every submit mints an end-to-end trace ID: ``job.trace_id`` matches
the ``trace_id`` stamped on the server's progress records,
``job.coalesced`` counts the progress records the server merged away
for this slow consumer, ``client.stats()`` returns the live server
stats, and ``job.write_trace(path)`` saves one
Chrome trace spanning client → server → pool → simulated time (add
``telemetry=("trace",)`` to the submit for the simulated spans).

Quickstart::

    from repro.sdk import Client

    with Client("127.0.0.1", 7995) as client:
        job = client.submit("fig3", quick=True)
        for record in job.events():        # shared-schema telemetry
            print(record["event"], record.get("done"))
        result = job.result()
        print(result.execution["cache_hits"], result.wall_s)
"""

from .client import (
    AsyncClient,
    AsyncJob,
    Client,
    Job,
    JobCancelledError,
    JobFailed,
    JobResult,
    RateLimited,
    ServerError,
    read_events_jsonl,
)

__all__ = ["Client", "AsyncClient", "Job", "AsyncJob", "JobResult",
           "ServerError", "RateLimited", "JobFailed",
           "JobCancelledError", "read_events_jsonl"]
