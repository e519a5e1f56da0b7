"""Typed client SDK for the :mod:`repro.server` job server.

:class:`Client` is a typed sync client over the NDJSON protocol: plain
sockets, stdlib only, for scripts, tests and notebooks.  One
connection carries many jobs at once, and an asyncio caller can run
its calls under ``asyncio.to_thread``.

It returns :class:`JobResult` objects whose ``data`` is the
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
    Client,
    Job,
    JobCancelledError,
    JobFailed,
    JobResult,
    RateLimited,
    ServerError,
)

__all__ = ["Client", "Job", "JobResult", "ServerError", "RateLimited",
           "JobFailed", "JobCancelledError"]
