"""``python -m repro serve`` — run the job server in the foreground.

One line to stdout when the server is listening; SIGINT/SIGTERM trigger
a graceful drain (queued and running jobs finish, clients get ``bye``)
before exit.  All errors follow the CLI's one-line actionable-error
convention on stderr with exit code 2.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
from typing import List, Optional

from .protocol import DEFAULT_PORT
from .server import ReproServer

__all__ = ["serve_main", "build_serve_parser"]


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve simulations over TCP: clients (repro.sdk) "
                    "submit sweep jobs, the server runs them through "
                    "the execution fabric and streams per-unit "
                    "telemetry back live. Results are bit-identical "
                    "to the one-shot CLI and share its result cache, "
                    "so a warm-cache job answers without simulating.")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: %(default)s)")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help="TCP port; 0 picks a free one "
                             "(default: %(default)s)")
    parser.add_argument("--workers", type=int, default=2,
                        help="concurrent job slots (default: %(default)s)")
    parser.add_argument("--cache-dir", default=None,
                        help="result cache root (default: the CLI's "
                             "shared cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="run every job cold (disables warm-cache "
                             "replies)")
    parser.add_argument("--rate", type=float, default=10.0,
                        help="sustained submits/s allowed per client "
                             "(default: %(default)s)")
    parser.add_argument("--burst", type=int, default=20,
                        help="submit burst capacity per client "
                             "(default: %(default)s)")
    parser.add_argument("--max-queue", type=int, default=128,
                        help="max queued jobs before submits are "
                             "rejected (default: %(default)s)")
    parser.add_argument("--send-buffer", type=int, default=256,
                        help="outbound messages buffered per client "
                             "before progress records coalesce "
                             "(default: %(default)s)")
    return parser


def _fail(message: str) -> int:
    print(message, file=sys.stderr)
    return 2


def serve_main(argv: Optional[List[str]] = None) -> int:
    args = build_serve_parser().parse_args(argv)
    if args.workers < 1:
        return _fail(f"--workers must be >= 1, got {args.workers}; "
                     "each worker is one concurrent job slot")
    if args.rate <= 0:
        return _fail(f"--rate must be > 0, got {args.rate:g}; it is "
                     "the sustained submits/s allowed per client")
    if args.burst < 1:
        return _fail(f"--burst must be >= 1, got {args.burst}; it is "
                     "the per-client submit burst capacity")
    if args.max_queue < 1:
        return _fail(f"--max-queue must be >= 1, got {args.max_queue}")
    if args.send_buffer < 4:
        return _fail(f"--send-buffer must be >= 4, got "
                     f"{args.send_buffer}; smaller buffers cannot hold "
                     "a job's terminal messages")
    try:
        asyncio.run(_serve(args))
    except KeyboardInterrupt:
        pass
    except OSError as exc:
        return _fail(f"cannot serve on {args.host}:{args.port}: "
                     f"{exc.strerror or exc}")
    return 0


async def _serve(args) -> None:
    server = ReproServer(
        args.host, args.port, workers=args.workers,
        cache_dir=args.cache_dir, no_cache=args.no_cache,
        rate_per_s=args.rate, burst=args.burst,
        max_queue=args.max_queue, send_buffer=args.send_buffer)
    host, port = await server.start()
    cache_note = "no cache" if args.no_cache else \
        (args.cache_dir or "shared cache")
    print(f"repro.server listening on {host}:{port} "
          f"({args.workers} workers, {cache_note}); "
          "Ctrl-C drains and exits", flush=True)

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
        except (NotImplementedError, RuntimeError):
            pass  # non-Unix loop: fall back to KeyboardInterrupt
    serve_task = asyncio.ensure_future(server.serve_forever())
    await stop.wait()
    print("repro.server draining (finishing accepted jobs)...",
          flush=True)
    serve_task.cancel()
    try:
        await serve_task
    except (asyncio.CancelledError, Exception):
        pass
    await server.shutdown(drain=True)
    stats = server.stats()
    print(f"repro.server stopped: jobs {stats['jobs']}", flush=True)
