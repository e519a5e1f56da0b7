"""Simulation-as-a-service round trip: server, SDK, streaming, cache.

Starts an in-process job server (the same thing ``python -m repro
serve`` runs), submits a sweep through the typed SDK, watches the
shared-schema telemetry stream live, then resubmits to show the
warm-cache path answering without simulating.  Run with::

    PYTHONPATH=src python examples/service_client.py
"""

import tempfile

from repro.exec.events import validate_event
from repro.sdk import Client
from repro.server import ServerThread


def main() -> None:
    with tempfile.TemporaryDirectory() as cache_dir:
        with ServerThread(workers=2, cache_dir=cache_dir) as srv:
            print(f"server on {srv.host}:{srv.port}")
            with Client(srv.host, srv.port) as client:
                print(f"experiments: {', '.join(client.experiments)}\n")

                print("cold run (streaming telemetry):")
                job = client.submit("fig3", quick=True, priority=1)
                for record in job.events():
                    kind = validate_event(record)  # shared schema
                    if kind == "unit":
                        print(f"  unit {record['done']}/"
                              f"{record['total']}  key={record['key']}"
                              f"  eta={record['eta_s']}s")
                cold = job.result()
                print(f"  -> computed={cold.execution['computed']} "
                      f"wall={cold.wall_s:.3f}s\n")

                print("warm re-submit (served from cache):")
                warm = client.submit("fig3", quick=True).result()
                print(f"  -> computed={warm.execution['computed']} "
                      f"cache_hits={warm.execution['cache_hits']} "
                      f"wall={warm.wall_s:.3f}s")
                assert warm.data == cold.data  # bit-identical
                speedup = cold.wall_s / max(warm.wall_s, 1e-9)
                print(f"  bit-identical to the cold run, "
                      f"{speedup:.0f}x faster")


if __name__ == "__main__":
    main()
