"""Regenerate ``golden.json``, the reference every benchmark result is
checked against.

    python3 benchmarks/e2e/pin_golden.py

Pins ``sha256(canonical_json(result.data))`` for every unit-aware
experiment at ``hypernodes=2``, ``quick``, run serially without a
cache.  Re-pinning is a deliberate benchmark change: run it only when a
model change moves results on purpose, and say so in the change.
"""

from __future__ import annotations

import json
import sys

from workloads import ALL, GOLDEN_PATH, HYPERNODES, SRC, digest


def main() -> int:
    sys.path.insert(0, str(SRC))
    from repro.core.config import spp1000
    from repro.exec import execute

    config = spp1000(n_hypernodes=HYPERNODES)
    digests = {}
    for exp in ALL:
        result, _report = execute(exp, config, jobs=1, quick=True)
        digests[exp] = digest(result.data)
        print(f"{exp} {digests[exp]}")
    doc = {"hypernodes": HYPERNODES, "quick": True, "digests": digests}
    GOLDEN_PATH.write_text(json.dumps(doc, indent=2) + "\n",
                           encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
