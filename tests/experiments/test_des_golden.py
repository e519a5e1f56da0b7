"""The discrete-event experiments reproduce their pinned result digests.

``benchmarks/e2e/golden.json`` pins the sha256 of each experiment's
canonical result data.  These five run on the discrete-event simulator,
where a change to the event order (a same-instant tie broken the other
way) moves a digest even when every band-style test still passes.  The
file is read, never written: re-pinning is a deliberate act of
``benchmarks/e2e/pin_golden.py``.
"""

import json
from pathlib import Path

import pytest

from repro.core.canon import stable_hash
from repro.core.config import spp1000
from repro.exec import execute

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"
     / "golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "exp", ["fig2", "fig3", "fig4", "contention", "degraded"])
def test_des_result_matches_golden_digest(exp):
    config = spp1000(n_hypernodes=GOLDEN["hypernodes"])
    result, _report = execute(exp, config, jobs=1, quick=GOLDEN["quick"],
                              cache=None)
    assert stable_hash(result.data) == GOLDEN["digests"][exp]
