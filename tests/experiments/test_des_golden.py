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


#: quick digests at 1 hypernode (no fetch goes remote) and at 4 (ring
#: transfers take up to three hops); ``golden.json`` pins 2 only.  Pinned
#: exactly from the reproduction; only a change to the machine model or
#: the experiments on purpose may re-pin them.
OTHER_SIZES = {
    1: {
        "fig2": "161aef24f785e36a06215b3fec0e7a9dde8b23387399b846257859e9dd272516",
        "fig3": "ed6479908316421a38f920814080e5aeefead8d59176bf842cfbb9ac0cbe3c83",
        "fig4": "419d7673b90a671e12686738836451a4c36e514418ca2758a4bdd48fcea8f7a6",
        "contention":
            "8942dfe5f02f3e7b0e297176c7f35d65006a3b68cba09b0547fbf052a3f00312",
        "degraded":
            "72889765b3b4c10821946b49287d0489918203f18871fdf19f5f90f046eb103f",
    },
    4: {
        "fig2": "3b871fb40c9a41fa665f1ae564b6c95b3041a083d0496182720dbe164d3ccac7",
        "fig3": "c2fb2104c82f06702e4344068c1add8c65e5de25a9ea88724fac8c8a6b1da049",
        "fig4": "b170a14021238e98b8a972be85004c34447740de1c143c8e07fcc5a65a8ac3a5",
        "contention":
            "e7abc104d2eac417287a4e32518dab945be9596f3346687832bbd399fee70ec1",
        "degraded":
            "ddd64def44e1651f045096bf4b37d8bb451f2a4addfee9e3174c19c0d362f17b",
    },
}


@pytest.mark.parametrize("hypernodes,exp", [
    (hn, exp) for hn in sorted(OTHER_SIZES) for exp in OTHER_SIZES[hn]])
def test_des_result_matches_pinned_digest_at_other_sizes(hypernodes, exp):
    result, _report = execute(exp, spp1000(n_hypernodes=hypernodes), jobs=1,
                              quick=True, cache=None)
    assert stable_hash(result.data) == OTHER_SIZES[hypernodes][exp]
