"""The analytic experiments reproduce their pinned result digests.

``benchmarks/e2e/golden.json`` pins the sha256 of each experiment's
canonical result data at 2 hypernodes.  The seven checked here run on the
phase model (no simulated event), where a thread priced with the wrong
hypernode or phase list moves a digest even when every band-style test
still passes.  The file is read, never written: re-pinning is a
deliberate act of ``benchmarks/e2e/pin_golden.py``.
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
GOLDEN_DIGESTS = GOLDEN["digests"]


def _digest(exp, hypernodes, quick=True):
    result, _report = execute(exp, spp1000(n_hypernodes=hypernodes), jobs=1,
                              quick=quick, cache=None)
    return stable_hash(result.data)


@pytest.mark.parametrize("exp", [
    "fig6", "fig7", "fig8", "memclass", "scale128", "table1", "table2"])
def test_model_result_matches_golden_digest(exp):
    assert _digest(exp, GOLDEN["hypernodes"], GOLDEN["quick"]) == \
        GOLDEN_DIGESTS[exp]


#: quick digests at 1 hypernode (every fetch is local) and at 4, plus
#: ``ablations`` (which ``golden.json`` leaves out) at 1, 2 and 4.
#: ``scale128`` sweeps machine sizes of its own and ``table1`` prices the
#: C90 alone, so neither reads the configured size; ``table2`` runs at
#: most 8 threads, which fill the machine (and pay its OS stretch) only
#: at 1 hypernode.  Pinned exactly from the
#: reproduction; only a change to the model or the experiments on
#: purpose may re-pin them.
OTHER_SIZES = {
    1: {
        "fig6": "63faedd25edf96bf60b0c9a7169b6658c1b4e46a70603dba9353bc60af5561a6",
        "fig7": "510e5813dd937a6cfcc78861e8c87729271bff4ee717dd585166b22682c4fc43",
        "fig8": "9d33baff92ae19e3df3107f89048a106bc67c511244abfdc255f63b370653967",
        "memclass":
            "09f33ff4e6b37578eb94e3803017fbfa663c42300524bb3897f0b8c8b89a5c8d",
        "scale128": GOLDEN_DIGESTS["scale128"],
        "table1": GOLDEN_DIGESTS["table1"],
        "table2":
            "bf0bb61acbb199430c140ba3bae01a13b38a99ce37c5ee3b39834956b3fadc87",
        "ablations":
            "ade1e5be2a0806cae6f5d38cdcfed2d27211581ee0d93a0c7826d6a25ec5b1a4",
    },
    2: {
        "ablations":
            "a19ac024dfe4b5b736367b8248dc48ba9c28c7cf16319ba0f257fd2034cc458e",
    },
    4: {
        "fig6": "d97937214dfaa82ef0fabd3e7ff5d0c87ddee7cf17507fa4c024ac98aaa4b559",
        "fig7": "b37326dfccc73a439d94502ecb64f86675d2abf41fe1b082752dfaf3c705e154",
        "fig8": "caec7eb0a3c73d7d3281c3ddf471bc19beb2f6a604661c0649c709b16978ba76",
        "memclass":
            "9588033aa7ccfe9fdc6753eb52f89639c1cebbfaa78d73b11793ba0b1beaaeec",
        "scale128": GOLDEN_DIGESTS["scale128"],
        "table1": GOLDEN_DIGESTS["table1"],
        "table2": GOLDEN_DIGESTS["table2"],
        "ablations":
            "800ef4be2b8c4ae1f2293350890297c0d13325f167f3a5c03e776602689df020",
    },
}


@pytest.mark.parametrize("hypernodes,exp", [
    (hn, exp) for hn in sorted(OTHER_SIZES) for exp in OTHER_SIZES[hn]])
def test_model_result_matches_pinned_digest_at_other_sizes(hypernodes, exp):
    assert _digest(exp, hypernodes) == OTHER_SIZES[hypernodes][exp]
