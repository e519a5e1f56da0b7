"""Processor-count sweeps of the performance model."""

from repro.apps.ppm import PPMWorkload, TABLE2_PROBLEMS
from repro.core import spp1000


def test_efficiency_table_on_real_workload():
    workload = PPMWorkload(TABLE2_PROBLEMS["120x480 / 4x16"], spp1000())
    t1 = workload.run(1).time_ns
    effs = [t1 / workload.run(p).time_ns / p for p in (1, 2, 4, 8)]
    assert effs[0] == 1.0
    assert all(e > 0.85 for e in effs)      # Table 2's near-linear scaling
    assert effs == sorted(effs, reverse=True)
