"""The analytic primitive costs must track the simulated primitives.

These tests are the contract that keeps the application performance
model (analytic) and the microbenchmark experiments (discrete-event
simulation) mutually consistent: both derive from the same
MachineConfig, and each formula must land within tolerance of its
simulated counterpart.
"""

import pytest

from repro.core import spp1000
from repro.experiments.fig3_barrier import barrier_metrics_us
from repro.experiments.fig4_message import round_trip_us
from repro.core.units import to_us
from repro.perfmodel import barrier_ns, pvm_oneway_ns
from repro.runtime import Placement

CFG = spp1000()


@pytest.mark.parametrize("n,placement,hns", [
    (4, Placement.HIGH_LOCALITY, 1),
    (8, Placement.HIGH_LOCALITY, 1),
    (16, Placement.UNIFORM, 2),
])
def test_barrier_formula_tracks_simulation(n, placement, hns):
    simulated = barrier_metrics_us(n, placement, CFG, rounds=8)
    analytic = to_us(barrier_ns(CFG, n, hns))
    sim_lilo = simulated["last_in_last_out"]
    assert 0.5 <= analytic / sim_lilo <= 2.0, (
        f"analytic {analytic:.1f} us vs simulated {sim_lilo:.1f} us")


@pytest.mark.parametrize("nbytes", [64, 1024, 8192, 65536])
@pytest.mark.parametrize("placement,remote", [
    (Placement.HIGH_LOCALITY, False),
    (Placement.UNIFORM, True),
])
def test_pvm_formula_tracks_simulation(nbytes, placement, remote):
    simulated_rt = round_trip_us(nbytes, placement, CFG, repeats=3)
    analytic_rt = 2 * to_us(pvm_oneway_ns(CFG, nbytes, remote))
    assert 0.55 <= analytic_rt / simulated_rt <= 1.8, (
        f"analytic {analytic_rt:.1f} us vs simulated {simulated_rt:.1f} us "
        f"({nbytes} B, remote={remote})")
