"""Tests for performance metrics."""

import pytest

from repro.core import mflops
from repro.core.units import seconds


def test_mflops():
    # 1e9 flops in 1 second = 1000 MFLOP/s
    assert mflops(1e9, seconds(1.0)) == pytest.approx(1000.0)


def test_mflops_rejects_nonpositive_time():
    with pytest.raises(ValueError):
        mflops(1e6, 0.0)
