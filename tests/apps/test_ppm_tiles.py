"""Tests for the PPM tile decomposition (paper §5.4)."""

import numpy as np
import pytest

from repro.apps.ppm.counts import GHOST
from repro.apps.ppm.solver import PPMSolver2D, blast_state, sod_state
from repro.apps.ppm.tiles import TiledPPM


def test_tiling_must_divide_grid():
    with pytest.raises(ValueError):
        TiledPPM(blast_state(50, 50), 4, 4)


def test_tiles_narrower_than_ghost_frame_rejected():
    with pytest.raises(ValueError):
        TiledPPM(blast_state(48, 48), 24, 24)  # 2x2 tiles < 4 ghosts


def test_tile_count_and_geometry():
    tiled = TiledPPM(blast_state(48, 24), 4, 2)
    assert len(tiled.tiles) == 8
    for tile in tiled.tiles:
        assert tile.data.shape == (4, 12 + 2 * GHOST, 12 + 2 * GHOST)


def test_gather_roundtrips_initial_state():
    u0 = blast_state(48, 48)
    tiled = TiledPPM(u0, 4, 4)
    assert np.array_equal(tiled.gather(), u0)


def test_tiled_is_bit_identical_to_monolithic():
    """The paper's decomposition argument: tiles + one exchange per step
    reproduce the global solution exactly."""
    u0 = blast_state(48, 48)
    mono = PPMSolver2D(u0, dx=1 / 48, dy=1 / 48)
    tiled = TiledPPM(u0, 4, 4, dx=1 / 48, dy=1 / 48)
    for _ in range(8):
        dt_m = mono.step()
        dt_t = tiled.step()
        assert dt_m == dt_t
    assert np.array_equal(mono.u, tiled.gather())


def test_tiled_matches_for_asymmetric_tiles():
    u0 = sod_state(60, 24)
    mono = PPMSolver2D(u0, dx=1 / 60, dy=1 / 24)
    tiled = TiledPPM(u0, 5, 2, dx=1 / 60, dy=1 / 24)
    for _ in range(5):
        mono.step()
        tiled.step()
    assert np.array_equal(mono.u, tiled.gather())


def test_conservation_of_tiled_run():
    tiled = TiledPPM(sod_state(48, 8), 4, 1, dx=1 / 48, dy=1 / 8)
    before = tiled.totals()
    tiled.run(20)
    after = tiled.totals()
    for key in before:
        assert after[key] == pytest.approx(before[key], abs=1e-12)


def test_exchange_byte_accounting():
    tiled = TiledPPM(blast_state(48, 48), 4, 4)
    start = tiled.exchanged_bytes
    tiled.step()
    per_step = tiled.exchanged_bytes - start
    expected_per_tile = tiled.tiles[0].ghost_cells * 4 * 8
    assert per_step == 16 * expected_per_tile
