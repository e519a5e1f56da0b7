"""Core utilities: machine configuration, units, metrics, methodology, tables."""

from .canon import canonical, canonical_json, config_dict, stable_hash
from .config import MachineConfig, spp1000
from .metrics import mflops
from .stats import Measurement, corrected, summarize
from .tables import Series, Table, render_series
from . import units

__all__ = [
    "MachineConfig", "spp1000",
    "canonical", "canonical_json", "config_dict", "stable_hash",
    "mflops",
    "Measurement", "corrected", "summarize",
    "Table", "Series", "render_series",
    "units",
]
