"""Paper-fidelity residuals: how far the reproduced curves drift.

The repository's bit-identity suites guarantee that *refactors* cannot
change simulated results, but intentional model changes (a calibration
constant, a coherence-cost fix) legitimately move the Fig 2-8 curves.
This module quantifies each move against **golden expectations** so the
performance ledger (:mod:`repro.obs.ledger`) can track accuracy the
same way it tracks speed: every anchor is one scalar derived from an
experiment's headline data — a slope, a ratio, a rate — compared
against either a number the paper states outright (``source:
"paper"``, e.g. the ~10 us/pair fork-join slope of §4.1) or, where the
paper is only qualitative, the reproduction's own pinned value
(``source: "reproduction"``).

The residual is the signed relative error ``(measured - expected) /
expected``.  Tolerances are deliberately wide for paper-sourced anchors
(a reproduction is not the hardware) and tight for reproduction-pinned
ones (the simulator is deterministic, so any motion there is a real
model change).  ``repro ledger gate`` treats an out-of-tolerance anchor
in the newest record as a regression — speed refactors cannot silently
drift accuracy.

Extractors are defensive: an anchor whose inputs are missing (a
smaller ``--hypernodes`` machine never reaches 16 CPUs, a sweep was
trimmed) is skipped, never an error — fidelity is an observation, not
a gate on what experiments may run.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional

__all__ = ["FIDELITY_EXPERIMENTS", "GOLDEN_ANCHORS",
           "fidelity_residuals"]


class Anchor(NamedTuple):
    """One golden expectation: a named scalar with provenance."""

    metric: str
    expected: float
    tolerance: float            #: max |relative error| considered faithful
    source: str                 #: "paper" or "reproduction"
    extract: Callable[[Dict], float]


def _curve(data: Dict, xs_key: str, ys_key: str) -> Dict:
    return dict(zip(data[xs_key], data[ys_key]))


# -- per-figure extractors (raise KeyError/ZeroDivisionError to skip) ----

def _fig2_local_pair(data: Dict) -> float:
    high = _curve(data, "thread_counts", "high_locality_us")
    return (high[8] - high[4]) / 2


def _fig2_uniform_ratio(data: Dict) -> float:
    uniform = _curve(data, "thread_counts", "uniform_us")
    return ((uniform[8] - uniform[4]) / 2) / _fig2_local_pair(data)


def _fig2_cross_step(data: Dict) -> float:
    high = _curve(data, "thread_counts", "high_locality_us")
    return (high[10] - high[8]) - _fig2_local_pair(data)


def _fig3_lifo_one_node(data: Dict) -> float:
    return _curve(data, "thread_counts", "lifo_high_locality_us")[8]


def _fig3_lilo_slope(data: Dict) -> float:
    lilo = _curve(data, "thread_counts", "lilo_uniform_us")
    return (lilo[16] - lilo[8]) / 8


def _fig4_ratio(data: Dict) -> float:
    return float(data["small_message_global_local_ratio"])


def _fig6_small_16(data: Dict, key: str) -> float:
    """The small problem's ``key`` at 16 CPUs (KeyError below 16)."""
    return dict(zip(data["processors"], data["32x32x32"][key]))[16]


def _fig6_shared_speedup(data: Dict) -> float:
    return float(_fig6_small_16(data, "shared_speedup"))


def _fig6_pvm_over_shared(data: Dict) -> float:
    return (_fig6_small_16(data, "pvm_seconds")
            / _fig6_small_16(data, "shared_seconds"))


def _fig7_c90(data: Dict) -> float:
    return float(data["c90_mflops"])


def _fig7_small1_single(data: Dict) -> float:
    return float(data["small1"]["mflops"][0])


def _fig8_single(data: Dict) -> float:
    return float(data["32K"]["single_cpu_mflops"])


def _fig8_sixteen(data: Dict) -> float:
    return float(data["32K"]["mflops_16"])


def _fig8_c90(data: Dict) -> float:
    return float(data["32K"]["c90_mflops"])


#: tolerance of a reproduction anchor, pinned at full precision: any
#: model change that moves one breaches until the pin is updated on purpose
_PINNED = 1e-9

#: the golden book: every anchored figure, in paper order.  Paper
#: anchors quote §4/§5 numbers; reproduction anchors pin the simulator's
#: own deterministic output.
GOLDEN_ANCHORS: Dict[str, List[Anchor]] = {
    "fig2": [
        Anchor("local_pair_slope_us", 10.0, 0.50, "paper",
               _fig2_local_pair),
        Anchor("uniform_local_slope_ratio", 2.0, 0.50, "paper",
               _fig2_uniform_ratio),
        Anchor("cross_node_step_us", 50.0, 0.80, "paper",
               _fig2_cross_step),
    ],
    "fig3": [
        Anchor("lifo_one_node_us", 3.5, 0.50, "paper",
               _fig3_lifo_one_node),
        Anchor("lilo_uniform_slope_us", 2.0, 0.50, "paper",
               _fig3_lilo_slope),
    ],
    "fig4": [
        Anchor("small_message_global_local_ratio", 2.3, 0.40, "paper",
               _fig4_ratio),
    ],
    "fig6": [
        Anchor("shared_speedup_16_small", 10.015267399875198, _PINNED,
               "reproduction", _fig6_shared_speedup),
        Anchor("pvm_over_shared_16_small", 1.3058200107265963, _PINNED,
               "reproduction", _fig6_pvm_over_shared),
    ],
    "fig7": [
        Anchor("c90_mflops", 252.24383916990914, _PINNED, "reproduction",
               _fig7_c90),
        Anchor("small1_single_cpu_mflops", 21.69488118288955, _PINNED,
               "reproduction", _fig7_small1_single),
    ],
    "fig8": [
        Anchor("single_cpu_mflops_32k", 27.5, 0.50, "paper",
               _fig8_single),
        Anchor("mflops_16_32k", 384.0, 0.50, "paper", _fig8_sixteen),
        Anchor("c90_mflops_32k", 120.0, 0.60, "paper", _fig8_c90),
    ],
}

#: experiment ids with golden anchors (the "Fig 2-8" suite; there is no
#: fig5 experiment — the paper's Figure 5 is the machine photograph)
FIDELITY_EXPERIMENTS = tuple(GOLDEN_ANCHORS)


def fidelity_residuals(experiment_id: str,
                       data: Dict) -> Optional[Dict]:
    """Residuals of one experiment's headline data vs its anchors.

    Returns ``None`` when the experiment has no golden anchors or none
    of its anchors could be computed from ``data``; otherwise::

        {"metrics": {name: {"measured": ..., "expected": ...,
                            "rel_err": ..., "tolerance": ...,
                            "within_tolerance": bool, "source": ...}},
         "max_abs_rel_err": ..., "within_tolerance": bool}
    """
    anchors = GOLDEN_ANCHORS.get(experiment_id)
    if not anchors:
        return None
    metrics: Dict[str, Dict] = {}
    for anchor in anchors:
        try:
            measured = float(anchor.extract(data))
        except (KeyError, IndexError, TypeError, ValueError,
                ZeroDivisionError):
            continue  # trimmed sweep / smaller machine: anchor inapplicable
        rel_err = (measured - anchor.expected) / anchor.expected
        metrics[anchor.metric] = {
            "measured": round(measured, 4),
            "expected": anchor.expected,
            "rel_err": round(rel_err, 4),
            "tolerance": anchor.tolerance,
            "within_tolerance": abs(rel_err) <= anchor.tolerance,
            "source": anchor.source,
        }
    if not metrics:
        return None
    return {
        "metrics": metrics,
        "max_abs_rel_err": round(
            max(abs(m["rel_err"]) for m in metrics.values()), 4),
        "within_tolerance": all(m["within_tolerance"]
                                for m in metrics.values()),
    }
