"""The one-baseline verdict: ``ledger diff`` judges one benchmark run
record against an earlier one of its workload with the ledger's one
regression rule."""

import pytest

from repro.obs.ledger import fold_document, judge


def compare(current, baseline, **rule):
    """The verdict ``ledger diff`` gives: current vs [baseline]."""
    return judge(fold_document(current), [fold_document(baseline)], **rule)


def run_record(run_s, workload="des", failed=0):
    """A run record shaped like ``benchmarks/e2e/run.py`` writes it."""
    return {
        "workload": workload, "seconds": 10.0, "trace": False,
        "correct": not failed, "attempted": 60, "failed": failed,
        "metrics": {"run_s": {"value": run_s, "unit": "s"}},
        "failures": [], "detail": {},
        "provenance": {"seed": 1, "git_sha": "a" * 40, "git_dirty": False,
                       "code_fingerprint": "aaaa", "host": {}},
    }


BASE = 0.32


def test_self_compare_is_clean():
    report = compare(run_record(BASE), run_record(BASE))
    assert report["pass"]
    assert report["regressions"] == []
    assert report["improvements"] == []
    row = report["workloads"]["des"]
    assert row["status"] == "ok"
    assert row["ratio"] == 1.0


def test_injected_2x_slowdown_is_flagged():
    report = compare(run_record(BASE * 2), run_record(BASE))
    assert report["regressions"] == ["des: run_s"]
    assert not report["pass"]
    row = report["workloads"]["des"]
    assert row["status"] == "regression"
    assert row["ratio"] == pytest.approx(2.0)


def test_improvement_is_reported_not_failed():
    report = compare(run_record(BASE / 2), run_record(BASE))
    assert report["regressions"] == []
    assert report["improvements"] == ["des: run_s"]
    assert report["pass"]


def test_threshold_boundary():
    report = compare(run_record(BASE * 1.2), run_record(BASE))  # +20%
    assert report["regressions"] == []
    report = compare(run_record(BASE * 1.3), run_record(BASE))  # +30%
    assert report["regressions"] == ["des: run_s"]


def test_fidelity_breach_fails_the_compare():
    # a failed check is a result whose golden digest no longer matches:
    # it fails the verdict even when the run is as fast as its baseline
    report = compare(run_record(BASE, failed=1), run_record(BASE))
    assert report["regressions"] == []
    assert not report["pass"]
    assert report["failures"] == ["des: 1/60 checks failed"]
