"""The regression observatory: ``bench --compare`` judges a fresh bench
document against its baseline with the ledger's one regression rule,
and reports the verdict as text and markdown."""

import pytest

from repro.exec.bench import markdown_compare, run_bench
from repro.obs.ledger import judge, record_from_bench, render_verdict


def compare(current, baseline, **rule):
    """The verdict ``bench --compare`` gives: current vs [baseline]."""
    return judge(record_from_bench(current), [record_from_bench(baseline)],
                 **rule)


def bench_doc(serial, fingerprint="aaaa", sha="a" * 40):
    return {
        "schema_version": 1,
        "code_fingerprint": fingerprint,
        "git_sha": sha,
        "experiments": {
            exp_id: {"serial_s": s, "parallel_s": s, "cached_s": 0.01}
            for exp_id, s in serial.items()
        },
    }


def scored_doc(serial, score):
    doc = bench_doc(serial)
    doc["host"] = {"calibration_miters_s": score}
    return doc


BASE = {"fig2": 0.5, "fig3": 1.0, "fig7": 5.0, "scale128": 8.0,
        "table2": 0.3}


def test_self_compare_is_clean():
    doc = bench_doc(BASE)
    report = compare(doc, doc)
    assert report["pass"]
    assert report["regressions"] == []
    assert report["improvements"] == []
    assert all(row["status"] == "ok"
               for row in report["experiments"].values())
    assert all(row["ratio"] == 1.0
               for row in report["experiments"].values())


def test_injected_2x_slowdown_is_flagged():
    current = dict(BASE)
    current["fig7"] = BASE["fig7"] * 2
    report = compare(bench_doc(current), bench_doc(BASE))
    assert report["regressions"] == ["fig7: serial_s"]
    assert not report["pass"]
    row = report["experiments"]["fig7"]
    assert row["status"] == "regression"
    assert row["ratio"] == pytest.approx(2.0)
    assert row["normalized_ratio"] == pytest.approx(2.0)


def test_improvement_is_reported_not_failed():
    current = dict(BASE)
    current["fig3"] = BASE["fig3"] / 2
    report = compare(bench_doc(current), bench_doc(BASE))
    assert report["regressions"] == []
    assert report["improvements"] == ["fig3: serial_s"]
    assert report["pass"]


def test_uniform_host_slowdown_is_normalized_away():
    # a 3x slower runner, measured 3x slower by the calibration
    # microbenchmark: every experiment reading 3x slower is expected
    current = {exp_id: s * 3 for exp_id, s in BASE.items()}
    report = compare(scored_doc(current, score=3.0),
                     scored_doc(BASE, score=9.0))
    assert report["normalized"]
    assert all(row["normalized_ratio"] == pytest.approx(1.0)
               for row in report["experiments"].values())
    assert report["regressions"] == []


def test_normalization_off_below_four_experiments():
    # without calibration scores nothing normalizes: raw ratios decide
    base = {"fig2": 0.5, "fig3": 1.0}
    current = {"fig2": 1.5, "fig3": 3.0}
    report = compare(bench_doc(current), bench_doc(base))
    assert not report["normalized"]
    assert report["regressions"] == ["fig2: serial_s", "fig3: serial_s"]


def test_min_abs_guard_ignores_timer_noise():
    # 10x ratio but a 9 ms absolute delta: below min_abs_s, not real
    base = dict(BASE, table1=0.001)
    current = dict(BASE, table1=0.010)
    report = compare(bench_doc(current), bench_doc(base))
    assert report["experiments"]["table1"]["status"] == "ok"
    assert report["regressions"] == []


def test_threshold_boundary():
    current = dict(BASE)
    current["fig7"] = BASE["fig7"] * 1.2     # +20% < 25% threshold
    report = compare(bench_doc(current), bench_doc(BASE))
    assert report["regressions"] == []
    current["fig7"] = BASE["fig7"] * 1.3     # +30% > threshold
    report = compare(bench_doc(current), bench_doc(BASE))
    assert report["regressions"] == ["fig7: serial_s"]


def test_new_and_missing_experiments_listed():
    base = dict(BASE)
    current = dict(BASE)
    del current["table2"]
    current["fig9"] = 1.0
    report = compare(bench_doc(current), bench_doc(base))
    assert report["new"] == ["fig9"]
    assert report["missing"] == ["table2"]
    assert "fig9" not in report["experiments"]


def test_render_and_markdown_reports():
    current = dict(BASE)
    current["fig7"] = BASE["fig7"] * 2
    doc = bench_doc(current, "bbbb", "b" * 40)
    report = compare(doc, bench_doc(BASE))
    text = render_verdict(report)
    assert "REGRESSION" in text and "fig7" in text
    assert "FAIL: fig7: serial_s" in text
    md = markdown_compare(report, doc)
    assert md.startswith("# Bench regression report")
    assert "**FAIL**" in md
    assert "| fig7 |" in md
    assert "**REGRESSION**" in md
    clean = markdown_compare(compare(bench_doc(BASE), bench_doc(BASE)),
                             bench_doc(BASE))
    assert "**PASS**" in clean


def test_fidelity_breach_fails_the_compare():
    current = bench_doc(BASE)
    current["fidelity"] = {"fig2": {"metrics": {"local_pair_slope_us": {
        "rel_err": 0.9, "tolerance": 0.5, "within_tolerance": False}}}}
    report = compare(current, bench_doc(BASE))
    assert report["regressions"] == []
    assert not report["pass"]
    assert "local_pair_slope_us" in report["fidelity_breaches"][0]
    assert "FIDELITY BREACH" in render_verdict(report)
    assert "**FAIL**" in markdown_compare(report, current)


def test_run_bench_skips_unknown_experiments(capsys):
    # A renamed/unknown id in --bench-experiments (or carried over from
    # an old baseline) must warn-and-skip, not abort with a KeyError.
    from repro.core import spp1000

    doc = run_bench(spp1000(1), jobs=1, quick=True,
                    experiment_ids=["fig2", "renamed_away"])
    err = capsys.readouterr().err
    assert "skipping 'renamed_away'" in err
    assert list(doc["experiments"]) == ["fig2"]


def test_run_bench_errors_when_nothing_benchmarkable():
    from repro.core import spp1000

    with pytest.raises(ValueError) as ei:
        run_bench(spp1000(1), quick=True,
                  experiment_ids=["nope1", "nope2"])
    msg = str(ei.value)
    assert "no benchmarkable experiments" in msg
    assert "fig2" in msg  # names the valid choices


def test_fingerprints_carried_through():
    report = compare(bench_doc(BASE, "cur", "c" * 40),
                     bench_doc(BASE, "old", "d" * 40))
    assert report["current_fingerprint"] == "cur"
    assert report["baseline_fingerprint"] == "old"
    assert report["current_git_sha"] == "c" * 40
    assert report["baseline_git_sha"] == "d" * 40


# ---------------------------------------------------------------------------
# calibration-based normalization (schema 2 host blocks)
# ---------------------------------------------------------------------------

def test_calibration_score_preferred_over_median():
    # current host measured 2x slower by the microbenchmark; every
    # experiment reading 2x slower is therefore expected, not a
    # regression
    current = {exp_id: s * 2 for exp_id, s in BASE.items()}
    report = compare(scored_doc(current, score=5.0),
                     scored_doc(BASE, score=10.0))
    assert report["normalized"]
    assert report["experiments"]["fig7"]["ratio"] == pytest.approx(2.0)
    assert report["experiments"]["fig7"]["normalized_ratio"] == \
        pytest.approx(1.0)
    assert report["regressions"] == []


def test_calibration_catches_uniform_code_slowdown():
    # Same-speed hosts (equal scores) but every experiment 2x slower:
    # the calibration score cannot be fooled by the experiments under
    # test, so every one of them regresses.
    current = {exp_id: s * 2 for exp_id, s in BASE.items()}
    report = compare(scored_doc(current, score=10.0),
                     scored_doc(BASE, score=10.0))
    assert report["normalized"]
    assert sorted(report["regressions"]) == sorted(
        f"{exp_id}: serial_s" for exp_id in BASE)


def test_raw_fallback_for_schema1_baseline():
    # old baselines have no host score: the comparison is raw, so a 3x
    # slower current run regresses everywhere
    current = {exp_id: s * 3 for exp_id, s in BASE.items()}
    report = compare(scored_doc(current, score=5.0), bench_doc(BASE))
    assert not report["normalized"]
    assert report["experiments"]["fig7"]["normalized_ratio"] == \
        pytest.approx(3.0)
    assert len(report["regressions"]) == len(BASE)


def test_raw_fallback_for_null_calibration():
    # A schema-2 document whose host block records a null score is
    # compared raw, never divided by the missing score.
    current = {exp_id: s * 3 for exp_id, s in BASE.items()}
    report = compare(scored_doc(current, score=10.0),
                     scored_doc(BASE, score=None))
    assert not report["normalized"]
    assert report["experiments"]["fig2"]["normalized_ratio"] == \
        pytest.approx(3.0)


def test_raw_fallback_for_zero_calibration_score():
    # a zero score (corrupt or hand-edited baseline) must never reach
    # the division; both sides zero likewise
    current = {exp_id: s * 3 for exp_id, s in BASE.items()}
    report = compare(scored_doc(current, score=10.0),
                     scored_doc(BASE, score=0.0))
    assert not report["normalized"]
    assert len(report["regressions"]) == len(BASE)
    report = compare(scored_doc(current, score=0.0),
                     scored_doc(BASE, score=0.0))
    assert not report["normalized"]


def test_no_calibration_and_few_experiments_disables_normalization():
    # missing scores: nothing to normalize with — raw ratios drive the
    # verdict
    base = {"fig2": 0.5, "fig3": 1.0}
    current = {"fig2": 1.5, "fig3": 3.0}
    report = compare(scored_doc(current, score=None),
                     scored_doc(base, score=0.0))
    assert not report["normalized"]
    assert report["regressions"] == ["fig2: serial_s", "fig3: serial_s"]


def test_resolution_limited_rows_surface_in_markdown():
    current = bench_doc(BASE)
    current["experiments"]["fig2"][
        "cached_speedup_resolution_limited"] = True
    md = markdown_compare(compare(current, bench_doc(BASE)), current)
    assert "timer-resolution floor" in md and "`fig2`" in md
    assert "`fig3`" not in md


# -- the resilience fold --------------------------------------------------


def _with_resilience(doc, exp_id, **counters):
    resil = {"retries": 0, "timeouts": 0, "hung_workers_replaced": 0,
             "workers_replaced": 0, "serial_fallbacks": 0,
             "quarantined_units": [], "cache_corrupt": 0}
    resil.update(counters)
    doc["experiments"][exp_id]["resilience"] = resil
    return doc


def test_clean_runs_fold_no_resilience():
    report = compare(bench_doc(BASE), bench_doc(BASE))
    assert report["resilience"] == {}
    assert "Fault behaviour" not in markdown_compare(report, bench_doc(BASE))
    assert "fault events" not in render_verdict(report)


def test_resilience_counters_fold_per_experiment():
    base = _with_resilience(bench_doc(BASE), "fig3", retries=2,
                            timeouts=1, quarantined_units=["u:1", "u:2"],
                            chaos_injected={"kill": 3})
    cur = _with_resilience(bench_doc(BASE), "fig3", retries=1,
                           workers_replaced=1, cache_corrupt=1)
    report = compare(cur, base)
    assert list(report["resilience"]) == ["fig3"]
    sides = report["resilience"]["fig3"]
    assert sides["baseline"]["retries"] == 2
    assert sides["baseline"]["quarantined"] == 2
    assert sides["baseline"]["chaos_injected"] == 3
    assert sides["current"]["retries"] == 1
    assert sides["current"]["workers_replaced"] == 1
    assert sides["current"]["cache_corrupt"] == 1
    assert sides["current"].get("chaos_injected", 0) == 0


def test_one_sided_faults_still_fold():
    # a baseline that survived faults vs a now-clean current run (or
    # vice versa) is exactly the story the table should tell
    base = _with_resilience(bench_doc(BASE), "fig7", retries=5)
    report = compare(bench_doc(BASE), base)
    assert report["resilience"]["fig7"]["baseline"]["retries"] == 5
    assert report["resilience"]["fig7"]["current"].get("retries", 0) == 0


def test_fault_table_is_informational_not_failing():
    cur = _with_resilience(bench_doc(BASE), "fig3", retries=9,
                           timeouts=9, cache_corrupt=9)
    report = compare(cur, bench_doc(BASE))
    assert report["regressions"] == []  # the verdict stays timing-driven
    md = markdown_compare(report, cur)
    assert "**PASS**" in md
    assert "## Fault behaviour" in md
    assert "| fig3 | 0 → 9 | 0 → 9 |" in md
    text = render_verdict(report)
    assert "fault events survived (baseline->current): fig3 0->27" in text
    assert "PASS: no serial_s regressions" in text
