"""The longitudinal ledger: append/read integrity, folding, trend, the
regression rule behind the windowed gate and diff, and the CLI verbs."""

import json
import os

import pytest

from repro.obs.ledger import (
    DEFAULT_LEDGER_PATH,
    LEDGER_SCHEMA,
    Ledger,
    LedgerError,
    fold_document,
    gate,
    judge,
    ledger_main,
    record_checksum,
    record_from_bench,
    record_from_manifest,
    render_trend,
    render_verdict,
    trend,
)


def bench_doc(scale=1.0, cal=12.0, fidelity_ok=True):
    """A realistic schema-2 bench document with controllable speed."""
    def row(serial):
        return {"units": 4, "serial_s": round(serial * scale, 4),
                "parallel_s": round(serial * 0.6, 4), "cached_s": 0.01,
                "speedup": 1.6, "cached_speedup": 10.0,
                "units_per_s": round(4 / (serial * scale), 3),
                "sim_mcycles_per_s": 1.0, "events_per_s": 1000,
                "cache_hit_rate": 1.0, "identical": True}

    fid_err = 0.0 if fidelity_ok else 0.9
    return {
        "schema_version": 2, "generator": "repro.exec.bench",
        "jobs": 2, "quick": True,
        "host": {"cpu_count": 4, "cpu_model": "test", "python": "3",
                 "platform": "linux", "loadavg_1m": 0.1,
                 "calibration_miters_s": cal},
        "code_fingerprint": "cafecafecafecafe",
        "git_sha": "deadbeef" * 5, "git_dirty": False,
        "created_utc": "2026-08-08T00:00:00+00:00",
        "experiments": {"fig2": row(0.5), "fig3": row(0.4)},
        "fidelity": {"fig2": {
            "metrics": {"local_pair_slope_us": {
                "measured": 10.0 * (1 + fid_err), "expected": 10.0,
                "rel_err": fid_err, "tolerance": 0.5,
                "within_tolerance": fidelity_ok, "source": "paper"}},
            "max_abs_rel_err": fid_err,
            "within_tolerance": fidelity_ok}},
        "totals": {"serial_s": round(0.9 * scale, 4), "parallel_s": 0.54,
                   "cached_s": 0.02, "speedup": 1.67,
                   "cached_speedup": 18.0,
                   "cached_speedup_resolution_limited": False},
    }


#: a ``kind: "server"`` record exactly as a job server attached with
#: ``repro serve --ledger`` appended it at drain, before that flag was
#: removed; old ledgers still hold such lines
SERVER_RECORD_LINE = (
    '{"calibration_miters_s":null,"code_fingerprint":"0123456789abcdef",'
    '"created_utc":"2026-10-01T00:00:00+00:00","fabric":{"cache_hits":16,'
    '"cache_misses":0,"unit_retries":0,"units_computed":16},'
    '"git_dirty":false,"git_sha":"b4d1726671ac52ece1c79a60057d32ba33fb7e85",'
    '"job_latency":{"fig3":{"count":2,"mean_s":0.25,"sum_s":0.5}},'
    '"jobs":{"done":2},"kind":"server","ledger_schema":1,'
    '"sha256":"5f10ee58f1560aa40346a6b5ad75f30ca10a695d33e0e00d973e9786b0ed8c19",'
    '"source":"server","uptime_s":4.2}\n')


def filled_ledger(path, scales=(1.0, 1.01, 0.99)):
    ledger = Ledger(str(path))
    for scale in scales:
        ledger.append(record_from_bench(bench_doc(scale)))
    return ledger


# -- append/read integrity ------------------------------------------------


def test_append_read_roundtrip(tmp_path):
    ledger = filled_ledger(tmp_path / "L.jsonl")
    records, skipped = ledger.read()
    assert len(records) == 3 and skipped == 0
    for rec in records:
        assert rec["ledger_schema"] == LEDGER_SCHEMA
        assert rec["sha256"] == record_checksum(rec)
        assert rec["kind"] == "bench"
        assert rec["git_dirty"] is False
        assert rec["calibration_miters_s"] == 12.0
        assert set(rec["experiments"]) == {"fig2", "fig3"}
        assert rec["fidelity"]["fig2"]["within_tolerance"] is True


def test_missing_file_reads_empty(tmp_path):
    records, skipped = Ledger(str(tmp_path / "none.jsonl")).read()
    assert records == [] and skipped == 0


def test_tampered_record_is_skipped(tmp_path):
    path = tmp_path / "L.jsonl"
    filled_ledger(path)
    lines = path.read_text().splitlines()
    doc = json.loads(lines[1])
    doc["experiments"]["fig2"]["serial_s"] = 99.9  # checksum now lies
    lines[1] = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")
    records, skipped = Ledger(str(path)).read()
    assert len(records) == 2 and skipped == 1


def test_torn_final_line_is_tolerated(tmp_path):
    path = tmp_path / "L.jsonl"
    filled_ledger(path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"ledger_schema": 1, "kind": "bench", "trunc')
    records, skipped = Ledger(str(path)).read()
    assert len(records) == 3 and skipped == 1
    # the next append heals the torn tail instead of merging into it
    Ledger(str(path)).append(record_from_bench(bench_doc()))
    records, skipped = Ledger(str(path)).read()
    assert len(records) == 4 and skipped == 1


# -- folding --------------------------------------------------------------


def test_fold_document_detects_bench():
    record = fold_document(bench_doc())
    assert record["kind"] == "bench" and record["source"] == "bench"


def test_fold_document_detects_manifest():
    manifest = {
        "schema_version": 1, "generator": "repro.obs",
        "provenance": {"created_utc": "t", "git_sha": "abc",
                       "git_dirty": True, "code_fingerprint": "ff"},
        "experiment": {"id": "fig2", "title": "x"},
        "headline": {"thread_counts": [4, 8],
                     "high_locality_us": [20.0, 40.0],
                     "uniform_us": [40.0, 80.0]},
        "hostscope": {"regions": {"event_heap": {"self_s": 0.25}},
                      "throughput": {"sim_mcycles_per_s": 2.0}},
        "execution": {"jobs": 2, "cache_hits": 3, "computed": 5},
    }
    record = fold_document(manifest)
    assert record["kind"] == "metrics"
    assert record["experiment"] == "fig2"
    assert record["git_dirty"] is True
    assert record["hostscope_regions"] == {"event_heap": 0.25}
    assert record["throughput"]["sim_mcycles_per_s"] == 2.0
    assert record["execution"]["cache_hits"] == 3
    # fidelity recomputed from the headline (pair slope 10us = golden)
    fid = record["fidelity"]["fig2"]
    assert fid["metrics"]["local_pair_slope_us"]["rel_err"] == 0.0


def test_fold_document_rejects_garbage():
    with pytest.raises(LedgerError, match="unrecognized"):
        fold_document({"nonsense": True})
    with pytest.raises(LedgerError, match="JSON object"):
        fold_document([1, 2, 3])


# -- trend ----------------------------------------------------------------


def test_trend_is_calibration_normalized(tmp_path):
    ledger = Ledger(str(tmp_path / "L.jsonl"))
    # identical code speed measured on a half-speed host: raw serial_s
    # doubles, calibration halves -- normalized values stay flat
    ledger.append(record_from_bench(bench_doc(1.0, cal=12.0)))
    ledger.append(record_from_bench(bench_doc(2.0, cal=6.0)))
    records, _ = ledger.read()
    report = trend(records, metric="serial_s")
    assert report["normalized"] is True
    values = report["experiments"]["fig2"]["values"]
    assert values[0] == pytest.approx(values[1], rel=0.05)
    text = render_trend(report)
    assert "fig2" in text and "calibration-normalized" in text


def test_trend_falls_back_to_raw_without_calibration(tmp_path):
    ledger = Ledger(str(tmp_path / "L.jsonl"))
    ledger.append(record_from_bench(bench_doc(1.0)))
    ledger.append(record_from_bench(bench_doc(1.0, cal=None)))
    records, _ = ledger.read()
    report = trend(records)
    assert report["normalized"] is False


def test_trend_fidelity_metric_and_unknown_metric(tmp_path):
    ledger = filled_ledger(tmp_path / "L.jsonl")
    records, _ = ledger.read()
    report = trend(records, metric="fidelity")
    assert report["experiments"]["fig2"]["latest"] == 0.0
    with pytest.raises(LedgerError, match="unknown trend metric"):
        trend(records, metric="bogus")
    with pytest.raises(LedgerError, match="no records for experiment"):
        trend(records, experiment="nope")


# -- the windowed gate ----------------------------------------------------


def test_gate_passes_on_flat_trajectory(tmp_path):
    records, _ = filled_ledger(tmp_path / "L.jsonl").read()
    report = gate(records, window=5)
    assert report["pass"] is True
    assert report["regressions"] == []
    assert "PASS" in render_verdict(report)


def test_gate_detects_synthetic_30pct_slowdown(tmp_path):
    ledger = filled_ledger(tmp_path / "L.jsonl")
    ledger.append(record_from_bench(bench_doc(1.3)))  # the slow record
    records, _ = ledger.read()
    report = gate(records, window=5)
    assert report["pass"] is False
    assert "fig2: serial_s" in report["regressions"]
    assert "fig3: serial_s" in report["regressions"]
    assert report["experiments"]["fig2"]["status"] == "regression"
    text = render_verdict(report)
    assert "REGRESSION" in text and "FAIL" in text and "fig2" in text


def test_gate_trivial_pass_with_insufficient_history(tmp_path):
    ledger = Ledger(str(tmp_path / "L.jsonl"))
    ledger.append(record_from_bench(bench_doc(1.0)))
    ledger.append(record_from_bench(bench_doc(9.0)))  # huge, but only
    records, _ = ledger.read()                        # 1 prior record
    report = gate(records, window=5)
    assert report["pass"] is True
    assert "insufficient history" in report["reason"]


def test_gate_min_abs_noise_guard(tmp_path):
    """A 30% ratio on sub-hundredth-second rows is timer noise."""
    ledger = Ledger(str(tmp_path / "L.jsonl"))
    for scale in (1.0, 1.0, 1.3):
        doc = bench_doc(scale)
        for row in doc["experiments"].values():
            row["serial_s"] = round(row["serial_s"] / 100, 5)
        ledger.append(record_from_bench(doc))
    records, _ = ledger.read()
    report = gate(records, window=5)
    assert report["pass"] is True, report


def test_gate_fails_on_fidelity_breach_even_when_fast(tmp_path):
    ledger = filled_ledger(tmp_path / "L.jsonl")
    ledger.append(record_from_bench(bench_doc(1.0, fidelity_ok=False)))
    records, _ = ledger.read()
    report = gate(records, window=5)
    assert report["pass"] is False
    assert report["regressions"] == []
    assert report["fidelity_breaches"]
    assert "local_pair_slope_us" in report["fidelity_breaches"][0]


def test_gate_window_limits_history(tmp_path):
    """The window bounds which era the median describes: against the
    recent fast era a 1.3x record regresses; a window wide enough to
    be dominated by the old 5x-slow era calls the same record an
    improvement."""
    ledger = Ledger(str(tmp_path / "L.jsonl"))
    for scale in (5.0, 5.0, 5.0, 5.0, 1.0, 1.01, 1.3):
        ledger.append(record_from_bench(bench_doc(scale)))
    records, _ = ledger.read()
    assert gate(records, window=4)["pass"] is False
    assert gate(records, window=7)["pass"] is True


def test_gate_rejects_non_timing_metric(tmp_path):
    records, _ = filled_ledger(tmp_path / "L.jsonl").read()
    with pytest.raises(LedgerError, match="timing column"):
        gate(records, metric="units_per_s")


# -- the regression rule with one history record ---------------------------


def scored(serial_s, score):
    return {"kind": "bench", "calibration_miters_s": score,
            "experiments": {"fig2": {"serial_s": serial_s}}}


def test_one_history_ratio_and_threshold_boundaries():
    """One history record: the band is threshold x baseline and the
    normalized ratio is (cur_s x cur_score) / (base_s x base_score)."""
    base = scored(1.0, 8.0)
    report = judge(scored(3.0, 5.0), [base])
    row = report["experiments"]["fig2"]
    assert report["normalized"] is True
    assert row["normalized_ratio"] == pytest.approx(3.0 * 5.0 / (1.0 * 8.0),
                                                    abs=1e-4)
    assert row["ratio"] == pytest.approx(3.0)

    # the status changes exactly across 1 +- threshold (normalized)
    def status(nratio, threshold=0.25):
        cur_s = nratio * 1.0 * 8.0 / 5.0
        return judge(scored(cur_s, 5.0), [base], threshold=threshold,
                     min_abs_s=0.0)["experiments"]["fig2"]["status"]
    eps = 1e-9
    assert status(1.25 * (1 + eps)) == "regression"
    assert status(1.25 * (1 - eps)) == "ok"
    assert status(0.75 * (1 + eps)) == "ok"
    assert status(0.75 * (1 - eps)) == "improved"
    assert status(1.10, threshold=0.05) == "regression"
    assert status(1.04, threshold=0.05) == "ok"


def test_one_history_min_abs_guard_suppresses_small_raw_deltas():
    base = scored(0.010, 8.0)
    slow = scored(0.025, 8.0)  # 2.5x, but only 15 ms slower
    assert judge(slow, [base])["experiments"]["fig2"]["status"] == "ok"
    assert judge(slow, [base], min_abs_s=0.01)["regressions"] == [
        "fig2: serial_s"]
    # the guard reads raw seconds: normalized, this candidate is 27 ms
    # slower; raw, 15 ms — still under the default 20 ms guard
    row = judge(scored(0.025, 16.0), [base])["experiments"]["fig2"]
    assert row["normalized_ratio"] == 5.0
    assert row["status"] == "ok"


@pytest.mark.parametrize("cur_score,base_score", [
    (0.0, 8.0), (8.0, 0.0), (0.0, 0.0), (None, 8.0), (8.0, None),
    (None, None)])
def test_zero_or_missing_score_compares_raw(cur_score, base_score):
    report = judge(scored(2.0, cur_score), [scored(1.0, base_score)])
    assert report["normalized"] is False
    row = report["experiments"]["fig2"]
    assert row["normalized_ratio"] == row["ratio"] == 2.0
    assert report["regressions"] == ["fig2: serial_s"]


def test_zero_score_anywhere_in_a_window_compares_raw():
    history = [scored(1.0, 8.0), scored(1.0, 0.0), scored(1.0, 8.0)]
    report = judge(scored(1.0, 4.0), history)
    assert report["normalized"] is False
    assert report["experiments"]["fig2"]["status"] == "ok"


# -- diff -----------------------------------------------------------------


def test_diff_records_reuses_compare_bench(tmp_path, capsys):
    """``ledger diff`` is record b judged against [a] — the same rule
    and report ``bench --compare`` prints."""
    ledger = filled_ledger(tmp_path / "L.jsonl", scales=(1.0, 2.0))
    records, _ = ledger.read()
    assert ledger_main(["diff", "--ledger", ledger.path, "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report == judge(records[1], [records[0]])
    assert report["normalized"] is True
    assert set(report["experiments"]) == {"fig2", "fig3"}
    assert report["regressions"]  # 2x slower, same calibration
    assert ledger_main(["diff", "--ledger", ledger.path]) == 1
    assert "REGRESSION" in capsys.readouterr().out


def test_diff_records_needs_two(tmp_path, capsys):
    ledger = filled_ledger(tmp_path / "L.jsonl", scales=(1.0,))
    assert ledger_main(["diff", "--ledger", ledger.path]) == 2
    assert ">= 2 bench records" in capsys.readouterr().err


# -- the CLI --------------------------------------------------------------


def test_cli_record_show_trend_gate(tmp_path, capsys):
    bench_path = tmp_path / "BENCH.json"
    bench_path.write_text(json.dumps(bench_doc()))
    ledger_path = str(tmp_path / "L.jsonl")
    for _ in range(3):
        assert ledger_main(["record", str(bench_path),
                            "--ledger", ledger_path]) == 0
    out = capsys.readouterr().out
    assert "appended bench record" in out and "sha256" in out

    assert ledger_main(["show", "--ledger", ledger_path]) == 0
    assert "kind=bench" in capsys.readouterr().out

    assert ledger_main(["show", "--ledger", ledger_path,
                        "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["sha256"] == record_checksum(record)

    # an old server-lifetime record still reads, shows, and is ignored
    # by trend and gate, which follow bench records only
    with open(ledger_path, "a", encoding="utf-8") as fh:
        fh.write(SERVER_RECORD_LINE)
    records, skipped = Ledger(ledger_path).read()
    assert len(records) == 4 and skipped == 0
    assert ledger_main(["show", "--ledger", ledger_path,
                        "--index", "-1"]) == 0
    summary = capsys.readouterr().out
    assert "kind=server" in summary and "git=b4d1726671ac" in summary

    assert ledger_main(["trend", "--ledger", ledger_path,
                        "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["records"] == 3

    assert ledger_main(["gate", "--ledger", ledger_path,
                        "--window", "5"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert ledger_main(["gate", "--ledger", ledger_path, "--window", "5",
                        "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["history"] == 2
    assert set(report["experiments"]) == {"fig2", "fig3"}


def test_cli_gate_exit_1_on_slowdown(tmp_path, capsys):
    ledger_path = tmp_path / "L.jsonl"
    ledger = filled_ledger(ledger_path)
    ledger.append(record_from_bench(bench_doc(1.3)))
    code = ledger_main(["gate", "--ledger", str(ledger_path),
                        "--window", "5"])
    out = capsys.readouterr().out
    assert code == 1
    assert "fig2" in out and "serial_s" in out


def test_cli_gate_tolerates_torn_tail(tmp_path, capsys):
    ledger_path = tmp_path / "L.jsonl"
    filled_ledger(ledger_path)
    with open(ledger_path, "a", encoding="utf-8") as fh:
        fh.write('{"ledger_schema": 1, "torn')
    code = ledger_main(["gate", "--ledger", str(ledger_path),
                        "--window", "5"])
    captured = capsys.readouterr()
    assert code == 0
    assert "skipped 1 corrupt/torn line" in captured.err


def test_cli_errors_are_actionable(tmp_path, capsys):
    missing = str(tmp_path / "none.jsonl")
    assert ledger_main(["gate", "--ledger", missing]) == 2
    assert "bench --quick --ledger" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert ledger_main(["record", str(bad),
                        "--ledger", missing]) == 2
    assert "not JSON" in capsys.readouterr().err

    assert ledger_main(["record", str(tmp_path / "ghost.json"),
                        "--ledger", missing]) == 2
    assert "cannot read" in capsys.readouterr().err

    # a job server's stats document is not a foldable input
    stats = tmp_path / "stats.json"
    stats.write_text(json.dumps({
        "jobs": {"done": 2}, "uptime_s": 4.2,
        "metrics": {"repro_cache_hits_total": {"series": [{"value": 16}]}}}))
    assert ledger_main(["record", str(stats), "--ledger", missing]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "unrecognized document shape" in err
    assert "server" not in err
    assert not os.path.exists(missing)


def test_default_ledger_path_is_benchmarks_jsonl():
    assert DEFAULT_LEDGER_PATH == os.path.join("benchmarks",
                                               "LEDGER.jsonl")


# -- integration with the real bench document -----------------------------


def test_real_bench_doc_folds_with_fidelity(tmp_path):
    """An actual run_bench document (fig-less quick subset) folds; a
    figure experiment's document carries fidelity into the record, and
    folding never perturbs the simulated results (bit-identity)."""
    from repro.core import spp1000
    from repro.exec.bench import run_bench

    doc = run_bench(spp1000(), jobs=2, quick=True,
                    experiment_ids=["fig2"])
    assert doc["experiments"]["fig2"]["identical"] is True
    assert "fig2" in doc["fidelity"]
    assert doc["fidelity"]["fig2"]["within_tolerance"] is True
    assert doc["git_dirty"] in (True, False, None)
    record = record_from_bench(doc)
    assert record["fidelity"]["fig2"]["metrics"]
    ledger = Ledger(str(tmp_path / "L.jsonl"))
    stamped = ledger.append(record)
    loaded, skipped = ledger.read()
    assert skipped == 0 and loaded[0] == stamped
