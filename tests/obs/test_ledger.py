"""The longitudinal ledger: append/read integrity, folding run records of
``benchmarks/e2e/run.py``, trend, the regression rule behind the
windowed gate and diff, and the CLI verbs."""

import json
import os
from pathlib import Path

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
    render_trend,
    render_verdict,
    trend,
)

ROOT = Path(__file__).resolve().parents[2]


def run_record(scale=1.0, workload="des", seed=1, failed=0, p50=45.5):
    """A run record shaped like ``benchmarks/e2e/run.py`` writes it, with
    a controllable speed (``run_s`` is 0.32 s times ``scale``)."""
    values = {"setup_s": 0.29, "run_s": round(0.32 * scale, 6),
              "request_p50_ms": p50, "peak_rss_mb": 38.3,
              "fidelity_max_rel_err": 0.4454}
    units = {"setup_s": "s", "run_s": "s", "request_p50_ms": "ms",
             "peak_rss_mb": "MiB", "fidelity_max_rel_err": "ratio"}
    return {
        "workload": workload, "seconds": 10.0, "trace": False,
        "correct": not failed, "attempted": 60, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
        "failures": ["fig3 seed 7: digest mismatch"] * failed,
        "detail": {"pass_s": [0.32] * 12, "reference_s": [0.009] * 26},
        "provenance": {
            "host": {"cpu_count": 2, "cpu_model": "test",
                     "physical_cpus": 2, "python": "3.11.7",
                     "platform": "linux", "loadavg_1m": 0.1,
                     "calibration_miters_s": 8.1},
            "seed": seed, "git_sha": "deadbeef" * 5, "git_dirty": False,
            "code_fingerprint": "cafecafecafecafe", "passes": 12},
    }


def traced_record(workload="des"):
    """A ``--trace 1`` run record: per-layer metrics instead of the
    end-to-end ones."""
    doc = run_record(workload=workload)
    doc["trace"] = True
    doc["metrics"] = {
        "machine.memory_share": {"value": 0.4675, "unit": "frac"},
        "sim.dispatch_share": {"value": 0.2250, "unit": "frac"},
        "sim.mcycles_per_s": {"value": 25.39, "unit": "Mcycles/s"}}
    doc["detail"]["spans"] = [{"name": "exec.execute", "s": 0.1}]
    return doc


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


def bench_record_line():
    """The ``kind: "bench"`` line ``repro bench --ledger`` wrote before
    that command was removed: the first line of the committed ledger."""
    with open(ROOT / "benchmarks" / "LEDGER.jsonl", encoding="utf-8") as fh:
        return fh.readline()


def filled_ledger(path, scales=(1.0, 1.01, 0.99), workload="des"):
    ledger = Ledger(str(path))
    for scale in scales:
        ledger.append(fold_document(run_record(scale, workload=workload)))
    return ledger


# -- append/read integrity ------------------------------------------------


def test_append_read_roundtrip(tmp_path):
    ledger = filled_ledger(tmp_path / "L.jsonl")
    records, skipped = ledger.read()
    assert len(records) == 3 and skipped == 0
    for rec in records:
        assert rec["ledger_schema"] == LEDGER_SCHEMA
        assert rec["sha256"] == record_checksum(rec)
        assert rec["kind"] == "e2e"
        assert rec["workload"] == "des"
        assert rec["git_dirty"] is False
        assert rec["host"]["calibration_miters_s"] == 8.1
        assert rec["metrics"]["fidelity_max_rel_err"] == 0.4454
    assert [rec["metrics"]["run_s"] for rec in records] == [
        0.32, 0.3232, 0.3168]


def test_missing_file_reads_empty(tmp_path):
    records, skipped = Ledger(str(tmp_path / "none.jsonl")).read()
    assert records == [] and skipped == 0


def test_tampered_record_is_skipped(tmp_path):
    path = tmp_path / "L.jsonl"
    filled_ledger(path)
    lines = path.read_text().splitlines()
    doc = json.loads(lines[1])
    doc["metrics"]["run_s"] = 99.9  # checksum now lies
    lines[1] = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")
    records, skipped = Ledger(str(path)).read()
    assert len(records) == 2 and skipped == 1


def test_torn_final_line_is_tolerated(tmp_path):
    path = tmp_path / "L.jsonl"
    filled_ledger(path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"ledger_schema": 1, "kind": "e2e", "trunc')
    records, skipped = Ledger(str(path)).read()
    assert len(records) == 3 and skipped == 1
    # the next append heals the torn tail instead of merging into it
    Ledger(str(path)).append(fold_document(run_record()))
    records, skipped = Ledger(str(path)).read()
    assert len(records) == 4 and skipped == 1


def test_committed_ledger_reads_without_skips():
    records, skipped = Ledger(str(ROOT / DEFAULT_LEDGER_PATH)).read()
    assert skipped == 0
    assert records[0]["kind"] == "bench"
    for rec in records:
        assert rec["sha256"] == record_checksum(rec)
    for rec in records[1:]:
        assert rec["kind"] == "e2e", rec["kind"]
        assert rec["failed"] == 0 and rec["git_dirty"] is False, rec


# -- folding --------------------------------------------------------------


def test_fold_document_detects_e2e_record():
    record = fold_document(run_record(seed=3))
    assert record == {
        "kind": "e2e", "workload": "des", "seed": 3, "trace": False,
        "metrics": {"setup_s": 0.29, "run_s": 0.32, "request_p50_ms": 45.5,
                    "peak_rss_mb": 38.3, "fidelity_max_rel_err": 0.4454},
        "attempted": 60, "failed": 0,
        "git_sha": "deadbeef" * 5, "git_dirty": False,
        "code_fingerprint": "cafecafecafecafe",
        "host": run_record()["provenance"]["host"],
    }
    traced = fold_document(traced_record())
    assert traced["trace"] is True
    assert traced["metrics"]["sim.mcycles_per_s"] == 25.39
    assert "detail" not in traced and "failures" not in traced


def test_fold_document_rejects_garbage():
    with pytest.raises(LedgerError, match="unrecognized"):
        fold_document({"nonsense": True})
    with pytest.raises(LedgerError, match="JSON object"):
        fold_document([1, 2, 3])
    # metrics not in the run record's {name: {value, unit}} shape
    with pytest.raises(LedgerError, match="unrecognized"):
        fold_document({"workload": "des", "metrics": {"run_s": 0.3}})
    # an old ledger line and a metrics manifest are not run records
    with pytest.raises(LedgerError, match="unrecognized"):
        fold_document(json.loads(bench_record_line()))
    manifest = {"schema_version": 1, "generator": "repro.obs",
                "provenance": {"git_sha": "abc"},
                "experiment": {"id": "fig2"}, "headline": {}}
    with pytest.raises(LedgerError, match="unrecognized"):
        fold_document(manifest)


# -- trend ----------------------------------------------------------------


def test_trend_follows_each_workload(tmp_path):
    ledger = filled_ledger(tmp_path / "L.jsonl")
    ledger.append(fold_document(run_record(0.15, workload="model")))
    # every submit refused: no request latency to plot
    ledger.append(fold_document(run_record(1.02, p50=None)))
    ledger.append(fold_document(traced_record()))
    with open(ledger.path, "a", encoding="utf-8") as fh:
        fh.write(bench_record_line() + SERVER_RECORD_LINE)
    records, skipped = ledger.read()
    assert (len(records), skipped) == (8, 0)

    report = trend(records)
    assert report["metric"] == "run_s" and report["records"] == 5
    assert report["workloads"]["des"]["values"] == [
        0.32, 0.3232, 0.3168, 0.3264]
    assert report["workloads"]["model"]["values"] == [0.048]
    assert trend(records, metric="request_p50_ms")["workloads"]["des"][
        "values"] == [45.5] * 3
    shares = trend(records, metric="machine.memory_share",
                   workload="des")
    assert shares["workloads"] == {"des": {
        "values": [0.4675], "latest": 0.4675, "min": 0.4675,
        "max": 0.4675, "spark": "▁"}}
    # the traced record takes no window slot
    assert trend(records, window=2)["workloads"]["des"]["values"] == [
        0.3168, 0.3264]
    text = render_trend(report)
    assert "des" in text and "model" in text and "5 e2e records" in text


def test_trend_fidelity_metric_and_unknown_metric(tmp_path):
    ledger = filled_ledger(tmp_path / "L.jsonl")
    records, _ = ledger.read()
    report = trend(records, metric="fidelity_max_rel_err")
    assert report["workloads"]["des"]["latest"] == 0.4454
    with pytest.raises(LedgerError, match="no record carries metric"):
        trend(records, metric="bogus")
    with pytest.raises(LedgerError, match="no e2e records for workload"):
        trend(records, workload="nope")


# -- the windowed gate ----------------------------------------------------


def test_gate_passes_on_flat_trajectory(tmp_path):
    records, _ = filled_ledger(tmp_path / "L.jsonl").read()
    report = gate(records, window=5)
    assert report["pass"] is True
    assert report["regressions"] == []
    assert report["workloads"]["des"]["history_n"] == 2
    assert "PASS" in render_verdict(report)


def test_gate_detects_synthetic_30pct_slowdown(tmp_path):
    ledger = filled_ledger(tmp_path / "L.jsonl")
    filled_ledger(ledger.path, workload="model")
    ledger.append(fold_document(run_record(1.3)))  # the slow record
    records, _ = ledger.read()
    report = gate(records, window=5)
    assert report["pass"] is False
    assert report["regressions"] == ["des: run_s"]
    assert report["workloads"]["des"]["status"] == "regression"
    assert report["workloads"]["model"]["status"] == "ok"
    text = render_verdict(report)
    assert "REGRESSION" in text and "FAIL: des: run_s" in text


def test_gate_trivial_pass_with_insufficient_history(tmp_path):
    ledger = Ledger(str(tmp_path / "L.jsonl"))
    ledger.append(fold_document(run_record(1.0)))
    ledger.append(fold_document(run_record(9.0)))  # huge, but only
    records, _ = ledger.read()                     # 1 prior record
    report = gate(records, window=5)
    assert report["pass"] is True
    assert report["notes"] == [
        "des: insufficient history (1 prior records, need 2): trivial pass"]


def test_gate_fails_on_fidelity_breach_even_when_fast(tmp_path):
    # a failed check (a golden digest that no longer matches) fails the
    # gate even with a fast run, and even without enough history
    ledger = filled_ledger(tmp_path / "L.jsonl")
    ledger.append(fold_document(run_record(0.5, failed=2)))
    records, _ = ledger.read()
    report = gate(records, window=5)
    assert report["pass"] is False
    assert report["regressions"] == []
    assert report["failures"] == ["des: 2/60 checks failed"]
    assert gate(records[-2:], window=5)["pass"] is False


def test_gate_looks_past_a_traced_record(tmp_path, capsys):
    """A traced record carries only the per-layer metrics: it neither
    hides the slow record before it from the gate nor takes a window
    slot."""
    ledger = filled_ledger(tmp_path / "L.jsonl",
                           scales=(1.0, 1.01, 0.99, 1.3))
    ledger.append(fold_document(traced_record()))
    records, _ = ledger.read()
    report = gate(records, window=3)
    assert report["regressions"] == ["des: run_s"]
    assert report["workloads"]["des"]["history_n"] == 2
    assert report["notes"] == []
    assert ledger_main(["gate", "--ledger", ledger.path,
                        "--window", "5"]) == 1
    assert "des: run_s" in capsys.readouterr().out


def test_gate_fails_on_a_traced_record_with_failed_checks(tmp_path):
    ledger = filled_ledger(tmp_path / "L.jsonl")
    broken = traced_record()
    broken["failed"] = 1
    ledger.append(fold_document(broken))
    records, _ = ledger.read()
    report = gate(records, window=5)
    assert report["pass"] is False
    assert report["failures"] == ["des: 1/60 checks failed"]
    assert report["workloads"]["des"]["status"] == "ok"
    # a workload of traced records alone is judged on its checks alone
    report = gate(records[-1:], window=5)
    assert report["pass"] is False and report["workloads"] == {}
    assert report["notes"] == ["des: the newest record has no run_s value"]


def test_gate_window_limits_history(tmp_path):
    """The window bounds which era the median describes: against the
    recent fast era a 1.3x record regresses; a window wide enough to
    be dominated by the old 5x-slow era calls the same record an
    improvement."""
    ledger = Ledger(str(tmp_path / "L.jsonl"))
    for scale in (5.0, 5.0, 5.0, 5.0, 1.0, 1.01, 1.3):
        ledger.append(fold_document(run_record(scale)))
    records, _ = ledger.read()
    assert gate(records, window=4)["pass"] is False
    assert gate(records, window=7)["pass"] is True


def test_gate_rejects_non_timing_metric(tmp_path):
    records, _ = filled_ledger(tmp_path / "L.jsonl").read()
    with pytest.raises(LedgerError, match="end-to-end metric"):
        gate(records, metric="sim.mcycles_per_s")


@pytest.mark.parametrize("window", [0, -3])
def test_window_must_be_positive(window, tmp_path, capsys):
    ledger = filled_ledger(tmp_path / "L.jsonl", scales=(1, 1, 1, 1, 5))
    records, _ = ledger.read()
    with pytest.raises(LedgerError, match="--window must be >= 1"):
        gate(records, window=window)
    with pytest.raises(LedgerError, match="--window must be >= 1"):
        trend(records, window=window)
    for verb in ("gate", "trend"):
        assert ledger_main([verb, "--ledger", ledger.path, "--window",
                            str(window)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1


# -- the regression rule with one history record ---------------------------


def test_one_history_ratio_and_threshold_boundaries():
    """One history record: the band is threshold x baseline and the
    ratio is current / baseline."""
    base = fold_document(run_record(1.0))
    report = judge(fold_document(run_record(3.0)), [base])
    assert report["workloads"]["des"]["ratio"] == pytest.approx(3.0)

    # the status changes exactly across 1 +- threshold
    def status(ratio, threshold=0.25):
        cur = dict(base, metrics={"run_s": base["metrics"]["run_s"] * ratio})
        return judge(cur, [base], threshold=threshold)[
            "workloads"]["des"]["status"]
    eps = 1e-9
    assert status(1.25 * (1 + eps)) == "regression"
    assert status(1.25 * (1 - eps)) == "ok"
    assert status(0.75 * (1 + eps)) == "ok"
    assert status(0.75 * (1 - eps)) == "improved"
    assert status(1.10, threshold=0.05) == "regression"
    assert status(1.04, threshold=0.05) == "ok"


# -- diff -----------------------------------------------------------------


def test_diff_records_reuses_compare_bench(tmp_path, capsys):
    """``ledger diff`` is record b judged against [a] by :func:`judge`,
    the rule the gate uses."""
    ledger = filled_ledger(tmp_path / "L.jsonl", scales=(1.0, 2.0))
    records, _ = ledger.read()
    assert ledger_main(["diff", "--ledger", ledger.path, "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report == judge(records[1], [records[0]])
    assert report["regressions"] == ["des: run_s"]  # 2x slower
    assert ledger_main(["diff", "--ledger", ledger.path]) == 1
    assert "REGRESSION" in capsys.readouterr().out


def test_diff_records_needs_two(tmp_path, capsys):
    ledger = filled_ledger(tmp_path / "L.jsonl", scales=(1.0,))
    assert ledger_main(["diff", "--ledger", ledger.path]) == 2
    assert ">= 2 e2e records" in capsys.readouterr().err


def test_diff_refuses_two_workloads(tmp_path, capsys):
    ledger = filled_ledger(tmp_path / "L.jsonl", scales=(1.0,))
    filled_ledger(ledger.path, scales=(1.0,), workload="model")
    assert ledger_main(["diff", "--ledger", ledger.path]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "'des'" in err and "'model'" in err


# -- the CLI --------------------------------------------------------------


def test_cli_record_show_trend_gate(tmp_path, capsys):
    ledger_path = str(tmp_path / "L.jsonl")
    # the bench line of older versions, then three run records
    with open(ledger_path, "w", encoding="utf-8") as fh:
        fh.write(bench_record_line())
    for seed, scale in ((1, 1.0), (2, 1.01), (3, 0.99)):
        path = tmp_path / f"des-seed{seed}.json"
        path.write_text(json.dumps(run_record(scale, seed=seed)))
        assert ledger_main(["record", str(path),
                            "--ledger", ledger_path]) == 0
    out = capsys.readouterr().out
    assert "appended e2e record (#4" in out and "sha256" in out

    assert ledger_main(["show", "--ledger", ledger_path]) == 0
    assert capsys.readouterr().out.strip() == (
        "kind=e2e workload=des seed=3 git=deadbeefdead setup_s=0.29 "
        "run_s=0.3168 request_p50_ms=45.5 peak_rss_mb=38.3 "
        "fidelity_max_rel_err=0.4454 failed=0/60")

    assert ledger_main(["show", "--ledger", ledger_path,
                        "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["sha256"] == record_checksum(record)

    # an old server-lifetime record still reads and shows; old bench and
    # server records are ignored by trend and gate
    with open(ledger_path, "a", encoding="utf-8") as fh:
        fh.write(SERVER_RECORD_LINE)
    records, skipped = Ledger(ledger_path).read()
    assert len(records) == 5 and skipped == 0
    assert ledger_main(["show", "--ledger", ledger_path,
                        "--index", "-1"]) == 0
    summary = capsys.readouterr().out
    assert "kind=server" in summary and "git=b4d1726671ac" in summary
    assert ledger_main(["show", "--ledger", ledger_path,
                        "--index", "0"]) == 0
    assert "kind=bench" in capsys.readouterr().out

    assert ledger_main(["trend", "--ledger", ledger_path,
                        "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["records"] == 3
    assert list(report["workloads"]) == ["des"]
    assert ledger_main(["trend", "--ledger", ledger_path,
                        "--workload", "des"]) == 0
    assert "des" in capsys.readouterr().out

    assert ledger_main(["gate", "--ledger", ledger_path,
                        "--window", "5"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert ledger_main(["gate", "--ledger", ledger_path, "--window", "5",
                        "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert list(report["workloads"]) == ["des"]
    assert report["workloads"]["des"]["history_n"] == 2


def test_cli_gate_exit_1_on_slowdown(tmp_path, capsys):
    ledger_path = tmp_path / "L.jsonl"
    filled_ledger(ledger_path)
    slow = tmp_path / "slow.json"
    slow.write_text(json.dumps(run_record(1.3)))
    assert ledger_main(["record", str(slow),
                        "--ledger", str(ledger_path)]) == 0
    code = ledger_main(["gate", "--ledger", str(ledger_path),
                        "--window", "5"])
    out = capsys.readouterr().out
    assert code == 1
    assert "REGRESSION" in out and "des: run_s" in out


def test_cli_gate_exit_1_on_failed_check(tmp_path, capsys):
    ledger_path = tmp_path / "L.jsonl"
    filled_ledger(ledger_path)
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(run_record(1.0, failed=1)))
    assert ledger_main(["record", str(broken),
                        "--ledger", str(ledger_path)]) == 0
    code = ledger_main(["gate", "--ledger", str(ledger_path),
                        "--window", "5"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL: des: 1/60 checks failed" in out


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
    err = capsys.readouterr().err
    assert "benchmarks/e2e/run.py" in err and "ledger record" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert ledger_main(["record", str(bad),
                        "--ledger", missing]) == 2
    assert "not JSON" in capsys.readouterr().err

    assert ledger_main(["record", str(tmp_path / "ghost.json"),
                        "--ledger", missing]) == 2
    assert "cannot read" in capsys.readouterr().err

    # a job server's stats document, a bench document and a metrics
    # manifest are not foldable inputs
    stats = {"jobs": {"done": 2}, "uptime_s": 4.2,
             "metrics": {"repro_cache_hits_total": {
                 "series": [{"value": 16}]}}}
    bench = {"schema_version": 2, "generator": "repro.exec.bench",
             "experiments": {}, "totals": {}}
    manifest = {"schema_version": 1, "generator": "repro.obs",
                "provenance": {"git_sha": "abc"},
                "experiment": {"id": "fig2"}}
    for doc in (stats, bench, manifest):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert ledger_main(["record", str(path), "--ledger", missing]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "unrecognized document shape" in err
    assert not os.path.exists(missing)


def test_default_ledger_path_is_benchmarks_jsonl():
    assert DEFAULT_LEDGER_PATH == os.path.join("benchmarks",
                                               "LEDGER.jsonl")
