"""CLI tests for hostscope and --progress live telemetry."""

import json

import pytest

from repro.cli import main


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path_factory, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR",
                       str(tmp_path_factory.mktemp("repro-cache")))


# ---------------------------------------------------------------------------
# python -m repro hostscope <experiment>
# ---------------------------------------------------------------------------

def hostscope_json(capsys, *argv):
    assert main(["hostscope", *argv, "--json", "--quick"]) == 0
    return json.loads(capsys.readouterr().out)


def test_hostscope_fig2_covers_95_percent(capsys):
    doc = hostscope_json(capsys, "fig2")
    assert doc["experiment"] == "fig2"
    assert doc["coverage"] >= 0.95
    assert doc["wall_s"] > 0
    assert doc["throughput"]["events_per_s"] > 0
    assert doc["throughput"]["sim_mcycles"] > 0
    assert "memory" in doc["regions"]
    assert "event_heap" in doc["regions"]


def test_hostscope_renders_tables(capsys):
    assert main(["hostscope", "fig3", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "hostscope: fig3" in out
    assert "host-time attribution" in out
    assert "simulator throughput" in out


def test_hostscope_unknown_experiment(capsys):
    assert main(["hostscope", "not-an-experiment"]) == 2
    err = capsys.readouterr().err
    assert "unknown experiment" in err
    assert "hostscope" in err            # listed among the commands


def test_hostscope_without_experiment_or_trace(capsys):
    assert main(["hostscope"]) == 2
    err = capsys.readouterr().err
    assert "experiment id" in err and "--trace" in err


def test_bare_invocation_names_hostscope(capsys):
    assert main([]) == 2
    assert "hostscope" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# satellite 6: actionable trace-file errors, same contract as the others
# ---------------------------------------------------------------------------

def test_missing_trace_file_names_the_path(tmp_path, capsys):
    path = tmp_path / "nope.json"
    assert main(["hostscope", "--trace", str(path)]) == 2
    err = capsys.readouterr().err
    assert "cannot read trace file" in err
    assert str(path) in err
    assert "Traceback" not in err


def test_corrupt_trace_file_names_the_path(tmp_path, capsys):
    path = tmp_path / "corrupt.json"
    path.write_text("{not json")
    assert main(["hostscope", "--trace", str(path)]) == 2
    err = capsys.readouterr().err
    assert "cannot parse trace file" in err
    assert str(path) in err
    assert "expected a Chrome trace" in err


def test_empty_trace_file_names_the_path(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text('{"traceEvents": []}')
    assert main(["hostscope", "--trace", str(path)]) == 2
    err = capsys.readouterr().err
    assert "contains no events" in err
    assert str(path) in err


def test_hostscope_from_captured_trace(tmp_path, capsys):
    trace = tmp_path / "t.json"
    assert main(["fig3", "--quick", "--trace", str(trace)]) == 0
    capsys.readouterr()
    assert main(["hostscope", "--trace", str(trace), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["source"] == "trace"
    assert doc["events"] > 0
    capsys.readouterr()
    assert main(["hostscope", "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "live run" in out             # points at the live command


# ---------------------------------------------------------------------------
# --hostscope on a normal run folds into the manifest
# ---------------------------------------------------------------------------

def test_hostscope_flag_folds_block_into_manifest(tmp_path, capsys):
    metrics = tmp_path / "m.json"
    assert main(["fig3", "--quick", "--hostscope",
                 "--metrics", str(metrics)]) == 0
    out = capsys.readouterr().out
    assert "hostscope: fig3" in out
    manifest = json.loads(metrics.read_text())
    block = manifest["hostscope"]
    assert block["coverage"] >= 0.95
    assert block["throughput"]["events"] > 0
    assert "event_heap" in block["regions"]


def test_parser_has_hostscope_and_progress_flags():
    from repro.cli import build_parser

    text = build_parser().format_help()
    for flag in ("--hostscope", "--progress"):
        assert flag in text, f"missing {flag}"


# ---------------------------------------------------------------------------
# --progress: live JSONL sweep telemetry
# ---------------------------------------------------------------------------

def read_jsonl(path):
    return [json.loads(line) for line in
            path.read_text().strip().splitlines()]


def test_progress_file_is_well_formed_jsonl(tmp_path, capsys):
    prog = tmp_path / "prog.jsonl"
    assert main(["fig3", "--quick", "--jobs", "2",
                 "--progress", str(prog)]) == 0
    records = read_jsonl(prog)
    assert records[0]["event"] == "start"
    assert records[-1]["event"] == "done"
    units = [r for r in records if r["event"] == "unit"]
    assert len(units) == records[0]["to_compute"]
    for rec in units:
        assert rec["t_s"] >= 0
        assert rec["run_s"] >= 0
        assert rec["queue_s"] >= 0
        assert 0 <= rec["done"] <= rec["total"]
        assert 0.0 <= rec["cache_hit_rate"] <= 1.0
        assert 0 <= rec["workers_busy"] <= rec["jobs"]
    assert units[-1]["done"] == units[-1]["total"]
    assert records[-1]["wall_s"] > 0


def test_progress_to_stderr_by_default(tmp_path, capsys):
    assert main(["fig3", "--quick", "--jobs", "1", "--progress"]) == 0
    err = capsys.readouterr().err
    lines = [json.loads(ln) for ln in err.strip().splitlines()
             if ln.startswith("{")]
    assert any(r["event"] == "unit" and r["where"] == "local"
               for r in lines)
    assert lines[-1]["event"] == "done"


def test_progress_warm_cache_run_emits_no_units(tmp_path, capsys):
    assert main(["fig3", "--quick"]) == 0           # warm the cache
    capsys.readouterr()
    prog = tmp_path / "warm.jsonl"
    assert main(["fig3", "--quick", "--progress", str(prog)]) == 0
    records = read_jsonl(prog)
    assert records[0]["event"] == "start"
    assert records[0]["to_compute"] == 0
    assert records[-1]["event"] == "done"
    assert records[-1]["cache_hit_rate"] == 1.0
