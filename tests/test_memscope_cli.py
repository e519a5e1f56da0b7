"""CLI tests for memscope and for reading trace files."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import main

RING_LOSS = (Path(__file__).resolve().parents[1]
             / "examples" / "faults" / "ring_loss.json")


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path_factory, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR",
                       str(tmp_path_factory.mktemp("repro-cache")))


# ---------------------------------------------------------------------------
# python -m repro memscope <experiment>
# ---------------------------------------------------------------------------

def memscope_json(capsys, *argv):
    assert main(["memscope", *argv, "--json", "--quick"]) == 0
    return json.loads(capsys.readouterr().out)


def test_memscope_fig6_remote_fraction_rises_with_hypernodes(capsys):
    doc2 = memscope_json(capsys, "fig6_pic", "--hypernodes", "2")
    doc4 = memscope_json(capsys, "fig6_pic", "--hypernodes", "4")
    assert doc2["experiment"] == "fig6"
    assert doc2["n_hypernodes"] == 2 and doc4["n_hypernodes"] == 4
    f2 = doc2["breakdown"]["remote_fraction"]
    f4 = doc4["breakdown"]["remote_fraction"]
    assert 0.0 < f2 < f4, (f2, f4)
    # model-level experiment: the perfmodel attributed its phases too
    assert doc2["model"]["phases"]


def test_memscope_accepts_registered_id_and_module_stem(capsys):
    doc_by_stem = memscope_json(capsys, "fig6_pic")
    doc_by_id = memscope_json(capsys, "fig6")
    assert doc_by_stem["experiment"] == doc_by_id["experiment"] == "fig6"


def test_memscope_machine_experiment_renders_tables(capsys):
    assert main(["memscope", "fig3", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "miss-class breakdown" in out
    assert "source: machine" in out
    assert "ring occupancy" in out


#: sha256 of the stdout of ``python -m repro memscope <exp> --quick
#: --no-cache --json`` at 2 hypernodes.  Result digests miss a walk that
#: serves a line from the wrong bank; these catch it, because the JSON
#: carries bank, ring and crossbar occupancy, miss classes and hop
#: latencies.  Only a change that alters memscope's output or the machine
#: model on purpose may re-pin them.
MEMSCOPE_JSON_SHA256 = {
    "fig2": "d950d3bedbf6670a53a7cadd9540dc48f3a4c28d7c4f3ac8a53c0f4fb70335e1",
    "fig3": "4f143a0ce1cf4d98c8a8f10d3cac087aabe527dfdea026868222a3f39360b5e2",
    "fig4": "ca05e7ddee0ab522fcdcc2c49d33123fa3e3a8020d7dacb65d01e29d29f29902",
    "contention":
        "8e7576b470268ea6ec54e59e7f1c0d3fb4b883fa6a137a6468b25335f0af987d",
    "degraded":
        "8d9d58849f52194624cd301e4a29046cbb24b3c570b8ed9e7de074f51dd5bbda",
}


@pytest.mark.parametrize("exp", sorted(MEMSCOPE_JSON_SHA256))
def test_memscope_json_of_des_experiments_is_pinned(capsys, exp):
    assert main(["memscope", exp, "--quick", "--no-cache", "--json"]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == MEMSCOPE_JSON_SHA256[exp]


def test_memscope_unknown_experiment(capsys):
    assert main(["memscope", "not-an-experiment"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_memscope_command_reads_the_fault_plan(tmp_path, capsys):
    assert main(["memscope", "fig3", "--quick", "--no-cache", "--faults",
                 str(tmp_path / "missing.json")]) == 2
    assert "cannot read fault plan" in capsys.readouterr().err
    clean = memscope_json(capsys, "fig3")
    faulted = memscope_json(capsys, "fig3", "--faults", str(RING_LOSS))
    assert faulted["rings"] != clean["rings"]


def test_memscope_command_matches_the_flag(tmp_path, capsys):
    """The command and ``--memscope`` observe one run of the fabric:
    fig8's model phases are counted once per work unit by both."""
    doc = memscope_json(capsys, "fig8", "--no-cache")
    metrics = tmp_path / "m.json"
    assert main(["fig8", "--quick", "--no-cache", "--memscope",
                 "--metrics", str(metrics)]) == 0
    block = json.loads(metrics.read_text())["memscope"]
    assert doc["model"] == block["model"]
    assert doc["model"]["phases"]


def test_memscope_without_experiment_or_trace(capsys):
    assert main(["memscope"]) == 2
    err = capsys.readouterr().err
    assert "experiment id" in err and "--trace" not in err


def test_memscope_sample_must_be_positive(capsys):
    assert main(["memscope", "fig3", "--memscope-sample", "0"]) == 2
    assert "--memscope-sample" in capsys.readouterr().err


def test_bare_invocation_names_the_commands(capsys):
    assert main([]) == 2
    err = capsys.readouterr().err
    assert "memscope" in err and "ledger" in err
    assert "bench" not in err


# ---------------------------------------------------------------------------
# trace files: timeline reads them, the profilers point at a live run
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("command", ["timeline"])
def test_missing_trace_file_names_the_path(command, tmp_path, capsys):
    path = tmp_path / "nope.json"
    assert main([command, "--trace", str(path)]) == 2
    err = capsys.readouterr().err
    assert "cannot read trace file" in err
    assert str(path) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["timeline"])
def test_corrupt_trace_file_names_the_path(command, tmp_path, capsys):
    path = tmp_path / "corrupt.json"
    path.write_text("{not json")
    assert main([command, "--trace", str(path)]) == 2
    err = capsys.readouterr().err
    assert "cannot parse trace file" in err
    assert str(path) in err
    assert "expected a Chrome trace" in err


@pytest.mark.parametrize("command", ["timeline"])
def test_empty_trace_file_names_the_path(command, tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text('{"traceEvents": []}')
    assert main([command, "--trace", str(path)]) == 2
    err = capsys.readouterr().err
    assert "contains no events" in err
    assert str(path) in err
    assert "--trace" in err          # tells the user how to capture one


@pytest.mark.parametrize("content", [
    '{"ph": "i", "ts": 0.0, "pid": 0, "tid": 0, "name": "a"}\n'
    '{"ph": "i", "ts": 1.0, "pid": 0, "tid": 0, "name": "b"}\n',
    '{"ph": "i", "ts": 0.0, "pid": 0, "tid": 0, "name": "a"}',
    '[{"ph": "i", "ts": 0.0, "pid": 0, "tid": 0, "name": "a"}]',
    '{"events": []}',
    '{"traceEvents": [1, 2]}',
    '{"traceEvents": [{"ph": "i", "ts": 0.0, "pid": "hn0", "tid": 0}]}',
    '{"traceEvents": [{"ph": "X", "ts": 0.0, "dur": null, "pid": 0}]}',
], ids=["jsonl", "jsonl-one-line", "bare-array", "no-traceEvents",
        "events-not-objects", "pid-not-a-number", "dur-null"])
def test_timeline_reads_only_the_chrome_trace_object(content, tmp_path,
                                                      capsys):
    path = tmp_path / "t.json"
    path.write_text(content)
    assert main(["timeline", "--trace", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot parse trace file" in captured.err
    assert str(path) in captured.err
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("experiment", [[], ["fig3"]],
                         ids=["no-experiment", "fig3"])
@pytest.mark.parametrize("scope", ["memscope", "critscope", "hostscope"])
def test_profilers_read_no_trace_file(scope, experiment, tmp_path, capsys):
    """A profiler watches a live run; given --trace, it names the command
    that profiles the run and saves its trace, and touches no file."""
    path = tmp_path / "t.json"
    assert main([scope, *experiment, "--trace", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    exp = experiment[0] if experiment else "<experiment>"
    assert captured.err == (
        f"{scope} profiles a live run and reads no trace file; 'python -m "
        f"repro {exp} --{scope} --trace {path}' profiles the run and "
        "saves its trace\n")
    assert not path.exists()


@pytest.mark.parametrize("scope", ["memscope", "critscope", "hostscope"])
def test_profilers_write_no_manifest(scope, tmp_path, capsys):
    """A profiler command prints its profile; given --metrics, it names
    the flag form that folds the profile into a manifest, and runs
    nothing."""
    path = tmp_path / "m.json"
    assert main([scope, "fig3", "--quick", "--metrics", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"{scope} writes no metrics manifest; 'python -m repro fig3 "
        f"--{scope} --metrics {path}' folds its profile into one\n")
    assert not path.exists()


# ---------------------------------------------------------------------------
# --memscope on a normal run folds into the manifest
# ---------------------------------------------------------------------------

def test_memscope_flag_folds_block_into_manifest(tmp_path, capsys):
    metrics = tmp_path / "m.json"
    assert main(["fig3", "--quick", "--memscope",
                 "--metrics", str(metrics)]) == 0
    out = capsys.readouterr().out
    assert "memscope: fig3" in out
    manifest = json.loads(metrics.read_text())
    block = manifest["memscope"]
    # satellite 6: hits are counted, never silently zero
    assert block["breakdown"]["hits"] > 0
    assert block["breakdown"]["total_accesses"] > block["breakdown"]["hits"]
    prov = manifest["provenance"]
    assert prov["created_utc"] and prov["code_fingerprint"]


def test_parser_has_memscope_and_compare_flags():
    from repro.cli import build_parser

    text = build_parser().format_help()
    for flag in ("--memscope", "--memscope-sample", "--json", "--top"):
        assert flag in text, f"missing {flag}"
    # the bench command and its flags are gone
    for flag in ("--compare", "--bench-out", "--bench-experiments",
                 "--bench-diff-out", "--ledger"):
        assert flag not in text, f"stale {flag}"
