"""CLI tests for memscope and trace-file errors."""

import json

import pytest

from repro.cli import main


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


def test_memscope_unknown_experiment(capsys):
    assert main(["memscope", "not-an-experiment"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_memscope_without_experiment_or_trace(capsys):
    assert main(["memscope"]) == 2
    err = capsys.readouterr().err
    assert "experiment id" in err and "--trace" in err


def test_memscope_sample_must_be_positive(capsys):
    assert main(["memscope", "fig3", "--memscope-sample", "0"]) == 2
    assert "--memscope-sample" in capsys.readouterr().err


def test_bare_invocation_names_the_commands(capsys):
    assert main([]) == 2
    err = capsys.readouterr().err
    assert "memscope" in err and "ledger" in err
    assert "bench" not in err


# ---------------------------------------------------------------------------
# satellite 1: actionable errors for bad trace files, both commands
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("command", ["timeline", "memscope"])
def test_missing_trace_file_names_the_path(command, tmp_path, capsys):
    path = tmp_path / "nope.json"
    assert main([command, "--trace", str(path)]) == 2
    err = capsys.readouterr().err
    assert "cannot read trace file" in err
    assert str(path) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["timeline", "memscope"])
def test_corrupt_trace_file_names_the_path(command, tmp_path, capsys):
    path = tmp_path / "corrupt.json"
    path.write_text("{not json")
    assert main([command, "--trace", str(path)]) == 2
    err = capsys.readouterr().err
    assert "cannot parse trace file" in err
    assert str(path) in err
    assert "expected a Chrome trace" in err


@pytest.mark.parametrize("command", ["timeline", "memscope"])
def test_empty_trace_file_names_the_path(command, tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text('{"traceEvents": []}')
    assert main([command, "--trace", str(path)]) == 2
    err = capsys.readouterr().err
    assert "contains no events" in err
    assert str(path) in err
    assert "--trace" in err          # tells the user how to capture one


def test_memscope_from_captured_trace(tmp_path, capsys):
    trace = tmp_path / "t.json"
    assert main(["fig3", "--quick", "--trace", str(trace)]) == 0
    capsys.readouterr()
    assert main(["memscope", "--trace", str(trace), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["source"] == "trace"
    assert doc["breakdown"]["total_accesses"] > 0


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
