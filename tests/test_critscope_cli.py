"""CLI tests for ``python -m repro critscope`` and the --critscope flag."""

import json

import pytest

from repro.cli import main


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path_factory, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR",
                       str(tmp_path_factory.mktemp("repro-cache")))


def critscope_json(capsys, *argv):
    assert main(["critscope", *argv, "--json", "--quick"]) == 0
    return json.loads(capsys.readouterr().out)


def test_critscope_fig3_reports_attribution_and_path(capsys):
    assert main(["critscope", "fig3", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "per-thread cycle attribution" in out
    assert "wait states" in out
    assert "critical path" in out
    assert "what-if projections" in out


def test_critscope_json_document(capsys):
    doc = critscope_json(capsys, "fig3")
    assert doc["experiment"] == "fig3"
    assert doc["schema_version"] == 2
    assert doc["threads"]
    assert doc["critical_path"]["total_us"] > 0
    cats = doc["critical_path"]["categories_us"]
    assert cats["barrier_wait"] > 0 or cats["barrier_release"] > 0


def test_critscope_what_if_selects_projections(capsys):
    doc = critscope_json(capsys, "fig2", "--what-if", "forkjoin=4")
    assert [p["category"] for p in doc["what_if"]] == ["forkjoin"]
    assert doc["what_if"][0]["factor"] == 4.0


@pytest.mark.parametrize("spec, needle", [
    ("forkjoin", "CATEGORY=FACTOR"),
    ("forkjoin=fast", "must be a number"),
    ("forkjoin=0", "must be > 0"),
    ("sorcery=2", "not projectable"),
    ("lock=2", "not projectable"),  # a retired category
])
def test_critscope_rejects_bad_what_if(capsys, spec, needle):
    assert main(["critscope", "fig3", "--what-if", spec]) == 2
    assert needle in capsys.readouterr().err


def test_critscope_unknown_experiment(capsys):
    assert main(["critscope", "not-an-experiment"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_critscope_without_experiment_or_trace(capsys):
    assert main(["critscope"]) == 2
    err = capsys.readouterr().err
    assert "experiment id" in err and "--trace" not in err


def test_critscope_flag_folds_block_into_manifest(tmp_path, capsys):
    metrics = tmp_path / "m.json"
    assert main(["fig3", "--quick", "--critscope",
                 "--metrics", str(metrics),
                 "--what-if", "barrier_release=2"]) == 0
    out = capsys.readouterr().out
    assert "critscope: fig3" in out
    manifest = json.loads(metrics.read_text())
    block = manifest["critscope"]
    assert block["threads"]
    assert [p["category"] for p in block["what_if"]] == ["barrier_release"]


def test_parser_documents_critscope_flags():
    from repro.cli import build_parser

    text = build_parser().format_help()
    for flag in ("--critscope", "--what-if", "critscope"):
        assert flag in text, f"missing {flag}"
