"""Tests for the command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path_factory, monkeypatch):
    """Keep CLI runs out of the user's real ~/.cache/repro."""
    monkeypatch.setenv("REPRO_CACHE_DIR",
                       str(tmp_path_factory.mktemp("repro-cache")))


def test_list_prints_every_experiment(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for exp_id in ("fig2", "fig3", "fig4", "fig6", "fig7", "fig8",
                   "table1", "table2", "ablations", "scale128"):
        assert exp_id in out


def test_unknown_experiment_fails_cleanly(capsys):
    assert main(["not-an-experiment"]) == 2
    err = capsys.readouterr().err
    assert "unknown experiment" in err


def test_run_single_experiment(capsys):
    assert main(["table2"]) == 0
    out = capsys.readouterr().out
    assert "Table 2" in out
    assert "4x16" in out


def test_hypernode_option_is_honoured(capsys):
    # the one-hypernode machine cannot cross hypernodes: fig3's uniform
    # placement then equals high locality
    assert main(["table1", "--hypernodes", "4"]) == 0
    assert "Table 1" in capsys.readouterr().out


def test_out_of_range_hypernode_count_exits_2(capsys):
    for argv in (["table1", "--hypernodes", "99"],
                 ["fig2", "--quick", "--hypernodes", "0"],
                 ["fig2", "--quick", "--hypernodes", "17"],
                 ["list", "--hypernodes", "0"],
                 ["memscope", "fig3", "--quick", "--hypernodes", "0"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "SPP-1000 supports 1..16 hypernodes\n"


def test_unknown_experiment_lists_valid_ids(capsys):
    assert main(["not-an-experiment"]) == 2
    err = capsys.readouterr().err
    assert "valid experiments" in err
    for exp_id in ("fig2", "fig3", "table2", "timeline"):
        assert exp_id in err


def test_parser_has_observability_flags():
    from repro.cli import build_parser

    text = build_parser().format_help()
    for flag in ("--seed", "--trace", "--metrics", "--profile"):
        assert flag in text


def test_seed_flag_is_accepted(capsys):
    assert main(["fig2", "--seed", "7", "--quick"]) == 0
    assert "fig2" in capsys.readouterr().out


def test_trace_and_metrics_outputs(tmp_path, capsys):
    """Acceptance criterion: fig3 --trace --metrics produces a valid
    Chrome trace (one track per CPU) and a manifest with per-phase
    counter deltas."""
    import json

    trace = tmp_path / "t.json"
    metrics = tmp_path / "m.json"
    assert main(["fig3", "--trace", str(trace),
                 "--metrics", str(metrics)]) == 0
    doc = json.loads(trace.read_text())
    events = doc["traceEvents"]
    assert events
    for ev in events:
        for key in ("ph", "ts", "pid", "tid"):
            assert key in ev
    cpu_tracks = [e for e in events
                  if e["ph"] == "M" and e["name"] == "thread_name"
                  and e["args"]["name"].startswith("cpu ")]
    assert len(cpu_tracks) == 16  # one per simulated CPU
    manifest = json.loads(metrics.read_text())
    assert manifest["experiment"]["id"] == "fig3"
    assert manifest["phases"]["fork_join"]["counters"]
    assert manifest["instrumentation"]["tracer_simulated_cost_ns"] == 0.0


def test_observed_run_ignores_a_warm_cache(tmp_path, capsys):
    """A traced run simulates what it reports: a cache the same run
    filled leaves its trace byte-identical to an uncached one."""
    cache = str(tmp_path / "cache")
    warm, cold = tmp_path / "warm.json", tmp_path / "cold.json"
    assert main(["fig3", "--quick", "--cache-dir", cache]) == 0
    assert main(["fig3", "--quick", "--cache-dir", cache,
                 "--trace", str(warm)]) == 0
    assert main(["fig3", "--quick", "--no-cache", "--trace", str(cold)]) == 0
    assert warm.read_bytes() == cold.read_bytes()


@pytest.mark.parametrize("where", ["missing-parent", "directory"])
def test_bad_progress_path_fails_before_the_run(where, tmp_path, capsys):
    path = (tmp_path / "nope" / "p.jsonl" if where == "missing-parent"
            else tmp_path)
    assert main(["fig2", "--quick", "--no-cache",
                 "--progress", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    expected = (f"output directory does not exist: {tmp_path / 'nope'}"
                if where == "missing-parent" else
                f"--progress {path} is a directory; pass a file path for "
                "the JSONL telemetry, or --progress alone for stderr")
    assert captured.err.splitlines() == [expected]


def test_profile_flag_prints_counters(capsys):
    assert main(["fig2", "--quick", "--profile"]) == 0
    out = capsys.readouterr().out
    assert "protocol counters" in out
    assert "span summary" in out
    assert "fork_join" in out


def test_timeline_demo_renders(capsys):
    assert main(["timeline"]) == 0
    out = capsys.readouterr().out
    assert "hn0/cpu0" in out
    assert "barrier.arrive" in out


def test_timeline_from_trace_file(tmp_path, capsys):
    trace = tmp_path / "t.json"
    assert main(["fig2", "--quick", "--trace", str(trace)]) == 0
    capsys.readouterr()
    assert main(["timeline", "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "spans:" in out


def test_run_prefix_is_accepted(capsys):
    assert main(["run", "list"]) == 0
    assert "fig3" in capsys.readouterr().out


def test_parser_has_robustness_flags():
    from repro.cli import build_parser

    text = build_parser().format_help()
    assert "--faults" in text


def test_missing_fault_plan_fails_cleanly(capsys):
    assert main(["degraded", "--faults", "/nonexistent/plan.json"]) == 2
    assert "cannot read fault plan" in capsys.readouterr().err


def test_invalid_fault_plan_lists_problems(tmp_path, capsys):
    plan = tmp_path / "bad.json"
    plan.write_text('{"events": [{"t_us": 0, "kind": "ring_fail",'
                    ' "ring": 9}], "bogus": 1}')
    assert main(["degraded", "--faults", str(plan)]) == 2
    err = capsys.readouterr().err
    assert "invalid fault plan" in err
    assert "ring 9 out of range" in err
    assert "bogus" in err


def test_metrics_directory_output(tmp_path, capsys):
    import json

    out_dir = tmp_path / "out"
    assert main(["fig2", "--quick", "--metrics",
                 str(out_dir) + "/"]) == 0
    manifest = json.loads((out_dir / "metrics.json").read_text())
    assert manifest["experiment"]["id"] == "fig2"


def test_parser_has_exec_flags():
    from repro.cli import build_parser

    text = build_parser().format_help()
    for flag in ("--jobs", "--cache-dir", "--no-cache", "--cache-stats"):
        assert flag in text


def test_jobs_zero_fails_with_actionable_message(capsys):
    assert main(["fig3", "--jobs", "0"]) == 2
    err = capsys.readouterr().err
    assert "--jobs must be >= 1" in err
    assert "--jobs 1" in err  # tells the user what to type instead


def test_list_shows_units_per_experiment(capsys):
    assert main(["list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for line in lines:
        assert "units" in line
    assert any(line.startswith("ablations") and " 6 units" in line
               for line in lines)


def test_dashdash_list_alias(capsys):
    assert main(["--list"]) == 0
    assert "fig3" in capsys.readouterr().out


def test_cache_stats_line(tmp_path, capsys):
    cache = tmp_path / "cache"
    assert main(["table1", "--cache-dir", str(cache),
                 "--cache-stats"]) == 0
    out = capsys.readouterr().out
    assert "[exec table1]" in out
    assert "2 units" in out
    # second run: every unit served from the cache, nothing recomputed
    assert main(["table1", "--cache-dir", str(cache),
                 "--cache-stats"]) == 0
    out = capsys.readouterr().out
    assert "0 computed" in out
    assert "2 hits" in out


def test_no_cache_disables_caching(tmp_path, capsys):
    cache = tmp_path / "cache"
    assert main(["table1", "--cache-dir", str(cache), "--no-cache",
                 "--cache-stats"]) == 0
    out = capsys.readouterr().out
    assert "cache" not in out.split("[exec table1]")[1].split("\n")[0] \
        or "hits" not in out
    assert not cache.exists()


def test_every_experiment_runs_on_one_hypernode():
    assert main(["all", "--quick", "--no-cache", "--hypernodes", "1"]) == 0


def test_parallel_run_matches_serial(capsys):
    assert main(["table2", "--no-cache", "--jobs", "2"]) == 0
    parallel_out = capsys.readouterr().out
    assert main(["table2", "--no-cache"]) == 0
    serial_out = capsys.readouterr().out
    assert parallel_out == serial_out


def test_cache_stats_report_fields_are_pinned(tmp_path):
    """The --cache-stats contract: to_dict keys and the render() shape.

    Downstream tooling (manifests' ``execution`` block, the job
    server's results) reads these fields by name; renames are breaking.
    """
    from repro.core import spp1000
    from repro.exec import ResultCache, execute

    cache = ResultCache(str(tmp_path / "cache"))
    _result, report = execute("table1", spp1000(), jobs=1, cache=cache)
    d = report.to_dict()
    assert set(d) == {
        "experiment_id", "jobs", "units_planned",
        "cache_hits", "cache_misses", "cache_stores", "cache_hit_rate",
        "computed", "retried_in_process",
        "wall_seconds", "cache_root", "host_timing", "unit_timings",
    }
    assert d["experiment_id"] == "table1"
    assert d["cache_stores"] == d["units_planned"] == 2
    line = report.render()
    assert line.startswith("[exec table1] ")
    assert "2 units" in line
    assert "2 computed (1 jobs)" in line
    assert "2 stored" in line
    assert "s wall" in line


def test_cache_stats_line_warm_run_shows_hits(tmp_path, capsys):
    cache = tmp_path / "cache"
    assert main(["table1", "--cache-dir", str(cache),
                 "--cache-stats"]) == 0
    capsys.readouterr()
    assert main(["table1", "--cache-dir", str(cache),
                 "--cache-stats"]) == 0
    line = [ln for ln in capsys.readouterr().out.splitlines()
            if ln.startswith("[exec table1]")][0]
    assert "cache 2 hits / 0 misses (100% hit rate)" in line


# ---------------------------------------------------------------------------
# resilience flags: --unit-timeout / --retries / --chaos
# ---------------------------------------------------------------------------

def test_parser_has_resilience_flags():
    from repro.cli import build_parser

    text = build_parser().format_help()
    for flag in ("--unit-timeout", "--retries", "--chaos"):
        assert flag in text


def test_unit_timeout_must_be_positive(capsys):
    assert main(["fig3", "--unit-timeout", "0"]) == 2
    assert "--unit-timeout must be > 0" in capsys.readouterr().err


def test_retries_must_be_non_negative(capsys):
    assert main(["fig3", "--retries", "-1"]) == 2
    assert "--retries must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("top", ["0", "-1"])
def test_top_must_be_positive(top, capsys):
    assert main(["memscope", "fig3", "--quick", "--json", "--top",
                 top]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"--top must be >= 1 (got {top})")
    assert len(captured.err.splitlines()) == 1


def test_missing_chaos_plan_fails_cleanly(capsys):
    assert main(["fig3", "--chaos", "/nonexistent/chaos.json"]) == 2
    assert "cannot read chaos plan" in capsys.readouterr().err


def test_non_utf8_chaos_plan_fails_cleanly(tmp_path, capsys):
    plan = tmp_path / "bom.json"
    plan.write_bytes(b'\xff\xfe{"faults": []}')
    assert main(["fig3", "--chaos", str(plan)]) == 2
    header, problem = capsys.readouterr().err.splitlines()
    assert header == f"invalid chaos plan {plan}:"
    assert problem.startswith(f"  {plan} is not valid JSON: 'utf-8' codec")


def test_invalid_chaos_plan_lists_problems(tmp_path, capsys):
    plan = tmp_path / "bad.json"
    plan.write_text('{"faults": [{"kind": "explode", "unit": 0},'
                    ' {"kind": "kill_worker"}], "bogus": 1}')
    assert main(["fig3", "--chaos", str(plan)]) == 2
    err = capsys.readouterr().err
    assert "invalid chaos plan" in err
    assert "'explode'" in err
    assert "bogus" in err
    assert "neither" in err


def test_cache_dir_pointing_at_file_is_actionable(tmp_path, capsys):
    target = tmp_path / "afile"
    target.write_text("x")
    assert main(["fig3", "--quick", "--cache-dir", str(target)]) == 2
    err = capsys.readouterr().err
    assert "is a file, not a directory" in err
    assert str(target) in err


def test_cache_dir_with_foreign_files_is_actionable(tmp_path, capsys):
    target = tmp_path / "docs"
    target.mkdir()
    (target / "notes.txt").write_text("x")
    assert main(["fig3", "--quick", "--cache-dir", str(target)]) == 2
    err = capsys.readouterr().err
    assert "non-cache files" in err and "notes.txt" in err


def _cache_values(root):
    """``{digest: value}`` of every entry in a result cache."""
    import json as _json

    values = {}
    for entry in (root / "objects").glob("*/*.json"):
        values[entry.stem] = _json.loads(entry.read_text())["value"]
    return values


def test_chaos_run_is_bit_identical_to_clean_serial(tmp_path, capsys):
    """The CLI-level pin of the chaos contract: kill two workers,
    corrupt cache entries, delay a unit -- same bytes out."""
    import json as _json

    chaos = tmp_path / "chaos.json"
    chaos.write_text(_json.dumps({"faults": [
        {"kind": "kill_worker", "unit": 0},
        {"kind": "kill_worker", "unit": 1},
        {"kind": "delay_unit", "unit": 2, "seconds": 0.02},
    ]}))
    clean = tmp_path / "clean"
    chaotic = tmp_path / "chaos"
    assert main(["fig3", "--quick", "--cache-dir", str(clean)]) == 0
    assert main(["fig3", "--quick", "--cache-dir", str(chaotic),
                 "--jobs", "2", "--chaos", str(chaos),
                 "--cache-stats"]) == 0
    # every unit's value, at full precision, in both runs' caches
    assert len(_cache_values(clean)) == 16
    assert _cache_values(chaotic) == _cache_values(clean)
    out = capsys.readouterr().out
    assert "survived" in out
    assert "chaos faults injected" in out


# -- the longitudinal ledger (python -m repro ledger) ---------------------


def write_run_record(path):
    """A ``benchmarks/e2e/run.py`` run record (``--seconds 1``)."""
    import json as _json

    path.write_text(_json.dumps({
        "workload": "des", "seconds": 1.0, "trace": False, "correct": True,
        "attempted": 15, "failed": 0,
        "metrics": {"run_s": {"value": 0.3255, "unit": "s"}},
        "failures": [], "detail": {},
        "provenance": {"seed": 1, "git_sha": None, "git_dirty": None,
                       "code_fingerprint": "e9189de1ee202e2f",
                       "host": {}}}))
    return path


def test_ledger_verb_dispatches(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # empty ledger: actionable error, exit 2, names the feeder commands
    assert main(["ledger", "show"]) == 2
    err = capsys.readouterr().err
    assert "benchmarks/e2e/run.py" in err and "ledger record" in err

    record = write_run_record(tmp_path / "des-seed1.json")
    ledger = tmp_path / "LEDGER.jsonl"
    assert main(["ledger", "record", str(record),
                 "--ledger", str(ledger)]) == 0
    assert "appended e2e record (#1" in capsys.readouterr().out
    assert main(["ledger", "show", "--ledger", str(ledger)]) == 0
    assert "kind=e2e workload=des" in capsys.readouterr().out
    assert main(["ledger", "trend", "--ledger", str(ledger),
                 "--metric", "run_s"]) == 0
    assert "run_s" in capsys.readouterr().out
    # one record: gate has no history -> trivial pass
    assert main(["ledger", "gate", "--ledger", str(ledger),
                 "--window", "5"]) == 0
    assert "insufficient history" in capsys.readouterr().out


def test_ledger_record_verb_folds_bench_json(tmp_path, capsys):
    """The benchmark's JSON run record folds, once per ``record``."""
    out = write_run_record(tmp_path / "des-seed1.json")
    ledger = tmp_path / "LEDGER.jsonl"
    assert main(["ledger", "record", str(out),
                 "--ledger", str(ledger)]) == 0
    assert "appended e2e record" in capsys.readouterr().out
    assert main(["ledger", "record", str(out),
                 "--ledger", str(ledger)]) == 0
    assert "#2" in capsys.readouterr().out


@pytest.mark.parametrize("path,expected", [
    ("/tmp/run.d/j", "/tmp/run.d/j.fig2"),
    ("/root/.cache/j", "/root/.cache/j.fig2"),
    ("out/trace.json", "out/trace.fig2.json"),
    ("m.json", "m.fig2.json"),
    ("trace", "trace.fig2"),
], ids=["dotted-dir", "hidden-dir", "extension", "bare-extension",
        "no-extension"])
def test_multi_experiment_outputs_stay_in_their_directory(path, expected):
    from repro.cli import _suffixed

    assert _suffixed(path, "fig2", multi=True) == expected
    assert _suffixed(path, "fig2", multi=False) == path
