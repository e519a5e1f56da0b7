"""Tests for fault-plan loading, validation, and the ambient-plan stack."""

import json
import os

import pytest

from repro.core import spp1000
from repro.faults import (FaultEvent, FaultPlan, FaultPlanError, PvmPolicy,
                          WatchdogPolicy, active_fault_plan, load_plan,
                          plan_from_dict, ring_loss_plan, use_faults,
                          validate_fault_plan, validate_plan_dict)

EXAMPLE = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                       "examples", "faults", "ring_loss.json")


def errors_of(data):
    return validate_plan_dict(data, spp1000(2))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_valid_plan_has_no_errors():
    assert errors_of({
        "description": "ok",
        "seed": 3,
        "events": [
            {"t_us": 0, "kind": "ring_fail", "ring": 0},
            {"t_us": 5, "kind": "pvm_loss", "p": 0.25},
            {"t_us": 9, "kind": "ring_recover", "ring": 0},
            {"t_us": 9, "kind": "cpu_fail", "cpu": 15},
            {"t_us": 12, "kind": "hypernode_fail", "hypernode": 1},
        ],
        "pvm": {"timeout_us": 25, "max_retries": 3, "backoff": 1.5},
        "watchdog": {"interval_us": 100, "timeout_us": 2000},
    }) == []


def test_non_dict_plan_rejected():
    assert "must be a JSON object" in errors_of([1, 2, 3])[0]


def test_unknown_top_level_key_lists_valid_keys():
    [err] = errors_of({"evnets": []})
    assert "evnets" in err and "events" in err


def test_unknown_event_key():
    [err] = errors_of(
        {"events": [{"t_us": 0, "kind": "ring_fail", "ring": 0,
                     "rign": 1}]})
    assert "events[0]" in err and "rign" in err


def test_unknown_kind_named():
    [err] = errors_of({"events": [{"t_us": 0, "kind": "ring_explode"}]})
    assert "ring_explode" in err and "ring_fail" in err


def test_missing_required_id_field():
    [err] = errors_of({"events": [{"t_us": 0, "kind": "ring_fail"}]})
    assert "requires the 'ring' field" in err


def test_id_field_invalid_for_kind():
    [err] = errors_of(
        {"events": [{"t_us": 0, "kind": "ring_fail", "ring": 0, "cpu": 3}]})
    assert "'cpu' is not valid for kind 'ring_fail'" in err


def test_ring_out_of_range_names_the_limit():
    [err] = errors_of({"events": [{"t_us": 0, "kind": "ring_fail",
                                   "ring": 5}]})
    assert "ring 5 out of range" in err and "4 rings: 0..3" in err


def test_cpu_and_hypernode_out_of_range():
    errs = errors_of({"events": [
        {"t_us": 0, "kind": "cpu_fail", "cpu": 16},
        {"t_us": 0, "kind": "hypernode_fail", "hypernode": 2}]})
    assert any("cpu 16 out of range" in e for e in errs)
    assert any("hypernode 2 out of range" in e for e in errs)


def test_negative_and_non_monotonic_timestamps():
    errs = errors_of({"events": [
        {"t_us": -1, "kind": "ring_fail", "ring": 0},
        {"t_us": 10, "kind": "ring_fail", "ring": 1},
        {"t_us": 5, "kind": "ring_recover", "ring": 1}]})
    assert any("non-negative" in e for e in errs)
    assert any("precedes the previous event" in e for e in errs)


def test_pvm_loss_without_probability():
    [err] = errors_of({"events": [{"t_us": 0, "kind": "pvm_loss"}]})
    assert "sets no probability" in err


def test_probability_out_of_range():
    [err] = errors_of(
        {"events": [{"t_us": 0, "kind": "pvm_loss", "p": 1.5}]})
    assert "probability in [0, 1]" in err


def test_probability_key_on_wrong_kind():
    [err] = errors_of(
        {"events": [{"t_us": 0, "kind": "cpu_fail", "cpu": 1, "p": 0.5}]})
    assert "only valid for kind 'pvm_loss'" in err


def test_seed_must_be_integer_and_bool_is_not():
    assert any("seed" in e for e in errors_of({"seed": "7"}))
    assert any("seed" in e for e in errors_of({"seed": True}))


def test_policy_validation():
    errs = errors_of({"pvm": {"timeout_us": 0, "max_retries": -1,
                              "backoff": 0.5, "bogus": 1},
                      "watchdog": {"interval_us": -3}})
    assert any("timeout_us must be a positive" in e for e in errs)
    assert any("max_retries" in e for e in errs)
    assert any("backoff" in e for e in errs)
    assert any("'bogus'" in e for e in errs)
    assert any("watchdog: interval_us" in e for e in errs)


def test_plan_from_dict_raises_with_every_problem():
    with pytest.raises(FaultPlanError) as ei:
        plan_from_dict({"events": [
            {"t_us": 0, "kind": "ring_fail"},
            {"t_us": 0, "kind": "nope"}]}, spp1000(2))
    text = str(ei.value)
    assert "requires the 'ring' field" in text and "nope" in text


# ---------------------------------------------------------------------------
# loading and round trips
# ---------------------------------------------------------------------------

def test_load_example_plan():
    plan = load_plan(EXAMPLE, spp1000(2))
    assert plan.seed == 7
    assert [ev.kind for ev in plan.events] == ["ring_fail", "ring_fail"]
    assert [ev.ring for ev in plan.events] == [0, 1]
    assert not plan.is_empty


def test_load_plan_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(FaultPlanError, match="not valid JSON"):
        load_plan(str(path))
    path.write_bytes(b"\xff\xfe{}")  # not UTF-8
    with pytest.raises(FaultPlanError, match="not valid JSON"):
        load_plan(str(path))


def test_to_dict_round_trips(tmp_path):
    plan = plan_from_dict({
        "description": "round trip",
        "seed": 11,
        "events": [{"t_us": 2.5, "kind": "pvm_loss", "p": 0.1,
                    "ack_loss_p": 0.2}],
        "pvm": {"timeout_us": 30},
        "watchdog": {"interval_us": 100, "timeout_us": 400},
    }, spp1000(2))
    rebuilt = plan_from_dict(
        json.loads(json.dumps(plan.to_dict())), spp1000(2))
    assert rebuilt == plan


def test_ring_loss_plan_builder():
    plan = ring_loss_plan(2, t_us=3.0, seed=9)
    assert plan.seed == 9
    assert [(ev.kind, ev.ring, ev.t_ns) for ev in plan.events] == [
        ("ring_fail", 0, 3000.0), ("ring_fail", 1, 3000.0)]
    assert FaultPlan().is_empty


def test_default_policies():
    plan = plan_from_dict({"events": []})
    assert plan.pvm == PvmPolicy(timeout_us=50.0, max_retries=4, backoff=2.0)
    assert plan.watchdog is None
    wd = plan_from_dict({"watchdog": {"interval_us": 10, "timeout_us": 20}})
    assert wd.watchdog == WatchdogPolicy(interval_us=10, timeout_us=20)
    # a null policy validates, so it must load as the default
    nulls = plan_from_dict({"pvm": None, "watchdog": None})
    assert nulls.pvm == PvmPolicy() and nulls.watchdog is None


def test_event_to_dict_emits_microseconds():
    ev = FaultEvent(t_ns=1500.0, kind="ring_fail", ring=2)
    assert ev.to_dict() == {"t_us": 1.5, "kind": "ring_fail", "ring": 2}


# ---------------------------------------------------------------------------
# fault-plan file validation
# ---------------------------------------------------------------------------

def test_fault_plan_example_file_is_valid():
    example = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                           "examples", "faults", "ring_loss.json")
    assert validate_fault_plan(example) == []


def test_fault_plan_missing_file_is_reported_not_raised(tmp_path):
    [err] = validate_fault_plan(str(tmp_path / "absent.json"))
    assert "cannot read" in err


def test_fault_plan_bad_json_is_reported(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{]")
    [err] = validate_fault_plan(str(path))
    assert "not valid JSON" in err


def test_fault_plan_semantic_errors_are_actionable(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({
        "events": [{"t_us": 0, "kind": "ring_fail", "ring": 9}],
        "pvm": {"timeout_us": -5}}))
    errs = validate_fault_plan(str(path))
    assert any("ring 9 out of range" in e for e in errs)
    assert any("timeout_us" in e for e in errs)


# ---------------------------------------------------------------------------
# ambient plan stack
# ---------------------------------------------------------------------------

def test_use_faults_nests_and_none_masks():
    assert active_fault_plan() is None
    outer = ring_loss_plan(1)
    inner = ring_loss_plan(2)
    with use_faults(outer):
        assert active_fault_plan() is outer
        with use_faults(inner):
            assert active_fault_plan() is inner
        with use_faults(None):
            assert active_fault_plan() is None
        assert active_fault_plan() is outer
    assert active_fault_plan() is None


def test_use_faults_pops_on_exception():
    with pytest.raises(RuntimeError):
        with use_faults(ring_loss_plan(1)):
            raise RuntimeError("boom")
    assert active_fault_plan() is None
