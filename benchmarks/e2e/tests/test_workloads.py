"""Inputs are a pure function of the seed; the contract file agrees
with the code."""

import json
import os

import layers
import run
import workloads
from conftest import ROOT


def _initial(n):
    return ["m%03d" % index for index in range(n)]


def test_trace_is_a_pure_function_of_the_seed():
    one = workloads.generate_trace(7, 0, _initial(64), 0.2, 12)
    two = workloads.generate_trace(7, 0, _initial(64), 0.2, 12)
    assert one == two
    assert one != workloads.generate_trace(8, 0, _initial(64), 0.2, 12)
    assert one != workloads.generate_trace(7, 1, _initial(64), 0.2, 12)
    # a shorter run replays a prefix of a longer one
    assert workloads.generate_trace(7, 0, _initial(64), 0.2, 5) == one[:5]


def test_trace_only_ever_removes_live_members():
    live = set(_initial(32))
    seen = set(live)
    for joins, leaves in workloads.generate_trace(3, 0, _initial(32), 0.3, 40):
        assert len(set(leaves)) == len(leaves)
        assert set(leaves) <= live
        assert not set(joins) & seen  # every join is a fresh name
        live = (live - set(leaves)) | set(joins)
        seen |= set(joins)
        assert len(live) >= 2


def test_replay_churn_hands_out_the_lists_by_interval():
    trace = workloads.generate_trace(5, 2, _initial(8), 0.2, 3)
    churn = workloads.ReplayChurn(trace)
    for interval, (joins, leaves) in enumerate(trace):
        events = churn.events(interval, set(), None)
        assert (events.joins, events.leaves) == (joins, leaves)
    assert churn.events(len(trace), set(), None).n_events == 0


def test_group_config_drops_knobs_the_dataclass_lost():
    config = workloads.make_group_config(
        {"engine": "numpy", "knob_from_the_future": 1}, seed=9
    )
    assert config.seed == 9
    assert config.engine == "numpy"
    assert not hasattr(config, "knob_from_the_future")


def test_benchmark_json_names_what_the_code_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert [w["name"] for w in contract["workloads"]] == list(
        workloads.WORKLOADS
    )
    # each why is the code's sentence, then the spread measured for it
    assert all(
        w["why"].startswith(workloads.WHY[w["name"]] + " Spread ")
        for w in contract["workloads"]
    )
    assert all(
        len(w["why"]) <= 200 and "\n" not in w["why"]
        for w in contract["workloads"]
    )
    assert {
        m["name"]: m["unit"] for m in contract["end_to_end"]
    } == run.END_TO_END_UNITS
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])
    assert {
        m["name"]: (m["unit"], m["better"]) for m in contract["per_layer"]
    } == {
        name: (unit, better)
        for name, (unit, better, _source) in layers.PER_LAYER.items()
    }
    assert len(contract["per_layer"]) <= 128
