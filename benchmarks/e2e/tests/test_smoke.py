"""The one command, at smoke scale: every metric, exact counts twice."""

import json
import os
import subprocess
import sys
import time

import layers
import run
import workloads
from conftest import E2E, ROOT

RESULTS = os.path.join(E2E, "out", "results.json")

#: on the wire workload real sockets decide what the receivers see, so
#: only the key-server side of the ledger repeats exactly there
SERVER_SIDE = (
    "keytree.", "crypto.keys.", "crypto.cipher.encrypt", "rekey.",
    "service.members.",
)


def _smoke():
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, os.path.join(E2E, "run.py"), "--scale", "smoke",
         "--seed", "7"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=170,
    )
    elapsed = time.monotonic() - start
    assert done.returncode == 0, done.stdout[-2000:]
    with open(RESULTS) as handle:
        return done.stdout, json.load(handle), elapsed


def _exact(workload, name):
    unit = layers.PER_LAYER[name][0]
    if unit == "ms" or name.startswith(("bench.", "wire.")):
        return False
    if workload == "wire_1024":
        return name.startswith(SERVER_SIDE)
    return True


def test_smoke_prints_every_metric_and_repeats_its_counts():
    text, first, elapsed = _smoke()
    assert elapsed < 30, "smoke run took %.1f s" % elapsed
    assert first["scale"] == "smoke" and first["claim"] is None
    assert "[smoke]" in text
    for workload in workloads.WORKLOADS:
        entry = first["workloads"][workload]
        for kind, names in (
            ("end_to_end", run.END_TO_END_UNITS),
            ("per_layer", {n: s[0] for n, s in layers.PER_LAYER.items()}),
        ):
            result = entry[kind]
            assert result["correct"] and result["failed"] == 0
            assert result["attempted"] >= 1
            assert set(result["metrics"]) == set(names)
            for name, unit in names.items():
                assert result["metrics"][name]["unit"] == unit
                # printed by name, with its unit
                assert any(
                    line.startswith(name + " ") and (" %s " % unit) in line
                    for line in text.splitlines()
                ), name
        assert all(
            value["value"] > 0
            for value in entry["end_to_end"]["metrics"].values()
        )
    _text, second, _elapsed = _smoke()
    for workload in workloads.WORKLOADS:
        one = first["workloads"][workload]["per_layer"]["metrics"]
        two = second["workloads"][workload]["per_layer"]["metrics"]
        for name in layers.PER_LAYER:
            if _exact(workload, name):
                assert one[name]["value"] == two[name]["value"], (
                    workload, name,
                )


def test_layers_are_bypassed_where_the_design_says():
    if not os.path.exists(RESULTS):
        _smoke()
    with open(RESULTS) as handle:
        results = json.load(handle)["workloads"]

    def value(workload, name):
        return results[workload]["per_layer"]["metrics"][name]["value"]

    for name in layers.PER_LAYER:
        if name.startswith("wire."):
            for workload in workloads.WORKLOADS:
                if workload != "wire_1024":
                    assert value(workload, name) == 0, (workload, name)
        if name.startswith(("service.wal.", "chaos.seams.", "fec.rse.",
                            "transport.", "fastpath.absorb.")):
            assert value("keyserver_cpu", name) == 0, name
    assert value("keyserver_durable", "chaos.seams.fsyncs") > 0
    assert value("sim_lossy", "transport.session.rounds") > 0
    assert value("wire_1024", "wire.codec.frames_decoded") > 0
    assert value("tenant_durable", "tenancy.scheduler.ran") == (
        workloads.SCALES["smoke"]["tenant_durable"]["tenants"]
    )


def test_a_bare_directory_is_refused(tmp_path):
    """Without the program's source there is nothing to measure: the
    command must fail without printing a result."""
    import shutil

    bare = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(
        E2E, bare, ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    done = subprocess.run(
        [sys.executable, str(bare / "run.py"), "--workload", "keyserver_cpu",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=tmp_path, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
