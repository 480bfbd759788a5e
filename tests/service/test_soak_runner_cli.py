"""The one soak driver and its exit-code contract.

Every digest-pinned command (``fleet``, ``chaos-soak``, ``ha-soak``,
``wire-chaos-soak``, ``tenancy-soak``) is a row of
``repro.cli._SOAK_COMMANDS`` run by ``repro.cli._cmd_soak``; these tests
pin each exit path once through ``main``, against a stub plan added to
the fleet family, plus the tenancy command end to end.
"""

import io
import json

import pytest

from repro.chaos.soak import SoakPlan, soak_family
from repro.cli import _SOAK_COMMANDS, main
from repro.errors import ReproError, WorkerCrashError
from repro.util import canonical_digest

#: the stub's per-interval records: the fleet family digests these
RECORDS = [{"interval": 0, "rounds": 1}]


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


@pytest.fixture
def stub(monkeypatch):
    """``stub(run)`` adds plan ``stub`` to the fleet family; ``run(soak)``
    plays the plan's runner."""

    def install(run):
        monkeypatch.setitem(
            soak_family("fleet").plans,
            "stub",
            SoakPlan(
                run,
                sizes={"clients": 1, "intervals": 1, "workers": 0},
                description="plans!",
            ),
        )

    return install


def green(soak):
    soak.result.records = list(RECORDS)
    soak.result.invariants.update({"green": True, "also-green": True})


def test_exit_0_all_green(stub):
    stub(green)
    code, output = run_cli("fleet", "--plan", "stub")
    assert code == 0
    assert "fleet digest: %s" % canonical_digest(RECORDS) in output
    assert "fleet: all invariants green" in output


def test_exit_0_list_plans_short_circuits(stub):
    def boom(soak):
        raise AssertionError("must not run")

    stub(boom)
    code, output = run_cli("fleet", "--list-plans")
    assert code == 0
    assert "plans!" in output


def test_exit_1_invariant_violated(stub):
    stub(lambda soak: soak.result.invariants.update(
        {"b-bad": False, "a-bad": False}
    ))
    code, output = run_cli("fleet", "--plan", "stub")
    assert code == 1
    # violations are listed sorted, for stable CI greps
    assert "invariant(s) violated: a-bad, b-bad" in output


def test_exit_1_failure_with_note(stub):
    def unrecoverable(soak):
        soak.result.counters["expect_recoverable"] = False
        raise ReproError("the wheels came off")

    stub(unrecoverable)
    code, output = run_cli("fleet", "--plan", "stub")
    assert code == 1
    assert "fleet: FAILED: the wheels came off" in output
    assert "plan 'stub' is deliberately unrecoverable" in output


def test_exit_2_config_error():
    code, output = run_cli("fleet", "--plan", "nope")
    assert code == 2
    assert "error: unknown fleet plan 'nope'" in output
    assert "digest" not in output


def test_exit_3_digest_mismatch_beats_failure(stub):
    # the digest verdict is printed and returned even when the run also
    # failed: CI pinning a digest wants the mismatch diagnosis first
    def broken(soak):
        raise ReproError("also broken")

    stub(broken)
    code, output = run_cli(
        "fleet", "--plan", "stub", "--expect-digest", "feed" * 16
    )
    assert code == 3
    assert "digest mismatch: expected %s" % ("feed" * 16) in output


def test_exit_4_worker_crash(stub):
    def crash(soak):
        raise WorkerCrashError("worker died")

    stub(crash)
    code, output = run_cli("fleet", "--plan", "stub")
    assert code == 4
    assert "FAILED: worker died" in output


def test_json_payload_and_obs_note(stub, tmp_path):
    stub(green)
    path = str(tmp_path / "events.jsonl")
    code, output = run_cli(
        "fleet", "--plan", "stub", "--json", "--obs-file", path
    )
    assert code == 0
    payload = json.loads(output[output.index("{"):output.rindex("}") + 1])
    assert payload["ok"] is True
    assert payload["digest"] == canonical_digest(RECORDS)
    assert "wrote obs events to %s" % path in output


@pytest.mark.parametrize("command", sorted(_SOAK_COMMANDS))
def test_every_command_is_a_row_of_the_one_driver(command):
    """The five commands share the driver: an unknown plan is refused
    before anything runs, with exit 2 and no digest."""
    assert "fleet" in _SOAK_COMMANDS and len(_SOAK_COMMANDS) == 5
    code, output = run_cli(command, "--plan", "no-such-plan")
    assert code == 2
    assert "error:" in output
    assert "digest" not in output


# -- the tenancy command end to end ------------------------------------


def test_tenancy_soak_list_plans():
    code, output = run_cli("tenancy-soak", "--list-plans")
    assert code == 0
    assert "noisy-neighbor" in output
    assert "mass-rehome" in output


def test_tenancy_soak_small_run_green(tmp_path):
    code, output = run_cli(
        "tenancy-soak",
        "--plan", "noisy-neighbor",
        "--seed", "7",
        "--tenants", "6",
        "--ticks", "6",
        "--state-root", str(tmp_path),
    )
    assert code == 0, output
    assert "tenancy-timeline digest:" in output
    assert "all invariants green" in output


def test_tenancy_soak_digest_mismatch_exits_3(tmp_path):
    code, output = run_cli(
        "tenancy-soak",
        "--plan", "noisy-neighbor",
        "--seed", "7",
        "--tenants", "6",
        "--ticks", "6",
        "--state-root", str(tmp_path),
        "--expect-digest", "0" * 64,
    )
    assert code == 3
    assert "digest mismatch" in output


def test_tenancy_soak_bad_tenant_count_exits_2(tmp_path):
    code, output = run_cli(
        "tenancy-soak",
        "--plan", "noisy-neighbor",
        "--tenants", "1",
        "--state-root", str(tmp_path),
    )
    assert code == 2
    assert "error:" in output


def test_tenancy_soak_wal_corruption_tenant_minimum_exits_2(tmp_path):
    # the plan's cast needs four tenants: refused before the run, so no
    # digest is printed
    code, output = run_cli(
        "tenancy-soak",
        "--plan", "tenant-wal-corruption",
        "--tenants", "3",
        "--state-root", str(tmp_path),
    )
    assert code == 2
    assert "error:" in output
    assert "digest" not in output


def test_tenancy_soak_mass_rehome_tick_minimum_exits_2(tmp_path):
    code, output = run_cli(
        "tenancy-soak",
        "--plan", "mass-rehome",
        "--ticks", "2",
        "--state-root", str(tmp_path),
    )
    assert code == 2
    assert "error:" in output
    assert "digest" not in output
