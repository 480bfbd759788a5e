"""The shared soak-runner helper and its exit-code contract.

Every digest-pinned soak command (``chaos-soak``, ``ha-soak``,
``fleet``, ``wire-chaos-soak``, ``tenancy-soak``) routes through
``repro.cli.run_soak_command``; these tests pin each exit path once,
against a stub runner, plus the tenancy command end to end.
"""

import io
import json
from dataclasses import dataclass, field
from types import SimpleNamespace

from repro.cli import main, run_soak_command
from repro.errors import ChaosError


@dataclass
class StubResult:
    digest: str = "cafe" * 16
    failure: object = None
    invariants: dict = field(
        default_factory=lambda: {"green": True, "also-green": True}
    )
    worker_crash: bool = False

    @property
    def ok(self):
        return self.failure is None and all(self.invariants.values())

    def to_dict(self):
        return {"digest": self.digest, "ok": self.ok}


def _args(**overrides):
    defaults = {
        "list_plans": False,
        "json": False,
        "obs_file": None,
        "expect_digest": None,
    }
    defaults.update(overrides)
    return SimpleNamespace(**defaults)


def _invoke(result=None, args=None, run=None, **kwargs):
    out = io.StringIO()
    code = run_soak_command(
        args if args is not None else _args(),
        out,
        label="stub-soak",
        digest_label="stub digest",
        run=run if run is not None else (lambda log: result),
        error_types=(ChaosError,),
        list_plans=lambda stream: print("plans!", file=stream),
        **kwargs,
    )
    return code, out.getvalue()


def test_exit_0_all_green():
    result = StubResult()
    code, output = _invoke(result)
    assert code == 0
    assert "stub digest: %s" % result.digest in output
    assert "stub-soak: all invariants green" in output


def test_exit_0_list_plans_short_circuits():
    def boom(log):
        raise AssertionError("must not run")

    code, output = _invoke(args=_args(list_plans=True), run=boom)
    assert code == 0
    assert "plans!" in output


def test_exit_1_invariant_violated():
    result = StubResult(invariants={"b-bad": False, "a-bad": False})
    code, output = _invoke(result)
    assert code == 1
    # violations are listed sorted, for stable CI greps
    assert "invariant(s) violated: a-bad, b-bad" in output


def test_exit_1_failure_with_note():
    notes = []
    result = StubResult(failure="the wheels came off")
    code, output = _invoke(
        result, failure_note=lambda res, stream: notes.append(res)
    )
    assert code == 1
    assert "stub-soak: FAILED: the wheels came off" in output
    assert notes == [result]


def test_exit_2_config_error():
    def bad(log):
        raise ChaosError("no such plan")

    code, output = _invoke(run=bad)
    assert code == 2
    assert "error: no such plan" in output


def test_exit_3_digest_mismatch_beats_failure():
    # the digest verdict is printed and returned even when the run also
    # failed: CI pinning a digest wants the mismatch diagnosis first
    result = StubResult(failure="also broken")
    code, output = _invoke(
        result, args=_args(expect_digest="feed" * 16)
    )
    assert code == 3
    assert "digest mismatch: expected %s" % ("feed" * 16) in output


def test_exit_4_worker_crash():
    result = StubResult(failure="worker died", worker_crash=True)
    code, output = _invoke(result)
    assert code == 4
    assert "FAILED: worker died" in output


def test_json_payload_and_obs_note():
    result = StubResult()
    code, output = _invoke(
        result, args=_args(json=True, obs_file="/tmp/events.jsonl")
    )
    assert code == 0
    payload = json.loads(output[output.index("{"):output.rindex("}") + 1])
    assert payload["ok"] is True
    assert "wrote obs events to /tmp/events.jsonl" in output


# -- the tenancy command end to end ------------------------------------


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


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
