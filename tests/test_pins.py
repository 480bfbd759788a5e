"""The copies of every digest pin agree.

Each ``--expect-digest`` step in ``.github/workflows/ci.yml`` is written
again in a docs pin table and, for most commands, as a tier-1 test
constant.  This test reads the workflow and the docs as text, and the
tier-1 constants from their test modules; it starts no run.  A
deliberate re-pin edits all the copies together, or this test fails.
"""

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

#: one pinned CLI call: the command, its flags, then the digest
PIN_CALL = re.compile(
    r"python -m repro ([\w-]+) ([^\n]*?)--expect-digest ([0-9a-f]{64})"
)


def ci_pins():
    """``{"command --flag value ...": digest}`` of every pinned CI step."""
    text = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    text = re.sub(r"\\\n\s*", "", text)  # join continued shell lines
    return {
        " ".join([command] + flags.split()): digest
        for command, flags, digest in PIN_CALL.findall(text)
    }


def tier1_pins():
    """The same calls' tier-1 constants, where a tier-1 test pins one."""
    from tests.chaos.test_soak import PINNED as CHAOS
    from tests.chaos.test_soak import STANDARD_SEED7_DIGEST
    from tests.ha.test_soak import PINNED as HA
    from tests.tenancy.test_soak import PINNED_DIGESTS as TENANCY
    from tests.wire import test_fleet_loopback as fleet
    from tests.wire.test_wire_chaos import PINNED as WIRE

    pins = {
        "chaos-soak --plan standard --seed 7": STANDARD_SEED7_DIGEST,
        "fleet --plan smoke --seed 7": fleet.SMOKE_SEED7_DIGEST,
        "fleet --plan sharded --seed 5 --clients 12 --intervals 2": (
            fleet.SHARDED_SEED5_DIGEST
        ),
        "fleet --plan standard --seed 7": fleet.STANDARD_SEED7_DIGEST,
    }
    for command, table in (
        ("chaos-soak", CHAOS),
        ("ha-soak", HA),
        ("wire-chaos-soak", WIRE),
        ("tenancy-soak", TENANCY),
    ):
        for plan, digest in table.items():
            pins["%s --plan %s --seed 7" % (command, plan)] = digest
    return pins


def docs_lines():
    return [
        line
        for path in sorted((REPO / "docs").glob("*.md"))
        for line in path.read_text().splitlines()
    ]


CI_PINS = ci_pins()


def test_the_workflow_pins_every_soak_command():
    commands = {call.split()[0] for call in CI_PINS}
    assert commands == {
        "chaos-soak", "ha-soak", "wire-chaos-soak", "tenancy-soak", "fleet",
    }
    assert len(CI_PINS) >= 17


@pytest.mark.parametrize("call", sorted(CI_PINS))
def test_ci_pin_is_in_a_docs_pin_table(call):
    plan = call.split()[call.split().index("--plan") + 1]
    digest = CI_PINS[call]
    assert any(
        digest in line and plan in line for line in docs_lines()
    ), "%s: %s is in no docs row naming %r" % (call, digest, plan)


#: CI pins that no tier-1 test repeats (too slow for tier-1)
CI_ONLY = {"fleet --plan surge --seed 7"}


def test_only_the_declared_ci_pins_lack_a_tier1_constant():
    assert set(CI_PINS) - set(tier1_pins()) == CI_ONLY


@pytest.mark.parametrize("call", sorted(set(CI_PINS) - CI_ONLY))
def test_ci_pin_equals_the_tier1_constant(call):
    assert CI_PINS[call] == tier1_pins()[call]
