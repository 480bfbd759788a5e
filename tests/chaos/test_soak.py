"""End-to-end chaos-soak tests: determinism pins, plan outcomes, CLI,
and the harness's canonical projection (both modes).

The pinned digests are the determinism acceptance: each plan at seed 7
must replay the exact same canonical fault timeline on every machine.  If a deliberate change to the chaos layer or the daemon's
fault handling shifts the timeline, re-pin after inspecting the diff —
an *unexplained* digest change means nondeterminism leaked in.
"""

import io
import json

import pytest

from repro.chaos.soak import TIMELINE_KINDS, canonical_timeline, run_soak
from repro.cli import main
from repro.errors import RecoveryError
from repro.util import canonical_digest
from repro.wire.chaos import WIRE_TIMELINE_KINDS

#: sha256 of the canonical fault timeline for (standard, seed=7).
#: Last re-pinned when WAL replay began re-running committed intervals:
#: the ``recovery`` after the ``.prev`` fallback now resumes at interval
#: 9 with no replay interval, instead of merging two batches at 8.
STANDARD_SEED7_DIGEST = (
    "d36d26c8bbe16e7fcca91288ff9fcd34dcda08975fca20a1da95db8fe52bc597"
)

#: sha256 of the canonical fault timelines of the other plans at seed 7
#: (docs/robustness.md and the CI smoke job carry the same pins)
PINNED = {
    "io-storm": (
        "fbaa38210ed4e66ad3e716b2ce1d79ee84c46b70767ab9e90f81ef14fe4c46be"
    ),
    "storage-corruptor": (
        "2b3ac40766ae1ff7a57ffd2aef3732111094380816d04746535e4eb0e189ac82"
    ),
    "feedback-abuse": (
        "e3146179f980db3a3c156a44b07dbc25cb9f71ead51dc290729f5fac40d8e2ec"
    ),
    "unrecoverable": (
        "c99b8c4f0f509917650f94dd0238ad6bd4e3ee4ccff9162c949f47f8529eaf02"
    ),
}

#: the harness's two projection modes: (kinds, ordered, a kept kind) —
#: the chaos/HA/tenancy timelines keep program order, the wire one is
#: sorted because receive-side events land in scheduler order
PROJECTIONS = {
    "ordered": (TIMELINE_KINDS, True, "wal_quarantine"),
    "sorted": (WIRE_TIMELINE_KINDS, False, "wire_client_evicted"),
}


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


@pytest.mark.parametrize("mode", sorted(PROJECTIONS))
class TestCanonicalTimeline:
    def test_filters_unregistered_kinds(self, mode):
        kinds, ordered, kept = PROJECTIONS[mode]
        events = [
            {"kind": kept, "t": 1.0, "detail": {"fault": "x"}},
            {"kind": "wire_resync", "t": 2.0, "detail": {"member": "m"}},
            {"kind": "span", "t": 3.0, "detail": {"ms": 4.2}},
        ]
        timeline = canonical_timeline(events, kinds, ordered)
        assert timeline == [{"kind": kept, "detail": {"fault": "x"}}]

    def test_drops_volatile_detail(self, mode):
        kinds, ordered, kept = PROJECTIONS[mode]
        events = [
            {"kind": kept, "t": 123.4, "detail": {
                "quarantined": "/tmp/x/wal.jsonl.corrupt-0",
                "salvaged": 3,
                "error": "oserror text with /tmp/x paths",
            }},
            {"kind": "span", "t": 1.0, "detail": {"name": "n"}},  # not chaos
        ]
        timeline = canonical_timeline(events, kinds, ordered)
        assert timeline == [
            {"kind": kept, "detail": {
                "quarantined": "wal.jsonl.corrupt-0", "salvaged": 3,
            }},
        ]

    def test_drops_volatile_keys_and_basenames_paths(self, mode):
        kinds, ordered, kept = PROJECTIONS[mode]
        events = [
            {
                "kind": kept,
                "t": 1.0,
                "detail": {
                    "member": 3,
                    "error": "scheduler-worded noise",
                    "trace": "deadbeef",
                    "path": "/tmp/xyz123/wal.jsonl",
                },
            }
        ]
        (entry,) = canonical_timeline(events, kinds, ordered)
        assert entry["detail"] == {"member": 3, "path": "wal.jsonl"}

    def test_digest_is_stable(self, mode):
        kinds, ordered, kept = PROJECTIONS[mode]
        timeline = canonical_timeline(
            [{"kind": kept, "t": 0.0, "detail": {"op": "wal-fsync"}}],
            kinds,
            ordered,
        )
        assert canonical_digest(timeline) == canonical_digest(
            list(timeline)
        )
        assert canonical_digest(timeline) != canonical_digest([])

    def test_sorted_not_sequenced(self, mode):
        """Receive-side fault applications land in scheduler order; the
        sorted projection must not depend on it, while the ordered one
        keeps program order."""
        kinds, ordered, kept = PROJECTIONS[mode]
        a = {"kind": kept, "t": 1.0, "detail": {"slot": 9}}
        b = {"kind": kept, "t": 2.0, "detail": {"slot": 1}}
        forward = canonical_timeline([a, b], kinds, ordered)
        backward = canonical_timeline([b, a], kinds, ordered)
        if ordered:
            assert [e["detail"]["slot"] for e in forward] == [9, 1]
            assert canonical_digest(forward) != canonical_digest(backward)
        else:
            assert forward == backward
            assert canonical_digest(forward) == canonical_digest(backward)

    def test_client_side_fsm_events_are_excluded(self, mode):
        """Resync/rehome/stale-epoch counts are timing- and placement-
        dependent — they must never enter the digest."""
        kinds, _, _ = PROJECTIONS[mode]
        for kind in ("wire_resync", "wire_rehomed", "wire_stale_epoch",
                     "wire_register_giveup"):
            assert kind not in kinds


class TestStandardPlan:
    def test_all_invariants_green_and_digest_pinned(self, tmp_path):
        result = run_soak(
            "chaos", "standard", seed=7, state_dir=str(tmp_path)
        )
        assert result.ok, result.to_dict()
        assert result.invariants and all(result.invariants.values())
        assert result.restarts == 3
        assert result.faults_injected > 0
        assert result.digest == STANDARD_SEED7_DIGEST

    @pytest.mark.parametrize("plan", sorted(PINNED))
    def test_other_plans_digest_pinned(self, plan, tmp_path):
        result = run_soak("chaos", plan, seed=7, state_dir=str(tmp_path))
        assert result.ok, result.to_dict()
        assert result.digest == PINNED[plan]

    def test_result_serializes(self, tmp_path):
        result = run_soak(
            "chaos", "standard", seed=7, state_dir=str(tmp_path)
        )
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["ok"] is True
        assert payload["plan"] == "standard"
        assert payload["failure"] is None


class TestUnrecoverablePlan:
    def test_fails_with_recovery_error_not_traceback(self, tmp_path):
        result = run_soak(
            "chaos", "unrecoverable", seed=7, state_dir=str(tmp_path)
        )
        assert isinstance(result.failure, RecoveryError)
        assert result.ok  # failure IS this plan's expected outcome
        assert result.intervals_completed < result.intervals_target
        assert "every snapshot generation is damaged" in str(result.failure)


class TestChaosSoakCli:
    def test_green_run_exit_zero(self, tmp_path):
        code, output = run_cli(
            "chaos-soak", "--plan", "feedback-abuse", "--seed", "7",
            "--state-dir", str(tmp_path),
        )
        assert code == 0
        assert "all invariants green" in output

    def test_unrecoverable_exits_nonzero_cleanly(self, tmp_path):
        code, output = run_cli(
            "chaos-soak", "--plan", "unrecoverable", "--seed", "7",
            "--state-dir", str(tmp_path),
        )
        assert code == 1
        assert "deliberately unrecoverable" in output
        assert "Traceback" not in output

    def test_digest_mismatch_exits_three(self, tmp_path):
        code, output = run_cli(
            "chaos-soak", "--plan", "standard", "--seed", "7",
            "--state-dir", str(tmp_path), "--expect-digest", "deadbeef",
        )
        assert code == 3
        assert "digest mismatch" in output

    def test_json_output(self, tmp_path):
        code, output = run_cli(
            "chaos-soak", "--plan", "feedback-abuse", "--seed", "7",
            "--state-dir", str(tmp_path), "--json",
        )
        assert code == 0
        payload, _ = json.JSONDecoder().raw_decode(
            output[output.index("{"):]
        )
        assert payload["plan"] == "feedback-abuse"
        assert payload["ok"] is True
