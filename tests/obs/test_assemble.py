"""Tests for repro.obs.assemble — skew correction, timelines, digest.

The synthetic-stream tests pin the assembly *mechanics* (offset math,
completeness semantics, clock-free digests); the loopback-fleet tests
at the bottom pin the end-to-end trace digest for ``(smoke, seed=7)``
exactly like the wire plane pins its protocol digest, and prove the
digest is invariant to process placement (in-process vs sharded).
"""

import pytest

from repro.errors import ObsError
from repro.obs.assemble import (
    MILESTONES,
    Timeline,
    _median,
    _percentile,
    assemble,
    load_trace_dir,
    timeline_digest,
)

TRACE = "00000000000000a1"


def event(kind, **detail):
    return {"v": 1, "kind": kind, "detail": detail}


def announce_event(interval=1, mono=100.0, members=2, served=2):
    return event(
        "wire_announce",
        interval=interval,
        mono=mono,
        trace=TRACE,
        members=members,
        served=served,
    )


def milestone(kind, member_index, mono, interval=1, served=True, **extra):
    return event(
        kind,
        interval=interval,
        member_index=member_index,
        member="member-%04d" % member_index,
        trace=TRACE,
        cohort="low" if member_index % 2 else "high",
        served=served,
        mono=mono,
        **extra,
    )


def make_streams(skew_a=50.0, skew_b=-30.0):
    """Two client streams on skewed clocks; server barrier at t=100."""
    server_mono = 100.0

    def client(member_index, skew):
        base = server_mono - skew
        return [
            milestone("trace_announce", member_index, base + 0.001),
            milestone(
                "trace_first_data", member_index, base + 0.010, slot=0
            ),
            milestone(
                "trace_decoded",
                member_index,
                base + 0.050,
                recovery_round=1,
                dropped=member_index,
                latency_ms=49.0,
            ),
            milestone("trace_key_decrypted", member_index, base + 0.060),
        ]

    return {
        "server.jsonl": [announce_event(mono=server_mono)],
        "worker-00.jsonl": client(0, skew_a),
        "worker-01.jsonl": client(1, skew_b),
    }


class TestStatistics:
    def test_median(self):
        assert _median([3.0, 1.0, 2.0]) == 2.0
        assert _median([1.0, 2.0, 3.0, 4.0]) == 2.5
        with pytest.raises(ObsError):
            _median([])

    def test_percentile_matches_linear_interpolation(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert _percentile(values, 50) == 25.0
        assert _percentile(values, 0) == 10.0
        assert _percentile(values, 100) == 40.0
        assert _percentile([7.0], 99) == 7.0
        with pytest.raises(ObsError):
            _percentile([], 50)


class TestCompleteness:
    def base(self, **overrides):
        fields = dict(
            interval=1,
            member_index=0,
            member="member-0000",
            trace=TRACE,
            cohort="high",
            served=True,
            stream="s",
        )
        fields.update(overrides)
        return Timeline(**fields)

    def test_served_member_owes_decode_and_key(self):
        timeline = self.base()
        timeline.milestones = {"announce": 1.0}
        assert not timeline.complete
        timeline.milestones["decoded"] = 2.0
        assert not timeline.complete
        timeline.milestones["key_decrypted"] = 3.0
        assert timeline.complete  # first_data not required (unicast)

    def test_unserved_member_owes_only_announce(self):
        timeline = self.base(served=False)
        assert not timeline.complete
        timeline.milestones = {"announce": 1.0}
        assert timeline.complete


class TestAssemble:
    def test_offsets_recover_the_skew(self):
        asm = assemble(make_streams(skew_a=50.0, skew_b=-30.0))
        assert asm.offsets["worker-00.jsonl"] == pytest.approx(
            49.999, abs=1e-6
        )
        assert asm.offsets["worker-01.jsonl"] == pytest.approx(
            -30.001, abs=1e-6
        )

    def test_corrected_milestones_land_on_server_timeline(self):
        asm = assemble(make_streams())
        for timeline in asm.timelines:
            # After correction both members' milestones agree despite
            # clocks 80 seconds apart: announce ≈ barrier, ordered.
            assert timeline.milestones["announce"] == pytest.approx(
                100.0, abs=1e-3
            )
            times = [timeline.milestones[m] for m in MILESTONES]
            assert times == sorted(times)

    def test_decode_facts_extracted(self):
        asm = assemble(make_streams())
        by_index = {t.member_index: t for t in asm.timelines}
        assert by_index[1].recovery_round == 1
        assert by_index[1].dropped == 1
        assert by_index[1].latency_ms == 49.0
        assert all(t.complete for t in asm.timelines)
        assert asm.incomplete() == []

    def test_completeness_counts_against_the_barrier(self):
        streams = make_streams()
        del streams["worker-01.jsonl"]  # one member's stream lost
        asm = assemble(streams)
        assert asm.completeness() == {
            1: {"expected": 2, "seen": 1, "complete": 1}
        }

    def test_recovery_cdf_groups_by_cohort(self):
        cdf = assemble(make_streams()).recovery_cdf(points=(50,))
        assert set(cdf) == {"high", "low"}
        assert cdf["high"]["count"] == 1
        assert cdf["high"]["percentiles_ms"]["p50"] == 49.0

    def test_no_barrier_refused(self):
        with pytest.raises(ObsError):
            assemble({"s.jsonl": [milestone("trace_announce", 0, 1.0)]})

    def test_pre_tracing_announce_without_mono_is_skipped(self):
        streams = make_streams()
        streams["server.jsonl"].append(
            event("wire_announce", interval=9, members=1, served=1)
        )
        assert 9 not in assemble(streams).announces

    def test_load_trace_dir_requires_streams(self, tmp_path):
        with pytest.raises(ObsError):
            load_trace_dir(tmp_path)


class TestDigest:
    def test_clocks_and_streams_do_not_matter(self):
        # Same facts observed under wildly different clock skews and a
        # renamed stream must digest identically.
        first = assemble(make_streams(skew_a=50.0, skew_b=-30.0))
        shifted = make_streams(skew_a=-7.25, skew_b=1234.5)
        shifted["worker-99.jsonl"] = shifted.pop("worker-00.jsonl")
        second = assemble(shifted)
        assert first.digest() == second.digest()

    def test_facts_do_matter(self):
        streams = make_streams()
        streams["worker-00.jsonl"][2]["detail"]["recovery_round"] = 4
        assert assemble(streams).digest() != assemble(
            make_streams()
        ).digest()

    def test_order_independent(self):
        timelines = assemble(make_streams()).timelines
        assert timeline_digest(timelines) == timeline_digest(
            list(reversed(timelines))
        )


#: sha256 of the canonical (smoke, seed=7) timelines — the tracing
#: determinism pin, sibling of the wire plane's protocol digest.
SMOKE_SEED7_TRACE_DIGEST = (
    "0441cfdb8fbfe4b1fab932a278371d526c9470cbb0f1d492093b28af7b4cf99e"
)


class TestFleetTraces:
    """End-to-end over real loopback UDP (the slowest tests here)."""

    def test_smoke_fleet_digest_pinned_and_timelines_complete(
        self, tmp_path
    ):
        from repro.chaos.soak import run_soak

        result = run_soak("fleet", "smoke", seed=7, obs_dir=str(tmp_path))
        assert result.ok, result.to_dict()
        asm = assemble(load_trace_dir(tmp_path))
        assert asm.incomplete() == []
        assert asm.digest() == SMOKE_SEED7_TRACE_DIGEST
        # every interval's traces fully accounted for at the barrier
        for counts in asm.completeness().values():
            assert counts["seen"] == counts["expected"]
            assert counts["complete"] == counts["expected"]
        # and the paper's CDF is rebuildable per cohort from the traces
        cdf = asm.recovery_cdf()
        assert set(cdf) == {"high", "low"}
        for stats in cdf.values():
            p = stats["percentiles_ms"]
            assert p["p50"] > 0.0
            assert p["p99"] >= p["p50"]

    def test_trace_digest_invariant_to_worker_placement(self, tmp_path):
        from repro.chaos.soak import run_soak

        digests = []
        for workers in (0, 2):
            obs_dir = tmp_path / ("w%d" % workers)
            result = run_soak(
                "fleet",
                "sharded",
                seed=5,
                clients=12,
                intervals=2,
                workers=workers,
                obs_dir=str(obs_dir),
            )
            assert result.ok, result.to_dict()
            asm = assemble(load_trace_dir(obs_dir))
            assert asm.incomplete() == []
            digests.append(asm.digest())
            if workers:
                assert "worker-01.jsonl" in asm.streams
        assert digests[0] == digests[1]
