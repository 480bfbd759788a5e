"""Tests for repro.obs.trace — ids, ambient context, phase profiling."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ObsError
from repro.obs import EventBus, Recorder
from repro.obs.trace import (
    PHASE_OF_SPAN,
    PHASES,
    TRACE_NONE,
    PhaseProfiler,
    current,
    current_trace,
    current_trace_id,
    format_trace,
    mint_trace_id,
    parse_trace,
    tracing,
)


class TestMint:
    def test_deterministic(self):
        assert mint_trace_id(7, 1) == mint_trace_id(7, 1)

    def test_distinct_across_intervals_and_seeds(self):
        ids = {
            mint_trace_id(seed, interval)
            for seed in range(5)
            for interval in range(1, 6)
        }
        assert len(ids) == 25

    def test_never_the_none_sentinel(self):
        for interval in range(1, 200):
            assert mint_trace_id(7, interval) != TRACE_NONE

    @given(
        seed=st.integers(0, 2**31 - 1),
        interval=st.integers(1, 2**31 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_fits_in_u64(self, seed, interval):
        assert 0 < mint_trace_id(seed, interval) < 2**64


class TestFormatParse:
    @given(trace_id=st.integers(0, 2**64 - 1))
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, trace_id):
        text = format_trace(trace_id)
        assert len(text) == 16
        assert parse_trace(text) == trace_id

    @pytest.mark.parametrize(
        "bad", [None, 7, "", "abc", "g" * 16, "0" * 15, "0" * 17]
    )
    def test_bad_input_refused(self, bad):
        with pytest.raises(ObsError):
            parse_trace(bad)


class TestAmbientContext:
    def test_nothing_active_outside(self):
        assert current() is None
        assert current_trace_id() == TRACE_NONE
        assert current_trace() is None

    def test_tracing_activates_and_restores(self):
        with tracing(0xDEAD, 3) as context:
            assert current() is context
            assert current_trace_id() == 0xDEAD
            assert current_trace() == format_trace(0xDEAD)
            assert context.interval == 3
        assert current() is None

    def test_nesting_restores_outer(self):
        with tracing(1, 1):
            with tracing(2, 2):
                assert current_trace_id() == 2
            assert current_trace_id() == 1
        assert current_trace_id() == TRACE_NONE

    def test_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with tracing(5, 1):
                raise RuntimeError("boom")
        assert current() is None


class TestPhaseProfiler:
    def test_folds_known_spans_onto_phases(self):
        profiler = PhaseProfiler("python")
        profiler.on_span("marking.apply", 2.0)
        profiler.on_span("message.encrypt", 1.0)
        profiler.on_span("message.sign", 0.5)
        profiler.on_span("fec.encode", 3.0)
        profiler.on_span("fec.decode", 1.0)
        profiler.on_span("no.such.span", 99.0)  # ignored
        assert profiler.totals == {
            "marking": 2.0,
            "keygen": 1.5,
            "fec": 4.0,
        }
        assert profiler.counts == {"marking": 1, "keygen": 2, "fec": 2}

    def test_finish_emits_event_and_histograms(self):
        bus = EventBus()
        obs = Recorder(bus=bus)
        profiler = PhaseProfiler("numpy")
        profiler.on_span("marking.apply", 2.5)
        profiler.on_span("daemon.deliver", 10.0)
        phases = profiler.finish(obs, interval=4)
        assert phases == {"delivery": 10.0, "marking": 2.5}
        (event,) = bus.of_kind("phase_profile")
        assert event["detail"]["interval"] == 4
        assert event["detail"]["engine"] == "numpy"
        assert event["detail"]["phases"] == phases
        assert event["detail"]["spans"] == {"delivery": 1, "marking": 1}
        histogram = obs.metrics.histogram(
            "phase_ms", phase="marking", engine="numpy"
        )
        assert histogram.count == 1
        assert histogram.sum == pytest.approx(2.5)

    def test_empty_profiler_emits_nothing(self):
        bus = EventBus()
        profiler = PhaseProfiler("python")
        assert profiler.finish(Recorder(bus=bus), interval=1) == {}
        assert bus.of_kind("phase_profile") == []

    def test_recorder_taps_closing_spans(self):
        """Installing a profiler on a Recorder prices real spans."""
        obs = Recorder(bus=EventBus())
        profiler = PhaseProfiler("python")
        obs.profiler = profiler
        with obs.span("marking.apply"):
            pass
        with obs.span("span.not.a.phase"):
            pass
        obs.profiler = None
        with obs.span("fec.encode"):  # after removal: not tapped
            pass
        assert set(profiler.counts) == {"marking"}

    def test_every_mapped_phase_is_declared(self):
        assert set(PHASE_OF_SPAN.values()) <= set(PHASES)


#: Spans a default-engine daemon interval over the ``sim`` backend
#: emits that are deliberately *not* priced into a phase: the interval
#: root and its stage wrappers (their children are the phases — pricing
#: both would count the time twice), ``message.build`` (the parent of
#: the keygen/assignment spans) and the delivery session's per-round
#: spans (inside ``daemon.deliver``).  A new span name must land either
#: in ``PHASE_OF_SPAN`` or here — silently unpriced is how ``fec`` read
#: 0.00 on the array plane.
UNPRICED_SPANS = (
    "daemon.interval",
    "daemon.carry",
    "daemon.intake",
    "daemon.rekey",
    "daemon.snapshot",
    "message.build",
    "session.round",
    "session.unicast",
)


class TestSpanCoverage:
    def test_every_span_of_a_default_interval_is_accounted_for(self):
        from repro.core import GroupConfig
        from repro.service import PoissonChurn, RekeyDaemon, SessionDelivery

        # rho > 1: proactive parity, so the FEC encoder runs at all
        config = GroupConfig(block_size=5, rho=1.6, crypto_seed=11, seed=42)
        assert config.engine == "numpy"
        bus = EventBus()
        daemon = RekeyDaemon.start_new(
            ["m%02d" % i for i in range(24)],
            config=config,
            backend=SessionDelivery(config),
            churn=PoissonChurn(alpha=0.3),
            obs=Recorder(bus=bus),
        )
        daemon.run(2)
        seen = {event["detail"]["name"] for event in bus.of_kind("span")}
        unaccounted = seen - set(PHASE_OF_SPAN) - set(UNPRICED_SPANS)
        assert not unaccounted, sorted(unaccounted)
        # the array plane's parity span is what the fec phase is made of
        assert "fec.encode_batch" in seen
        profiles = bus.of_kind("phase_profile")
        assert any(p["detail"]["phases"].get("fec", 0) > 0 for p in profiles)
