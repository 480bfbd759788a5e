"""Tests for repro.sim.loss — loss-rate and burstiness properties."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.loss import BernoulliLoss, TwoStateMarkovLoss
from repro.util import spawn_rng


class TestBernoulliLoss:
    def test_empirical_rate(self):
        rng = spawn_rng(1)
        model = BernoulliLoss(0.2)
        times = np.arange(50_000) * 0.1
        lost = model.sample_at(times, rng)
        assert lost.mean() == pytest.approx(0.2, abs=0.01)

    def test_zero_and_one(self):
        rng = spawn_rng(1)
        times = np.arange(100) * 0.1
        assert not BernoulliLoss(0.0).sample_at(times, rng).any()
        assert BernoulliLoss(1.0).sample_at(times, rng).all()

    def test_stepper(self):
        rng = spawn_rng(2)
        stepper = BernoulliLoss(0.5).stepper(rng)
        outcomes = {stepper.is_lost(t) for t in range(100)}
        assert outcomes == {True, False}

    def test_invalid_p(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            BernoulliLoss(1.5)


class TestTwoStateMarkovLoss:
    def test_stationary_rate_matches_p(self):
        """Long-run loss fraction equals p (the model's calibration)."""
        rng = spawn_rng(3)
        model = TwoStateMarkovLoss(0.2)
        times = np.arange(200_000) * 0.01  # 10 ms grid, 2000 s
        lost = model.sample_at(times, rng)
        assert lost.mean() == pytest.approx(0.2, abs=0.01)

    def test_low_rate(self):
        rng = spawn_rng(4)
        model = TwoStateMarkovLoss(0.02)
        times = np.arange(400_000) * 0.01
        assert model.sample_at(times, rng).mean() == pytest.approx(
            0.02, abs=0.005
        )

    def test_burstiness_at_short_gaps(self):
        """Back-to-back packets see correlated loss: P(lost | prev lost)
        far exceeds the stationary rate."""
        rng = spawn_rng(5)
        model = TwoStateMarkovLoss(0.2, burst_scale_ms=100.0)
        times = np.arange(300_000) * 0.001  # 1 ms apart: inside bursts
        lost = model.sample_at(times, rng)
        pairs = lost[:-1] & lost[1:]
        p_joint = pairs.mean()
        p_conditional = p_joint / lost[:-1].mean()
        assert p_conditional > 0.8  # >> 0.2

    def test_wide_gaps_decorrelate(self):
        """Packets far apart (10 s) are nearly independent."""
        rng = spawn_rng(6)
        model = TwoStateMarkovLoss(0.2)
        times = np.arange(100_000) * 10.0
        lost = model.sample_at(times, rng)
        p_conditional = (lost[:-1] & lost[1:]).mean() / max(
            lost[:-1].mean(), 1e-12
        )
        assert p_conditional == pytest.approx(0.2, abs=0.02)

    def test_degenerate_rates(self):
        rng = spawn_rng(7)
        times = np.arange(50) * 0.1
        assert not TwoStateMarkovLoss(0.0).sample_at(times, rng).any()
        assert TwoStateMarkovLoss(1.0).sample_at(times, rng).all()

    def test_empty_times(self):
        rng = spawn_rng(8)
        assert TwoStateMarkovLoss(0.2).sample_at([], rng).size == 0

    def test_decreasing_times_rejected(self):
        rng = spawn_rng(9)
        with pytest.raises(SimulationError):
            TwoStateMarkovLoss(0.2).sample_at([1.0, 0.5], rng)

    def test_sample_matrix_matches_rate(self):
        rng = spawn_rng(10)
        model = TwoStateMarkovLoss(0.2)
        times = np.arange(200) * 0.1
        matrix = model.sample_matrix(times, 2000, rng)
        assert matrix.shape == (2000, 200)
        assert matrix.mean() == pytest.approx(0.2, abs=0.01)

    def test_sample_matrix_chains_independent(self):
        rng = spawn_rng(11)
        model = TwoStateMarkovLoss(0.5)
        times = np.arange(500) * 0.1
        matrix = model.sample_matrix(times, 2, rng)
        assert not np.array_equal(matrix[0], matrix[1])

    def test_stepper_matches_rate(self):
        rng = spawn_rng(12)
        stepper = TwoStateMarkovLoss(0.3).stepper(rng)
        lost = [stepper.is_lost(t * 0.05) for t in range(50_000)]
        assert np.mean(lost) == pytest.approx(0.3, abs=0.02)

    @pytest.mark.parametrize(
        "times",
        [
            # A slot grid as the wire plane queries it: gaps carry float
            # noise (3*0.1 - 2*0.1 != 0.1), so a few distinct gaps recur.
            [slot * 0.1 for slot in range(400)],
            [slot * 0.001 for slot in range(400)],
            # Irregular gaps, repeated times (gap 0) and a jump.
            [0.0, 0.0, 0.05, 0.3, 0.3, 0.31, 5.0, 5.0004, 9.0, 9.0],
        ],
        ids=["grid-100ms", "grid-1ms", "irregular"],
    )
    def test_cached_stepper_matches_uncached_walk(self, times):
        """Caching transitions per exact float gap changes no indicator:
        the reference walk recomputes every transition, as the stepper
        did before the cache."""
        model = TwoStateMarkovLoss(0.3)
        stepper = model.stepper(spawn_rng(14))
        cached = [stepper.is_lost(t) for t in times]

        rng = spawn_rng(14)
        lost = bool(rng.random() < model.p)
        reference = [lost]
        for previous, time in zip(times, times[1:]):
            p_good, p_loss = model._skeleton_probabilities(
                np.asarray([time - previous])
            )
            threshold = p_loss[0] if lost else p_good[0]
            lost = bool(rng.random() < threshold)
            reference.append(lost)

        assert cached == reference
        gaps = {b - a for a, b in zip(times, times[1:])}
        assert len(stepper._transitions) == len(gaps)

    def test_stepper_rejects_time_reversal(self):
        rng = spawn_rng(13)
        stepper = TwoStateMarkovLoss(0.3).stepper(rng)
        stepper.is_lost(1.0)
        with pytest.raises(SimulationError):
            stepper.is_lost(0.5)

    def test_repr(self):
        assert "0.2" in repr(TwoStateMarkovLoss(0.2))
