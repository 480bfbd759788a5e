"""Packet-loss processes.

Two models:

- :class:`BernoulliLoss` — independent loss at rate ``p``; used to
  validate the analytic models (which assume independence).
- :class:`TwoStateMarkovLoss` — the paper's burst-loss model: a
  continuous-time two-state (Gilbert) chain with exponentially
  distributed sojourns, mean loss-burst ``burst_scale * p`` ms and mean
  loss-free period ``burst_scale * (1 - p)`` ms (``burst_scale`` = 100 ms
  in the paper), so the stationary loss rate is exactly ``p``.

Both expose the same two interfaces:

- ``sample_at(times, rng)`` — vectorised: loss indicator at each of an
  increasing array of times (exact CTMC skeleton sampling, no
  discretisation error);
- ``stepper(rng)`` — an iterator-style object for event-driven use.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.util.validation import check_positive, check_probability

_MS = 1e-3


class BernoulliLoss:
    """Independent loss at rate ``p``."""

    def __init__(self, p):
        self.p = check_probability("p", p)

    def sample_at(self, times, rng):
        """Loss indicators (True = lost) at each time (i.i.d.)."""
        times = np.asarray(times, dtype=float)
        return rng.random(times.shape) < self.p

    def stepper(self, rng):
        return _BernoulliStepper(self.p, rng)

    def __repr__(self):
        return "BernoulliLoss(p=%g)" % self.p


class _BernoulliStepper:
    def __init__(self, p, rng):
        self._p = p
        self._rng = rng

    def is_lost(self, time):
        return bool(self._rng.random() < self._p)


class TwoStateMarkovLoss:
    """Continuous-time two-state burst-loss chain.

    State ``LOSS`` drops every packet; state ``GOOD`` passes every
    packet.  Sojourn times are exponential with means
    ``burst_scale * p`` (loss) and ``burst_scale * (1 - p)`` (good),
    where ``burst_scale`` defaults to the paper's 100 ms.
    """

    def __init__(self, p, burst_scale_ms=100.0):
        self.p = check_probability("p", p)
        check_positive("burst_scale_ms", burst_scale_ms)
        self.burst_scale_ms = float(burst_scale_ms)
        if self.p in (0.0, 1.0):
            # Degenerate chains: permanently good / permanently lost.
            self._rate_leave_loss = None
            self._rate_leave_good = None
        else:
            mean_loss = self.burst_scale_ms * self.p * _MS
            mean_good = self.burst_scale_ms * (1.0 - self.p) * _MS
            self._rate_leave_loss = 1.0 / mean_loss
            self._rate_leave_good = 1.0 / mean_good
        #: exact float gap -> (P(loss | good), P(loss | loss)), shared by
        #: every stepper of this model.  Walks on a fixed slot grid see a
        #: handful of distinct gaps; each is computed once, by the same
        #: call the uncached walk makes.
        self._transitions = {}

    @property
    def stationary_loss_rate(self):
        """Long-run fraction of time in the LOSS state (equals ``p``)."""
        return self.p

    def _skeleton_probabilities(self, gaps):
        """P(LOSS at t+gap | state at t) for each gap, exact for a CTMC.

        Returns ``(p_loss_given_good, p_loss_given_loss)`` arrays.
        """
        a = self._rate_leave_good  # good -> loss rate
        b = self._rate_leave_loss  # loss -> good rate
        total = a + b
        pi_loss = a / total
        decay = np.exp(-total * gaps)
        p_loss_given_good = pi_loss * (1.0 - decay)
        p_loss_given_loss = pi_loss + (1.0 - pi_loss) * decay
        return p_loss_given_good, p_loss_given_loss

    def sample_at(self, times, rng):
        """Exact loss indicators at an increasing array of times.

        The initial state is drawn from the stationary distribution, so
        every call represents an independent link history.
        """
        times = np.asarray(times, dtype=float)
        if times.ndim != 1:
            raise SimulationError("times must be one-dimensional")
        if times.size == 0:
            return np.zeros(0, dtype=bool)
        if np.any(np.diff(times) < 0):
            raise SimulationError("times must be non-decreasing")
        if self.p == 0.0:
            return np.zeros(times.size, dtype=bool)
        if self.p == 1.0:
            return np.ones(times.size, dtype=bool)
        gaps = np.diff(times)
        p_given_good, p_given_loss = self._skeleton_probabilities(gaps)
        draws = rng.random(times.size)
        lost = np.empty(times.size, dtype=bool)
        lost[0] = draws[0] < self.p
        for i in range(1, times.size):
            threshold = p_given_loss[i - 1] if lost[i - 1] else p_given_good[i - 1]
            lost[i] = draws[i] < threshold
        return lost

    def sample_matrix(self, times, n_chains, rng):
        """``n_chains`` independent histories at the same time grid.

        Vectorised across chains — this is the fleet simulator's hot
        path (one chain per user).  Returns (n_chains, len(times)) bool.
        """
        times = np.asarray(times, dtype=float)
        if times.size == 0:
            return np.zeros((n_chains, 0), dtype=bool)
        if np.any(np.diff(times) < 0):
            raise SimulationError("times must be non-decreasing")
        if self.p == 0.0:
            return np.zeros((n_chains, times.size), dtype=bool)
        if self.p == 1.0:
            return np.ones((n_chains, times.size), dtype=bool)
        gaps = np.diff(times)
        p_given_good, p_given_loss = self._skeleton_probabilities(gaps)
        draws = rng.random((n_chains, times.size))
        lost = np.empty((n_chains, times.size), dtype=bool)
        lost[:, 0] = draws[:, 0] < self.p
        for i in range(1, times.size):
            threshold = np.where(
                lost[:, i - 1], p_given_loss[i - 1], p_given_good[i - 1]
            )
            lost[:, i] = draws[:, i] < threshold
        return lost

    def stepper(self, rng):
        """Event-driven sampler holding explicit sojourn state."""
        return _MarkovStepper(self, rng)

    def __repr__(self):
        return "TwoStateMarkovLoss(p=%g, burst_scale_ms=%g)" % (
            self.p,
            self.burst_scale_ms,
        )


class _MarkovStepper:
    """Walks one chain forward through strictly increasing query times."""

    def __init__(self, model, rng):
        self._model = model
        self._rng = rng
        self._last_time = None
        self._transitions = model._transitions
        if model.p == 0.0:
            self._lost = False
        elif model.p == 1.0:
            self._lost = True
        else:
            self._lost = bool(rng.random() < model.p)

    def is_lost(self, time):
        """Loss indicator at ``time`` (queries must be non-decreasing)."""
        model = self._model
        if model.p in (0.0, 1.0):
            return self._lost
        if self._last_time is not None:
            if time < self._last_time:
                raise SimulationError("loss queries must be non-decreasing")
            gap = time - self._last_time
            transition = self._transitions.get(gap)
            if transition is None:
                p_good, p_loss = model._skeleton_probabilities(
                    np.asarray([gap])
                )
                transition = self._transitions[gap] = (p_good[0], p_loss[0])
            threshold = transition[1] if self._lost else transition[0]
            self._lost = bool(self._rng.random() < threshold)
        self._last_time = time
        return self._lost
