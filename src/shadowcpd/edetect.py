"""Betting-based e-detectors for sequential changepoint detection.

Each monitored observable carries a Shiryaev-Roberts or a CUSUM
statistic, as configured, driven by positive capital multipliers
L = 1 + lambda * o_hat.  A weighted mixture across observables is
compared against the threshold 1/alpha, for SR and CUSUM alike, and
crossing it is the detection event.

Statistics are held in linear scale so the recursions stay exact at
ordinary magnitudes; once a value passes ``PROMOTE_AT`` a log offset
absorbs the excess, so post-change exponential growth cannot overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# mantissa cap before a factor is moved into the log offset
PROMOTE_AT = 1e12
_LOG_PROMOTE = math.log(PROMOTE_AT)
_EXP_MAX = 709.0  # largest safe argument to math.exp

SR = "sr"
CUSUM = "cusum"


@dataclass(frozen=True)
class DetectorConfig:
    """Mixture weights, error level, and recursion kind for a detector."""

    weights: tuple
    alpha: float
    kind: str = SR

    def __post_init__(self):
        w = tuple(float(x) for x in self.weights)
        object.__setattr__(self, "weights", w)
        if len(w) == 0:
            raise ValueError("weights must be nonempty")
        if any(x <= 0.0 for x in w):
            raise ValueError("all mixture weights must be positive")
        if abs(sum(w) - 1.0) > 1e-12:
            raise ValueError(f"mixture weights must sum to 1, got {sum(w)!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        if self.kind not in (SR, CUSUM):
            raise ValueError(f"kind must be {SR!r} or {CUSUM!r}, got {self.kind!r}")

    @property
    def n_observables(self) -> int:
        return len(self.weights)

    @property
    def threshold(self) -> float:
        return 1.0 / self.alpha


def uniform_weights(n: int) -> tuple:
    if n < 1:
        raise ValueError("need at least one observable")
    return (1.0 / n,) * n


class SequentialDetector:
    """Mixture e-detector over a stream of per-observable multipliers.

    ``advance`` consumes one round of multipliers (``None`` leaves an
    observable untouched, as when only one observable is measured per
    step) and reports whether the detector has stopped.  A stopped
    detector latches; stepping it again is an error.
    """

    def __init__(self, config: DetectorConfig):
        n = config.n_observables
        self._w = config.weights
        self._logw = np.log(self._w)
        # per-observable mantissas and log offsets of the configured statistic
        self._sr = config.kind == SR
        self._m = [0.0] * n
        self._off = [0.0] * n
        self._promoted = False  # any offset nonzero
        self._threshold = config.threshold
        self._log_threshold = math.log(config.threshold)
        self.stopped = False
        self.t = 0

    @property
    def n_observables(self) -> int:
        return len(self._m)

    def advance(self, increments) -> bool:
        """Apply one round: SR m <- L * (m + 1) or CUSUM m <- L * max(m, 1)."""
        if self.stopped:
            raise RuntimeError("detector already stopped; cannot step further")
        if len(increments) != len(self._m):
            raise ValueError(f"expected {self.n_observables} increments, got {len(increments)}")
        self.t += 1
        mant, off, sr = self._m, self._off, self._sr
        for i, incr in enumerate(increments):
            if incr is None:
                continue
            if not incr > 0.0:
                raise ValueError(f"capital multiplier must be positive, got {incr!r}")
            # 1 in the mantissa's scale; exp(-0.0) is exactly 1.0
            one = math.exp(-off[i]) if off[i] else 1.0
            m = mant[i]
            m = incr * (m + one) if sr else incr * (one if one > m else m)
            while m > PROMOTE_AT:
                m /= PROMOTE_AT
                off[i] += _LOG_PROMOTE
                self._promoted = True
            mant[i] = m
        mixture, stop = self._decide()
        if stop:
            self.stopped = True
        return stop

    def mixture(self) -> float:
        return self._decide()[0]

    def _decide(self):
        if not self._promoted:
            # exact in linear scale, so a boundary hit M == threshold stops;
            # summed over the observables in their declared order
            mixture = 0.0
            for w, m in zip(self._w, self._m):
                mixture += w * m
            mixture = float(mixture)  # the mantissas may be numpy scalars
            return mixture, mixture >= self._threshold
        with np.errstate(divide="ignore"):
            logs = self._logw + np.log(self._m) + self._off
        lm = float(np.logaddexp.reduce(logs))
        mixture = math.exp(lm) if lm < _EXP_MAX else math.inf
        return mixture, lm >= self._log_threshold
