"""Matched-measurement baselines: eigenbasis measurements and scheduling.

A detector that knows which observables matter can measure each one in
its own eigenbasis instead of through randomized shadows.  The outcome
is an eigenvalue, so the betting range is (eig_min, eig_max) rather
than the shadow estimator's inflated range.  Since only one observable
can be measured per step, a scheduler picks the index: round-robin
cycling or UCB on the observed capital increments.
"""

from __future__ import annotations

import math

import numpy as np

from .qcore import hermitian_eig

UCB_DEFAULT_DELTA = 0.1

# eigenvalues closer than this, relative to the spectrum's scale, are one outcome
EIGEN_GAP = 1e-9


class ProjectiveMeasurement:
    """Measurement in one observable's eigenbasis; one outcome per distinct eigenvalue.

    Outcome probabilities are Tr(Pi_lambda rho) for the eigenspace
    projectors Pi_lambda, which do not depend on the basis LAPACK picks
    inside a degenerate eigenspace.
    """

    def __init__(self, obs):
        self.observable = obs
        evals, evecs = hermitian_eig(obs.mat)
        scale = max(1.0, float(np.abs(evals).max()))
        starts = np.flatnonzero(np.diff(evals) > EIGEN_GAP * scale) + 1
        self.outcome_values = np.array([block.mean() for block in np.split(evals, starts)])
        # outcome index of each eigenvector column
        self._outcome_of = np.searchsorted(starts, np.arange(evals.size), side="right")
        self._bras = evecs.conj().T

    def born_weights(self, rho) -> np.ndarray:
        """Tr(Pi_lambda rho) for each distinct eigenvalue lambda, ascending."""
        per_vector = np.einsum("xi,ij,xj->x", self._bras, rho.mat, self._bras.conj(),
                               optimize=True).real
        return np.bincount(self._outcome_of, weights=per_vector,
                           minlength=self.outcome_values.size)


class UCBStats:
    """Per-index selection counts and increment sums for UCB scheduling."""

    def __init__(self, n: int, delta: float = UCB_DEFAULT_DELTA):
        if n < 1:
            raise ValueError("need at least one index")
        if not 0.0 < delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
        self.delta = float(delta)
        self.counts = np.zeros(n, dtype=np.int64)
        self.increment_sums = np.zeros(n)

    @property
    def n(self) -> int:
        return self.counts.size

    def record(self, index: int, increment: float) -> None:
        self.counts[index] += 1
        self.increment_sums[index] += increment

    def scores(self) -> np.ndarray:
        if self.counts.min() < 1:
            raise ValueError("UCB scores need every index selected at least once")
        means = self.increment_sums / self.counts
        return means + np.sqrt(2.0 * math.log(1.0 / self.delta) / self.counts)


def select_index(mode: str, t: int, n: int, stats: UCBStats | None = None) -> int:
    """Index (0-based) of the observable to measure at step t >= 1.

    Round-robin cycles in order.  UCB warms up by forcing each index
    once, in order, then plays the highest mean-plus-bonus score with
    ties going to the smallest index.
    """
    if t < 1:
        raise ValueError("time starts at 1")
    if n < 1:
        raise ValueError("need at least one index")
    if mode == "round_robin":
        return (t - 1) % n
    if mode != "ucb":
        raise ValueError(f"unknown scheduling mode {mode!r}")
    if stats is None:
        raise ValueError("ucb scheduling needs UCBStats")
    if stats.n != n:
        raise ValueError(f"stats cover {stats.n} indices, expected {n}")
    cold = np.flatnonzero(stats.counts == 0)
    if cold.size:
        return int(cold[0])
    return int(np.argmax(stats.scores()))
