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
    """Per-index selection counts, increment sums and UCB scores.

    ``record`` updates only the index it is given.  Its score
    s / c + sqrt(2 log(1/delta) / c) is built from correctly rounded IEEE
    operations, so it has the bits of the same formula evaluated over
    arrays.  An index not yet selected scores +inf.
    """

    def __init__(self, n: int, delta: float = UCB_DEFAULT_DELTA):
        if n < 1:
            raise ValueError("need at least one index")
        if not 0.0 < delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
        self._bonus = 2.0 * math.log(1.0 / float(delta))
        self._counts = [0] * n
        self._sums = [0.0] * n
        self._scores = [math.inf] * n

    @property
    def n(self) -> int:
        return len(self._counts)

    @property
    def counts(self) -> np.ndarray:
        return np.array(self._counts, dtype=np.int64)

    @property
    def increment_sums(self) -> np.ndarray:
        return np.array(self._sums)

    def record(self, index: int, increment: float) -> None:
        c = self._counts[index] + 1
        s = self._sums[index] + increment
        self._counts[index] = c
        self._sums[index] = s
        self._scores[index] = s / c + math.sqrt(self._bonus / c)

    def scores(self) -> np.ndarray:
        if 0 in self._counts:
            raise ValueError("UCB scores need every index selected at least once")
        return np.array(self._scores)


def select_index(mode: str, t: int, n: int, stats: UCBStats | None = None) -> int:
    """Index (0-based) of the observable to measure at step t >= 1.

    Round-robin cycles in order.  UCB warms up by forcing each index
    once, in order, then plays the highest mean-plus-bonus score with
    ties going to the smallest index.
    """
    if mode == "ucb" and stats is not None and stats.n == n and t >= 1:
        # the first maximal score: a cold index (+inf) during warm-up
        scores = stats._scores
        return scores.index(max(scores))
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
    raise ValueError(f"stats cover {stats.n} indices, expected {n}")
