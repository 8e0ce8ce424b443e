"""Eigenbasis measurement and observable scheduling for the matched baseline."""

import math

import numpy as np
import pytest

from conftest import RefUCBStats, random_density, ref_select_index
from shadowcpd import harness as hz
from shadowcpd import matched as mt
from shadowcpd import qcore as qc


def test_projective_measurement_reports_eigenvalues():
    pm = mt.ProjectiveMeasurement(qc.pauli_string("X"))
    assert np.allclose(np.sort(pm.outcome_values), [-1.0, 1.0])
    evals, _ = qc.hermitian_eig(pm.observable.mat)
    assert np.allclose(pm.outcome_values, np.unique(np.round(evals, 9)))
    pm = mt.ProjectiveMeasurement(qc.pauli_string("XZ"))
    assert pm.outcome_values.tolist() == [-1.0, 1.0]


def _haar_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_born_weights_are_eigenspace_projections_in_any_basis():
    # rebuild each degenerate observable from an eigenbasis rotated by a random
    # unitary inside every eigenspace; the projectors Pi = (O - mu I)/(lam - mu)
    # of the two-level spectrum {mu, lam} are the oracle, built from O alone
    rng = np.random.default_rng(41)
    rho = qc.DensityMatrix(random_density(rng, 2))
    for obs in (qc.pauli_string("XX"), qc.rotated_observable(2, 0.7)):
        evals, evecs = np.linalg.eigh(obs.mat)
        mu, lam = evals[0], evals[-1]
        eye = np.eye(4)
        want = [np.trace((obs.mat - lam * eye) / (mu - lam) @ rho.mat).real,
                np.trace((obs.mat - mu * eye) / (lam - mu) @ rho.mat).real]
        seen = []
        for _ in range(5):
            rot = np.zeros((4, 4), dtype=complex)
            rot[:2, :2] = _haar_unitary(rng, 2)
            rot[2:, 2:] = _haar_unitary(rng, 2)
            v = evecs @ rot
            mat = v @ np.diag(evals) @ v.conj().T
            pm = mt.ProjectiveMeasurement(qc.Observable((mat + mat.conj().T) / 2))
            assert pm.outcome_values.size == 2
            assert np.all(np.diff(pm.outcome_values) > 0)
            assert pm.outcome_values == pytest.approx([mu, lam], abs=1e-12)
            got = pm.born_weights(rho)
            assert got == pytest.approx(want, abs=1e-12)
            seen.append(got)
        assert np.ptp(np.array(seen), axis=0).max() <= 1e-12


def test_eigenstate_gives_certain_outcome():
    pm = mt.ProjectiveMeasurement(qc.pauli_string("X"))
    rho = qc.make_theta_state(1, 1.0)  # the +1 eigenstate of X
    rng = np.random.default_rng(2)
    table = hz._EigenTable(pm, rho)
    draws = {table.draw(rng) for _ in range(50)}
    assert draws == {1.0}


def test_outcome_probabilities_match_trace_formula():
    # P(+1) for X against (I + theta X)/2 is (1 + theta)/2
    pm = mt.ProjectiveMeasurement(qc.pauli_string("X"))
    rng = np.random.default_rng(3)
    for theta in (-0.6, 0.0, 0.4):
        rho = qc.make_theta_state(1, theta)
        n = 20000
        table = hz._EigenTable(pm, rho)
        hits = sum(table.draw(rng) > 0 for _ in range(n))
        want = (1.0 + theta) / 2.0
        assert abs(hits / n - want) < 4.0 * math.sqrt(0.25 / n)


def test_two_qubit_mixed_state_splits_evenly():
    pm = mt.ProjectiveMeasurement(qc.pauli_string("XX"))
    rho = qc.DensityMatrix(np.eye(4) / 4.0)
    rng = np.random.default_rng(4)
    n = 8000
    table = hz._EigenTable(pm, rho)
    plus = sum(table.draw(rng) > 0 for _ in range(n))
    assert abs(plus / n - 0.5) < 4.0 * math.sqrt(0.25 / n)


def test_monte_carlo_mean_matches_expectation():
    rng = np.random.default_rng(5)
    rho = qc.DensityMatrix(random_density(rng, 2))
    obs = qc.rotated_observable(2, 0.7)
    pm = mt.ProjectiveMeasurement(obs)
    n = 100000
    table = hz._EigenTable(pm, rho)
    total = sum(table.draw(rng) for _ in range(n))
    tol = 4.0 * obs.op_norm / math.sqrt(n)
    assert abs(total / n - qc.expectation(rho, obs)) < tol


def test_outcomes_lie_in_spectrum_range():
    rng = np.random.default_rng(6)
    obs = qc.rotated_observable(1, 0.4)
    pm = mt.ProjectiveMeasurement(obs)
    rho = qc.DensityMatrix(random_density(rng, 1))
    table = hz._EigenTable(pm, rho)
    for _ in range(200):
        o = table.draw(rng)
        assert obs.eigmin - 1e-12 <= o <= obs.eigmax + 1e-12


def test_round_robin_cycles_in_order():
    got = [mt.select_index("round_robin", t, 3) for t in range(1, 5)]
    assert got == [0, 1, 2, 0]


def test_round_robin_balances_counts():
    counts = np.zeros(3, dtype=int)
    for t in range(1, 11):
        counts[mt.select_index("round_robin", t, 3)] += 1
    assert sorted(counts.tolist()) == [3, 3, 4]
    assert math.floor(10 / 3) <= counts.min() <= counts.max() <= math.ceil(10 / 3) + 0


def test_ucb_warms_up_each_index_once_in_order():
    stats = mt.UCBStats(3, delta=0.1)
    picks = []
    for t in range(1, 4):
        i = mt.select_index("ucb", t, 3, stats)
        picks.append(i)
        stats.record(i, 1.0)
    assert picks == [0, 1, 2]


def test_ucb_score_arithmetic():
    stats = mt.UCBStats(2, delta=0.1)
    for _ in range(4):
        stats.record(0, 1.0)
    stats.record(1, 1.2)
    scores = stats.scores()
    assert scores[0] == pytest.approx(1.0 + math.sqrt(2 * math.log(10.0) / 4), abs=1e-3)
    assert scores[1] == pytest.approx(1.2 + math.sqrt(2 * math.log(10.0) / 1), abs=1e-3)
    assert scores[0] == pytest.approx(2.073, abs=1e-3)
    assert scores[1] == pytest.approx(3.346, abs=1e-3)
    assert mt.select_index("ucb", 6, 2, stats) == 1


def test_ucb_breaks_ties_toward_first_index():
    stats = mt.UCBStats(3, delta=0.1)
    for i in range(3):
        stats.record(i, 0.7)
    assert mt.select_index("ucb", 4, 3, stats) == 0


def test_ucb_stats_track_only_selected_index():
    stats = mt.UCBStats(3)
    stats.record(1, 2.0)
    stats.record(1, 4.0)
    assert stats.counts.tolist() == [0, 2, 0]
    assert stats.increment_sums.tolist() == [0.0, 6.0, 0.0]


def test_select_index_validates_mode():
    with pytest.raises(ValueError):
        mt.select_index("other", 1, 2)


@pytest.mark.parametrize("delta", [0.1, 0.05, 0.3, 1e-6])
def test_ucb_matches_array_form_bit_for_bit(delta):
    # per-index scores against the array form kept in conftest; increments
    # drawn from a few values, and one stream of a single value, so that
    # scores tie exactly and the smallest index must win
    rng = np.random.default_rng(int(1 / delta))
    for n in range(1, 10):
        for values in ([1.0], [0.5, 1.0, 1.5], [0.9, 1.1], None):
            stats, ref = mt.UCBStats(n, delta), RefUCBStats(n, delta)
            ties = 0
            for t in range(1, 200):
                i = mt.select_index("ucb", t, n, stats)
                assert i == ref_select_index("ucb", t, n, ref), (n, values, t)
                incr = float(rng.choice(values)) if values else float(np.exp(rng.normal(0, 0.2)))
                stats.record(i, incr)
                ref.record(i, incr)
                assert stats.counts.tolist() == ref.counts.tolist()
                assert stats.increment_sums.tobytes() == ref.increment_sums.tobytes()
                if t >= n:
                    got, want = stats.scores(), ref.scores()
                    assert got.tobytes() == want.tobytes(), (n, values, t)
                    ties += int((want == want.max()).sum() > 1)
            if values == [1.0] and n > 1:
                assert ties > 0


def test_ucb_scores_need_every_index():
    stats = mt.UCBStats(2)
    stats.record(0, 1.0)
    with pytest.raises(ValueError):
        stats.scores()
