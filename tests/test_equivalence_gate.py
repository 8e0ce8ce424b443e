"""The comparison of the distribution-equivalence gate (tools/equivalence.py)."""

import importlib.util
from pathlib import Path

import numpy as np

_PATH = Path(__file__).resolve().parent.parent / "tools" / "equivalence.py"
_spec = importlib.util.spec_from_file_location("equivalence", _PATH)
eq = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(eq)

KS_LEVEL = eq.TEST_LEVEL


def test_equal_samples_pass_and_shifted_samples_fail():
    rng = np.random.default_rng(0)
    # run-length-like samples: integer, skewed, with ties
    ref = np.ceil(rng.exponential(200.0, size=2000))
    same = eq.compare(ref, ref.copy(), KS_LEVEL)
    assert same["ok"] and same["ks_d"] == 0.0 and same["ks_p"] == 1.0 and same["z"] == 0.0
    shifted = eq.compare(ref, ref + 0.2 * ref.std(), KS_LEVEL)
    assert not shifted["ok"]
    assert shifted["ks_p"] < KS_LEVEL and shifted["z"] > eq.MEAN_SE


def test_independent_draws_of_one_distribution_pass():
    rng = np.random.default_rng(1)
    ref, new = (np.ceil(rng.exponential(200.0, size=2000)) for _ in range(2))
    assert eq.compare(ref, new, KS_LEVEL)["ok"]


def test_bonferroni_split_over_both_tests_of_every_scenario():
    assert eq.TEST_LEVEL == eq.FAMILY_LEVEL / (2 * len(eq.SCENARIOS))
    assert abs(eq.two_sided_z(0.05) - 1.959964) < 1e-6
    assert eq.MEAN_SE == eq.two_sided_z(eq.TEST_LEVEL) > 3.0


def test_ks_pvalue_tracks_the_kolmogorov_tail():
    # the 1% point of the Kolmogorov distribution is 1.628
    n = 10_000
    d = 1.628 / np.sqrt(n / 2)
    assert abs(eq.ks_pvalue(d, n, n) - 0.01) < 0.001
    assert eq.ks_statistic([1, 2, 3], [4, 5, 6]) == 1.0
