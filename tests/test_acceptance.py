"""End-to-end acceptance battery.

One test per acceptance criterion, each printing a single pass/fail line
(run with ``-s`` to see them on success).  The Monte Carlo criteria use
frozen master seeds so every number here is reproducible; the whole file
takes several minutes, dominated by the average-run-length arms.
"""

import math
import time

import numpy as np

from conftest import random_density, random_pauli_letters, ref_iter_settings, ref_shadow_estimate
from shadowcpd import betting as bt
from shadowcpd import edetect as ed
from shadowcpd import harness as hz
from shadowcpd import qcore as qc
from shadowcpd import shadows as sh


def check(num, ok, detail):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def _delay_stats(results):
    delays = np.array([r.delay for r in results if r.delay is not None], dtype=float)
    se = delays.std(ddof=1) / math.sqrt(delays.size) if delays.size > 1 else float("nan")
    return float(delays.mean()), float(se)


def _scenario(**overrides):
    doc = {
        "d": 2, "ensemble": "local", "observables": {"rotated": 1},
        "theta0": -0.5, "theta1": 1.0, "nu": 50, "alpha": 0.01,
        "policy": "escd", "run_cap": 2000,
    }
    doc.update(overrides)
    return hz.Scenario.from_dict(doc)


# ---------------------------------------------------------------------------
# 1. inverse-channel exactness


def test_criterion_01_reconstruction_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_local = 0.0
    for i in range(20):
        d = 1 + i % 2
        rho = qc.DensityMatrix(random_density(rng, d))
        acc = np.zeros((2**d, 2**d), dtype=complex)
        for setting, w in ref_iter_settings("local", d):
            u = sh.setting_unitary(setting)
            probs = qc.born_probabilities(rho, u)
            for idx in range(2**d):
                bits = np.array([(idx >> (d - 1 - k)) & 1 for k in range(d)])
                acc += w * probs[idx] * ref_shadow_estimate("local", setting, bits)
        worst_local = max(worst_local, float(np.abs(acc - rho.mat).max()))
    worst_joint = 0.0
    for _ in range(5):
        rho = qc.DensityMatrix(random_density(rng, 1))
        fwd = np.zeros((2, 2), dtype=complex)
        inv = np.zeros((2, 2), dtype=complex)
        n_settings = 0
        for setting, w in ref_iter_settings("joint", 1):
            n_settings += 1
            u = sh.setting_unitary(setting)
            probs = qc.born_probabilities(rho, u)
            for idx in range(2):
                proj = np.zeros((2, 2), dtype=complex)
                proj[idx, idx] = 1.0
                fwd += w * probs[idx] * (u.conj().T @ proj @ u)
                inv += w * probs[idx] * ref_shadow_estimate("joint", setting, np.array([idx]))
        assert n_settings == 24
        err_fwd = float(np.abs(fwd - (rho.mat + np.eye(2)) / 3.0).max())
        err_inv = float(np.abs(inv - rho.mat).max())
        worst_joint = max(worst_joint, err_fwd, err_inv)
    dt = time.perf_counter() - t0
    ok = worst_local <= 1e-10 and worst_joint <= 1e-10 and dt < 5.0
    check(1, ok, f"reconstruction error local {worst_local:.1e}, "
                 f"joint channel {worst_joint:.1e} ({dt:.1f}s)")


# ---------------------------------------------------------------------------
# 2. estimator unbiasedness and range


def test_criterion_02_unbiasedness_and_range():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    pairs = []
    for i in range(10):
        d = 1 + i % 2
        pairs.append((qc.DensityMatrix(random_density(rng, d)),
                      qc.pauli_string(random_pauli_letters(rng, d))))
    n_shots = 100_000
    per_combo = 1_000_000 // (len(pairs) * 2)
    worst_dev = 0.0
    violations = 0
    for rho, obs in pairs:
        truth = qc.expectation(rho, obs)
        for kind in ("local", "joint"):
            # all d <= 2 configurations are enumerable, so drawing from the
            # exact outcome table is sampling the estimator itself
            probs, values = sh.outcome_distribution(rho, [obs], kind)
            vals = values[:, 0]
            draws = rng.choice(vals, size=n_shots, p=probs)
            lower, upper = sh.estimator_bounds(obs, kind, mode="exhaustive")
            tol = 4.0 * (upper - lower) / math.sqrt(n_shots)
            worst_dev = max(worst_dev, abs(float(draws.mean()) - truth) / tol)
            more = rng.choice(vals, size=per_combo, p=probs)
            lower, upper = sh.estimator_bounds(obs, kind, mode="analytic")
            violations += int(((more < lower - 1e-12) | (more > upper + 1e-12)).sum())
    # small direct tranche through the full sampling pipeline
    for rho, obs in pairs[:2]:
        for kind in ("local", "joint"):
            draws = np.array([sh.sample_estimates(rho, [obs], kind, rng)[0]
                              for _ in range(2000)])
            lower, upper = sh.estimator_bounds(obs, kind, mode="exhaustive")
            tol = 4.0 * (upper - lower) / math.sqrt(2000)
            worst_dev = max(worst_dev, abs(float(draws.mean()) - qc.expectation(rho, obs)) / tol)
            lower, upper = sh.estimator_bounds(obs, kind, mode="analytic")
            violations += int(((draws < lower - 1e-12) | (draws > upper + 1e-12)).sum())
    dt = time.perf_counter() - t0
    ok = worst_dev <= 1.0 and violations == 0 and dt < 60.0
    check(2, ok, f"worst mean deviation {worst_dev:.2f} of tolerance, "
                 f"{violations} bound violations over 1e6+ draws ({dt:.1f}s)")


# ---------------------------------------------------------------------------
# 3. recursion equivalence


def test_criterion_03_recursions_match_closed_forms():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(200):
        seq = [float(x) for x in np.exp(rng.uniform(-1.5, 1.5, size=12))]
        # alpha = 1e-300 keeps both detectors running through all 12 steps
        sr = ed.SequentialDetector(ed.DetectorConfig(weights=(1.0,), alpha=1e-300, kind=ed.SR))
        cu = ed.SequentialDetector(ed.DetectorConfig(weights=(1.0,), alpha=1e-300, kind=ed.CUSUM))
        for t in range(1, 13):
            assert not sr.advance([seq[t - 1]])
            assert not cu.advance([seq[t - 1]])
            sr_ref = sum(math.prod(seq[j - 1:t]) for j in range(1, t + 1))
            cu_ref = max(math.prod(seq[j - 1:t]) for j in range(1, t + 1))
            worst = max(worst,
                        abs(sr.mixture() - sr_ref) / sr_ref,
                        abs(cu.mixture() - cu_ref) / cu_ref)
            assert cu.mixture() <= sr.mixture() * (1 + 1e-12)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-9 and dt < 1.0
    check(3, ok, f"worst relative error {worst:.1e} over 200 sequences ({dt:.2f}s)")


# ---------------------------------------------------------------------------
# 4. average run length floor under the null


def test_criterion_04_run_length_floor():
    t0 = time.perf_counter()
    worst_margin = math.inf
    all_ok = True
    for i, theta0 in enumerate((-0.5, -0.2, 0.0)):
        for j, (policy, det) in enumerate((("escd", "sr"), ("escd", "cusum"),
                                           ("emcd_rr", "sr"), ("emcd_ucb", "sr"))):
            sc = _scenario(theta0=theta0, nu=None, policy=policy, detector=det)
            res = hz.run_experiment(sc, 300, master_seed=7000 + 10 * i + j)
            rl = np.array([r.stop_time for r in res], dtype=float)
            mean = float(rl.mean())
            se = float(rl.std(ddof=1)) / math.sqrt(rl.size)
            worst_margin = min(worst_margin, mean - (100.0 - se))
            all_ok = all_ok and mean >= 100.0 - se
    dt = time.perf_counter() - t0
    ok = all_ok and dt < 900.0
    check(4, ok, f"mean run length >= 100 - se on all 12 arms "
                 f"(worst margin {worst_margin:+.1f}, {dt:.0f}s)")


# ---------------------------------------------------------------------------
# 5. delay monotone in the post-change signal


def test_criterion_05_delay_monotone_in_signal():
    t0 = time.perf_counter()
    ths = (0.25, 0.5, 0.75, 1.0)
    stats = {}
    for th in ths:
        res = hz.run_experiment(_scenario(theta1=th), 200, master_seed=2024)
        stats[th] = _delay_stats(res)
    mono = all(
        stats[b][0] <= stats[a][0] + max(stats[a][1], stats[b][1])
        for a, b in zip(ths, ths[1:])
    )
    em_res = hz.run_experiment(_scenario(policy="emcd_rr"), 200, master_seed=2024)
    em_mean, _ = _delay_stats(em_res)
    cost_ok = em_mean <= stats[1.0][0]
    dt = time.perf_counter() - t0
    chain = " -> ".join(f"{stats[th][0]:.1f}" for th in ths)
    check(5, mono and cost_ok,
          f"delays {chain} nonincreasing; matched {em_mean:.1f} <= "
          f"universal {stats[1.0][0]:.1f} ({dt:.0f}s)")


# ---------------------------------------------------------------------------
# 6. crossover as the observable set grows


def test_criterion_06_crossover_with_observable_count():
    t0 = time.perf_counter()
    ns = (1, 2, 4, 8)
    escd = {}
    rr = {}
    for n in ns:
        obs = {"rotated": n}
        escd[n] = _delay_stats(hz.run_experiment(
            _scenario(observables=obs), 200, master_seed=2024))[0]
        rr[n] = _delay_stats(hz.run_experiment(
            _scenario(observables=obs, policy="emcd_rr"), 200, master_seed=2024))[0]
    rr_grows = all(rr[a] < rr[b] for a, b in zip(ns, ns[1:]))
    flat = all(abs(escd[n] - escd[1]) <= 0.25 * escd[1] for n in ns[1:])
    beats = escd[8] < rr[8]
    dt = time.perf_counter() - t0
    ok = rr_grows and flat and beats
    check(6, ok, f"round-robin delay {rr[1]:.1f}->{rr[8]:.1f} grows, universal "
                 f"{escd[1]:.1f}->{escd[8]:.1f} stays within 25%, "
                 f"{escd[8]:.1f} < {rr[8]:.1f} at n=8 ({dt:.0f}s)")


# ---------------------------------------------------------------------------
# 7. joint ensemble at least as fast as local


def test_criterion_07_joint_beats_local():
    t0 = time.perf_counter()
    all_ok = True
    ratios = []
    for th in (0.6, 0.8, 1.0):
        mj, sj = _delay_stats(hz.run_experiment(
            _scenario(d=3, ensemble="joint", theta1=th), 200, master_seed=2024))
        ml, sl = _delay_stats(hz.run_experiment(
            _scenario(d=3, ensemble="local", theta1=th), 200, master_seed=2024))
        all_ok = all_ok and mj <= ml + max(sj, sl)
        ratios.append(ml / mj)
    dt = time.perf_counter() - t0
    check(7, all_ok, "joint <= local + se at theta1 in (0.6, 0.8, 1.0), "
                     f"local/joint ratios {', '.join(f'{r:.2f}' for r in ratios)} ({dt:.0f}s)")


# ---------------------------------------------------------------------------
# 8. delay slope against log(1/alpha)


def test_criterion_08_delay_slope_matches_growth_rate():
    t0 = time.perf_counter()
    est = bt.estimate_growth_rate(
        qc.make_theta_state(1, 1.0), [qc.rotated_observable(1, 0.0)], "local")
    target = 1.0 / est.d_star
    alphas = (1 / 20, 1 / 50, 1 / 100, 1 / 200)
    delays = []
    for alpha in alphas:
        sc = _scenario(d=1, nu=1, alpha=alpha, run_cap=max(2000, int(40 / alpha)))
        delays.append(_delay_stats(hz.run_experiment(sc, 200, master_seed=2024))[0])
    slope = float(np.polyfit(np.log([1 / a for a in alphas]), delays, 1)[0])
    dt = time.perf_counter() - t0
    ok = abs(slope - target) <= 0.5 * target
    check(8, ok, f"fitted slope {slope:.2f} vs 1/D* = {target:.2f} "
                 f"(ratio {slope / target:.2f}, {dt:.0f}s)")


# ---------------------------------------------------------------------------
# 9. betting regret


def _windowed_regret_rate(t_len, rng):
    iv = bt.lambda_interval((-3.0, 3.0))
    bettor = bt.CBCEBettor(iv, o_bounds=(-3.0, 3.0))
    stream = rng.uniform(-1.0, 3.0, size=t_len)
    logs = np.empty(t_len)
    o_prev = None
    for t in range(t_len):
        lam = bettor.step(o_prev)
        logs[t] = math.log1p(lam * stream[t])
        o_prev = float(stream[t])
    grid = bt.chebyshev_grid(iv)
    cum = np.vstack([np.zeros(grid.size), np.cumsum(np.log1p(np.outer(stream, grid)), axis=0)])
    cum_algo = np.concatenate([[0.0], np.cumsum(logs)])
    width = t_len // 4
    worst = -np.inf
    for s in range(t_len - width + 1):
        oracle = (cum[s + width] - cum[s]).max()
        worst = max(worst, oracle - (cum_algo[s + width] - cum_algo[s]))
    return worst / width


def test_criterion_09_betting_regret():
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    t_len = 100
    budget = 0.5 * math.log(t_len + 1) + math.log(2.0)
    iv = bt.lambda_interval((-3.0, 3.0))
    worst_gap = -math.inf
    for _ in range(50):
        stream = rng.uniform(-3.0, 3.0, size=t_len)
        expert = bt.UPExpert(iv, o_bounds=(-3.0, 3.0))
        wealth = 0.0
        for o in stream:
            wealth += math.log1p(expert.bet() * o)
            expert.update(float(o))
        best = float(np.log1p(np.outer(stream, expert.grid)).sum(axis=0).max())
        worst_gap = max(worst_gap, best - wealth)
    up_ok = worst_gap <= budget + 1e-9
    ratios = [_windowed_regret_rate(t, rng) for t in (256, 1024, 4096)]
    sar_ok = ratios[0] > ratios[1] > ratios[2]
    dt = time.perf_counter() - t0
    ok = up_ok and sar_ok and dt < 30.0
    check(9, ok, f"portfolio regret {worst_gap:.2f} <= {budget:.2f} on 50 streams; "
                 f"windowed regret/step {ratios[0]:.3f} > {ratios[1]:.3f} > "
                 f"{ratios[2]:.3f} ({dt:.0f}s)")


# ---------------------------------------------------------------------------
# 10. covering-interval structure


def test_criterion_10_covering_intervals():
    t0 = time.perf_counter()
    ok = True
    for t in range(1, 10_001):
        ivs = bt.covering_intervals(t)
        ok = ok and len(ivs) == int(math.floor(math.log2(t))) + 1
        ok = ok and all(lo <= t <= hi for lo, hi in ivs)
    dt = time.perf_counter() - t0
    ok = ok and dt < 1.0
    check(10, ok, f"|A(t)| = floor(log2 t) + 1 for all t <= 1e4 ({dt:.2f}s)")


# ---------------------------------------------------------------------------
# 11. determinism across parallelism


def test_criterion_11_parallelism_determinism():
    t0 = time.perf_counter()
    sc = _scenario(d=1, nu=20, alpha=0.05, run_cap=400)
    csv1 = hz.results_csv(sc, hz.run_experiment(sc, 16, master_seed=33, parallelism=1))
    csv8 = hz.results_csv(sc, hz.run_experiment(sc, 16, master_seed=33, parallelism=8))
    dt = time.perf_counter() - t0
    ok = csv1.encode() == csv8.encode()
    check(11, ok, f"identical CSV bytes at parallelism 1 and 8 ({dt:.1f}s)")
