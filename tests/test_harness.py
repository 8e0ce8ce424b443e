"""Scenario parsing, seeded execution, classification, summaries, emission."""

import hashlib
import json
import math
import concurrent.futures
from concurrent.futures import Future

import numpy as np
import pytest

from shadowcpd import betting as bt
from shadowcpd import harness as hz

from conftest import ref_draw, ref_run_trial_escd, ref_run_trial_matched


BASE = {
    "d": 1,
    "ensemble": "local",
    "observables": {"rotated": 1},
    "theta0": -0.5,
    "theta1": 1.0,
    "nu": 20,
    "alpha": 0.05,
    "policy": "escd",
    "run_cap": 400,
}


def scenario(**overrides):
    doc = dict(BASE)
    doc.update(overrides)
    return hz.Scenario.from_dict(doc)


# ---------------------------------------------------------------------------
# scenario validation


def test_minimal_scenario_parses():
    sc = scenario()
    assert sc.d == 1
    assert sc.detector == "sr"
    assert sc.weights == "uniform"
    assert "cbce" in sc.betting


def test_unknown_field_rejected_with_path():
    doc = dict(BASE, extra_knob=1)
    with pytest.raises(hz.ScenarioError, match=r"scenario\.extra_knob"):
        hz.Scenario.from_dict(doc)


def test_nested_unknown_field_rejected():
    doc = dict(BASE, betting={"cbce": {"grid": 32, "mystery": 1}})
    with pytest.raises(hz.ScenarioError, match="mystery"):
        hz.Scenario.from_dict(doc)


#: the fields a scenario document must give (README "Scenario fields")
REQUIRED_FIELDS = ("d", "ensemble", "observables", "theta0", "theta1", "nu", "alpha", "policy")

#: the other fields with their documented defaults; run_cap is 20 ceil(1/alpha)
OPTIONAL_DEFAULTS = {
    "detector": "sr",
    "weights": "uniform",
    "betting": {"cbce": {"grid": 64, "slack": None, "two_sided": False}},
    "run_cap": 20 * math.ceil(1 / BASE["alpha"]),
    "bounds_mode": "auto",
}


def test_missing_required_field():
    for key in REQUIRED_FIELDS:
        doc = dict(BASE)
        del doc[key]
        with pytest.raises(hz.ScenarioError, match=rf"^scenario\.{key}: missing required field$"):
            hz.Scenario.from_dict(doc)


def test_omitted_optional_field_takes_its_documented_default():
    assert [f.name for f in hz.FIELDS if f.name not in OPTIONAL_DEFAULTS] == list(REQUIRED_FIELDS)
    assert {f.name for f in hz.FIELDS} == set(REQUIRED_FIELDS) | set(OPTIONAL_DEFAULTS)
    given = dict(BASE, detector="cusum", weights=[1.0], betting={"constant": 0.1},
                 run_cap=100, bounds_mode="analytic")
    for key, default in OPTIONAL_DEFAULTS.items():
        doc = dict(given)
        del doc[key]
        assert hz.Scenario.from_dict(doc).to_dict()[key] == default, key


def test_pre_change_mean_must_be_nonpositive():
    with pytest.raises(hz.ScenarioError, match="theta0"):
        scenario(theta0=0.3)


def test_post_change_needs_positive_theta1_when_nu_finite():
    with pytest.raises(hz.ScenarioError, match="theta1"):
        scenario(theta1=-0.2)
    # with an infinite horizon there is no post-change state to constrain
    sc = scenario(nu=None, theta1=-0.2, run_cap=400)
    assert sc.theta1 == -0.2


@pytest.mark.parametrize("field, value, path", [
    ("d", True, "scenario.d"),
    ("nu", True, "scenario.nu"),
    ("run_cap", True, "scenario.run_cap"),
    ("observables", {"rotated": True}, "scenario.observables.rotated"),
    ("theta1", True, "scenario.theta1"),
    ("theta0", False, "scenario.theta0"),
    ("alpha", True, "scenario.alpha"),
    ("betting", {"cbce": {"slack": True}}, "scenario.betting.cbce.slack"),
    ("betting", {"cbce": {"grid": True}}, "scenario.betting.cbce.grid"),
    ("betting", {"constant": False}, "scenario.betting.constant"),
    ("weights", [True], "scenario.weights"),
    ("observables", {"matrices": [[[True, 0], [0, -1]]]}, r"scenario.observables.matrices\[0\]\[0\]\[0\]"),
    ("theta0", "low", "scenario.theta0"),
    ("theta0", None, "scenario.theta0"),
    ("theta1", "high", "scenario.theta1"),
    ("theta1", None, "scenario.theta1"),
    ("betting", {"constant": math.nan}, "scenario.betting.constant"),
    ("observables", {"matrices": [[[0, math.nan], [1, 0]]]}, r"scenario.observables.matrices\[0\]\[0\]\[1\]"),
    ("observables", {"matrices": [[[0, math.inf], [1, 0]]]}, r"scenario.observables.matrices\[0\]\[0\]\[1\]"),
    ("observables", {"matrices": [[[0, [0, -math.inf]], [1, 0]]]}, r"scenario.observables.matrices\[0\]\[0\]\[1\]"),
    pytest.param("theta0", -10**400, "scenario.theta0", id="theta0-beyond-float-range"),
    ("weights", [10**400], "scenario.weights"),
    ("betting", {"constant": 10**400}, "scenario.betting.constant"),
    ("observables", {"matrices": [[[0, 10**400], [1, 0]]]}, r"scenario.observables.matrices\[0\]\[0\]\[1\]"),
])
def test_booleans_and_non_numbers_rejected(field, value, path):
    # JSON true/false are Python bools, which are ints; neither may pass as a number,
    # nor may NaN, an infinity or an integer past the float range, which float()
    # cannot convert; a non-number must be reported, not compared
    with pytest.raises(hz.ScenarioError, match=path):
        scenario(**{field: value})


def test_nu_validation():
    with pytest.raises(hz.ScenarioError, match="nu"):
        scenario(nu=0)
    assert scenario(nu=None).nu is None


def test_alpha_and_run_cap_validation():
    with pytest.raises(hz.ScenarioError, match="alpha"):
        scenario(alpha=1.2)
    with pytest.raises(hz.ScenarioError, match="run_cap"):
        scenario(alpha=0.01, run_cap=50)  # below ceil(1/alpha)
    sc = scenario(alpha=0.01, run_cap=None)
    assert sc.run_cap == 20 * 100


def test_policy_and_detector_validation():
    with pytest.raises(hz.ScenarioError, match="policy"):
        scenario(policy="other")
    with pytest.raises(hz.ScenarioError, match="detector"):
        scenario(detector="mean")
    sc = scenario(policy={"emcd_ucb": {"delta": 0.2}})
    assert sc.policy == "emcd_ucb"
    assert sc.ucb_delta == 0.2


def test_explicit_observable_matrices():
    sc = scenario(observables={"matrices": [[[0, 1], [1, 0]]]})
    obs = hz.build_observables(sc)
    assert len(obs) == 1
    assert obs[0].eigmax == pytest.approx(1.0)
    with pytest.raises(hz.ScenarioError, match="observables"):
        scenario(observables={"matrices": [[[0, 1], [2, 0]]]})  # not Hermitian


def test_matrices_are_parsed_once_per_scenario(monkeypatch):
    calls = []
    parse = hz._parse_matrix

    def counting(entry, d, path):
        calls.append(path)
        return parse(entry, d, path)

    monkeypatch.setattr(hz, "_parse_matrix", counting)
    mats = [[[0, 1], [1, 0]], [[1, 0], [0, -1]], [[0, [0, -1]], [[0, 1], 0]]]
    sc = scenario(observables={"matrices": mats}, policy="emcd_rr")
    for _ in range(3):
        rt = hz.ScenarioRuntime(sc)
    hz.summarize(hz.run_experiment(sc, 2, master_seed=1), sc)
    assert calls == [f"scenario.observables.matrices[{j}]" for j in range(3)]
    assert [o.eigmax for o in rt.observables] == [1.0, 1.0, 1.0]


@pytest.mark.parametrize("observables", [
    {"rotated": 3},
    {"matrices": [[[0, 1], [1, 0]], [[1, 0], [0, -1]]]},
])
def test_runtimes_share_the_scenario_observables(observables):
    sc = scenario(observables=observables)
    first, second = hz.ScenarioRuntime(sc), hz.ScenarioRuntime(sc)
    assert len(first.observables) == sc.n_observables
    assert all(a is b for a, b in zip(first.observables, second.observables, strict=True))


@pytest.mark.parametrize("ensemble", hz.ENSEMBLES)
def test_exhaustive_bounds_beyond_enumeration_is_a_document_error(ensemble):
    with pytest.raises(hz.ScenarioError, match=r"^scenario\.bounds_mode: .*not enumerable"):
        scenario(d=4, ensemble=ensemble, bounds_mode="exhaustive")


@pytest.mark.parametrize("policy", ["emcd_rr", "emcd_ucb"])
def test_matched_policies_accept_exhaustive_beyond_enumeration(policy):
    # matched bets range over eigenvalues, so the shadow bounds mode is unused
    doc = dict(d=4, observables={"rotated": 2}, policy=policy, alpha=0.1, run_cap=200)
    sc = scenario(**doc, bounds_mode="exhaustive")
    results = hz.run_experiment(sc, 2, master_seed=4)
    assert len(results) == 2
    assert results == hz.run_experiment(scenario(**doc), 2, master_seed=4)


def test_rotated_observable_angles():
    sc = scenario(d=2, observables={"rotated": 4})
    obs = hz.build_observables(sc)
    assert len(obs) == 4
    # angles pi i / (2 n): first observable is the plain X string
    import shadowcpd.qcore as qc

    rho = qc.make_theta_state(2, 0.8)
    means = [qc.expectation(rho, o) for o in obs]
    want = [0.8 * math.cos(math.pi * i / 8) ** 2 for i in range(4)]
    assert means == pytest.approx(want, abs=1e-10)


def test_constant_bet_must_be_admissible():
    sc = scenario(betting={"constant": 0.1})
    assert sc.betting == {"constant": 0.1}
    with pytest.raises(hz.ScenarioError, match="betting"):
        # bound for d=1 local X is 3, so lam must stay under 1/3
        rt = hz.ScenarioRuntime(scenario(betting={"constant": 0.9}))


def test_weights_forms():
    sc = scenario(d=1, observables={"rotated": 2}, weights=[0.25, 0.75])
    assert sc.weights == (0.25, 0.75)
    with pytest.raises(hz.ScenarioError, match="weights"):
        scenario(d=1, observables={"rotated": 2}, weights=[0.5, 0.6])


def test_round_trip_through_dict():
    for sc in (
        scenario(),
        scenario(nu=None),
        scenario(policy={"emcd_ucb": {"delta": 0.3}}),
        scenario(betting={"constant": 0.2}),
        scenario(observables={"matrices": [[[0, 1], [1, 0]]]}),
        scenario(weights=[0.5, 0.5], observables={"rotated": 2}),
    ):
        again = hz.Scenario.from_dict(sc.to_dict())
        assert again == sc


def test_scenario_json_round_trip():
    sc = scenario(policy={"emcd_ucb": {"delta": 0.15}})
    again = hz.Scenario.from_dict(json.loads(json.dumps(sc.to_dict())))
    assert again == sc


# ---------------------------------------------------------------------------
# seeds and execution


def test_seed_derivation_matches_reference_stream():
    # derive_seed(0, i) walks the splitmix64 stream from state 0, whose
    # published first outputs are fixed
    assert hz.derive_seed(0, 0) == 0xE220A8397B1DCDAF
    assert hz.derive_seed(0, 1) == 0x6E789E6AA1B965F4
    assert hz.derive_seed(0, 2) == 0x06C45D188009454F


def test_seed_derivation_spreads_masters():
    a = {hz.derive_seed(1, i) for i in range(100)}
    b = {hz.derive_seed(2, i) for i in range(100)}
    assert len(a) == 100
    assert not (a & b)


def test_run_trial_deterministic():
    sc = scenario()
    a = hz.run_trial(sc, seed=42)
    b = hz.run_trial(sc, seed=42)
    assert a == b


def test_run_experiment_is_parallelism_invariant():
    sc = scenario(run_cap=200)
    serial = hz.run_experiment(sc, 8, master_seed=5, parallelism=1)
    parallel = hz.run_experiment(sc, 8, master_seed=5, parallelism=4)
    assert serial == parallel


class _InProcessPool:
    """Stands in for ProcessPoolExecutor: runs each task at submit, in
    this process, and records the pool size asked for."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        done = Future()
        done.set_result(fn(*args))
        return done


@pytest.mark.parametrize("runs, parallelism, chunks", [(2, 4, 2), (5, 4, 3), (6, 3, 3)])
def test_run_experiment_pool_is_no_larger_than_its_chunks(monkeypatch, runs, parallelism,
                                                         chunks):
    monkeypatch.setattr(_InProcessPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    sc = scenario(run_cap=100)
    got = hz.run_experiment(sc, runs, master_seed=5, parallelism=parallelism)
    assert _InProcessPool.sizes == [chunks]
    assert got == hz.run_experiment(sc, runs, master_seed=5, parallelism=1)


def test_run_experiment_single_run_matches_run_trial():
    sc = scenario()
    got = hz.run_experiment(sc, 1, master_seed=9)[0]
    want = hz.run_trial(sc, hz.derive_seed(9, 0), run_index=0)
    assert got == want


def test_distinct_master_seeds_give_distinct_runs():
    sc = scenario()
    a = [r.stop_time for r in hz.run_experiment(sc, 20, master_seed=1)]
    b = [r.stop_time for r in hz.run_experiment(sc, 20, master_seed=2)]
    assert a != b


def test_neutral_constant_bet_stops_at_two():
    sc = scenario(nu=None, alpha=0.5, run_cap=10, betting={"constant": 0.0})
    for seed in (1, 2, 3):
        assert hz.run_trial(sc, seed).stop_time == 2


def test_classification_is_exclusive():
    nu_infinite, false_alarm, censored, delay = [
        hz.run_trial(scenario(nu=None, alpha=0.5, run_cap=10, betting={"constant": 0.0}), 1),
        hz.run_trial(scenario(nu=50, alpha=0.5, run_cap=10, betting={"constant": 0.0}), 2),
        hz.run_trial(scenario(detector="cusum", nu=None, alpha=0.5, run_cap=5,
                              betting={"constant": 0.0}), 3),
        hz.run_trial(scenario(nu=1, alpha=0.2, run_cap=100), 4),
    ]
    assert nu_infinite.nu is None and not nu_infinite.censored
    assert false_alarm.false_alarm
    assert censored.censored
    assert delay.delay is not None
    for r in (nu_infinite, false_alarm, censored, delay):
        flags = [
            r.censored,
            r.nu is None and not r.censored,
            r.false_alarm,
            r.delay is not None,
        ]
        assert sum(flags) == 1


def test_censored_runs_stop_at_cap():
    sc = scenario(detector="cusum", nu=None, alpha=0.5, run_cap=5, betting={"constant": 0.0})
    r = hz.run_trial(sc, 11)
    assert r.censored and r.stop_time == 5


def test_delay_definition():
    sc = scenario(nu=1, alpha=0.2)
    r = hz.run_trial(sc, 17)
    assert r.delay == r.stop_time - 1
    assert not r.false_alarm


def test_emcd_policies_run():
    for policy in ("emcd_rr", "emcd_ucb"):
        sc = scenario(policy=policy, d=1, observables={"rotated": 2}, nu=10, alpha=0.1)
        r = hz.run_trial(sc, 3)
        assert r.stop_time >= 1


#: results_csv SHA-256 of short experiments on the direct samplers, recorded
#: with the float projector lift of joint Cliffords and the analytic bounds;
#: the sampled unitaries, Born draws and estimates must keep every bit.  The
#: stop times also carry the CBCE arithmetic, so a change that moves
#: trajectories moves these digests as well.
DIRECT_SAMPLER_DIGESTS = {
    "joint": ("af769f0813ab56f48a922e3104bdc14abccd8265bb82b295ef8a73bfc993a6d3",
              dict(d=3, theta1=0.8, bounds_mode="analytic")),
    "local": ("be6b9f1cbad61be89461c6725c9c6028472c1729d18bddaf93d8fb9c929afd45",
              dict(d=4, observables={"rotated": 2})),
}


@pytest.mark.parametrize("ensemble", sorted(DIRECT_SAMPLER_DIGESTS))
def test_direct_sampler_output_is_pinned(ensemble):
    digest, overrides = DIRECT_SAMPLER_DIGESTS[ensemble]
    sc = scenario(ensemble=ensemble, nu=50, alpha=0.01, **overrides)
    rt = hz.ScenarioRuntime(sc)
    if ensemble == "joint":
        # joint d=3 runs on the stabilizer-state table; drive the direct
        # sampler in its place
        assert isinstance(rt.sources[1], hz._TableSampler)
        rt.sources = tuple(hz._DirectSampler(rho, rt.observables, ensemble)
                           for rho in (rt.pre_state, rt.post_state))
    assert isinstance(rt.sources[1], hz._DirectSampler)
    res = [hz.run_trial(sc, hz.derive_seed(11, i), i, rt) for i in range(5)]
    assert hashlib.sha256(hz.results_csv(sc, res).encode()).hexdigest() == digest


#: scenarios for the per-step oracles: label -> overrides
LOOKAHEAD_CASES = {
    "local-sr": dict(d=2, nu=None, alpha=0.02, run_cap=700),
    "local-cusum": dict(d=2, nu=None, alpha=0.02, run_cap=700, detector="cusum"),
    "local-4-observables": dict(d=2, observables={"rotated": 4}, nu=70, alpha=0.02),
    "joint-d2": dict(d=2, ensemble="joint", theta1=0.8, nu=50, alpha=0.01),
    "joint-d3": dict(d=3, ensemble="joint", theta1=0.8, nu=50, alpha=0.01),
    # a cap that ends inside a lookahead block, with censored trials
    "cap-203": dict(d=2, nu=None, alpha=0.01, run_cap=203),
    # local d = 4 is not enumerated: a fresh shadow measurement per row
    "direct-local-d4": dict(d=4, observables={"rotated": 2}, nu=50, alpha=0.01),
    # round-robin blocks span a lookahead block of every bettor: 16 rounds of
    # n steps from round 16; nu = 37 and 100 fall inside a block, and a cap of
    # 203 ends inside one
    "rr-1": dict(d=2, policy="emcd_rr", nu=37, alpha=0.01),
    "rr-1-cap-203": dict(d=2, policy="emcd_rr", nu=None, alpha=0.005, run_cap=203),
    "rr-3": dict(d=2, policy="emcd_rr", observables={"rotated": 3}, theta1=0.5, nu=100,
                 alpha=0.01),
    "rr-3-cusum-cap-203": dict(d=2, policy="emcd_rr", observables={"rotated": 3}, nu=None,
                               alpha=0.005, run_cap=203, detector="cusum"),
    # UCB over one observable takes the round-robin path; over several it
    # steps one draw at a time
    "ucb-1": dict(d=2, policy="emcd_ucb", nu=37, alpha=0.01),
    "ucb-1-cap-203": dict(d=2, policy="emcd_ucb", nu=None, alpha=0.005, run_cap=203),
    "ucb-3": dict(d=2, policy="emcd_ucb", observables={"rotated": 3}, theta1=0.5, nu=100,
                  alpha=0.01),
    "ucb-8": dict(d=2, policy={"emcd_ucb": {"delta": 0.3}}, observables={"rotated": 8},
                  nu=37, alpha=0.01, run_cap=203),
}


@pytest.mark.parametrize("case", sorted(LOOKAHEAD_CASES))
def test_lookahead_trials_match_per_step_loop(case):
    # outcomes of a fixed schedule are drawn a lookahead block at a time and
    # the bettors compute a block's expert bets at once; trials and CSV bytes
    # must equal those of the per-step loops
    sc = scenario(**LOOKAHEAD_CASES[case])
    rt = hz.ScenarioRuntime(sc)
    direct = isinstance(rt.sources[0], hz._DirectSampler)
    assert direct == case.startswith("direct")
    ref = ref_run_trial_escd if sc.policy == "escd" else ref_run_trial_matched
    seeds = [(i, hz.derive_seed(3, i)) for i in range(8)]
    got = [hz.run_trial(sc, seed, i, rt) for i, seed in seeds]
    want = [ref(sc, seed, i, rt) for i, seed in seeds]
    assert got == want
    assert hz.results_csv(sc, got).encode() == hz.results_csv(sc, want).encode()
    if "cap-203" in case:
        assert any(r.censored for r in got)
    if sc.nu is not None:
        assert any(r.delay is not None for r in got)


@pytest.mark.parametrize("t, count", [(1, 1), (32, 16), (36, 4), (48, 16), (50, 2)])
def test_block_draws_split_at_changepoint_match_single_draws(t, count):
    # nu = 37: a block from 32 draws 5 pre-change rows, then 11 post-change
    sc = scenario(d=2, nu=37)
    rt = hz.ScenarioRuntime(sc)
    block_rng, single_rng = np.random.default_rng(5), np.random.default_rng(5)
    block = hz._draw_estimates(rt, sc.nu, block_rng, t, count)
    single = [ref_draw(rt.sources[1] if s >= sc.nu else rt.sources[0], single_rng)
              for s in range(t, t + count)]
    assert np.array_equal(block, np.array(single))
    assert block_rng.random() == single_rng.random()  # same position in the stream


def count_draws(monkeypatch):
    """Wrap the sampler draw sites that bench/tracer.py counts; returns the
    rows drawn per site."""
    drawn = {"table": 0, "direct": 0, "eigen": 0}

    def wrap(cls, site, rows):
        real = cls.draw

        def draw(self, *args):
            out = real(self, *args)
            drawn[site] += rows(out)
            return out

        monkeypatch.setattr(cls, "draw", draw)

    wrap(hz._TableSampler, "table", len)
    wrap(hz._DirectSampler, "direct", len)
    wrap(hz._EigenTable, "eigen", lambda out: 1)
    return drawn


def count_uniforms(monkeypatch):
    """Wrap the generator a trial seeds; returns the uniforms of each call
    to its ``random``."""
    counted = []
    real = np.random.default_rng

    class Counting:
        def __init__(self, seed):
            self._rng = real(seed)

        def random(self, size=None):
            counted.append(1 if size is None else size)
            return self._rng.random(size)

        def __getattr__(self, name):
            return getattr(self._rng, name)

    monkeypatch.setattr(hz.np.random, "default_rng", Counting)
    return counted


@pytest.mark.parametrize("policy", ["emcd_rr", "emcd_ucb"])
def test_matched_trials_draw_one_eigenvalue_per_step(policy, monkeypatch):
    # a CUSUM on neutral bets never stops, so every step up to the cap is
    # drawn; nu = 37 and the cap of 203 fall inside round-robin blocks.
    # UCB draws each step's eigenvalue with _EigenTable.draw; round-robin
    # looks each step's up from one array of uniforms per block
    sc = scenario(d=2, policy=policy, observables={"rotated": 3}, nu=37, alpha=0.01,
                  run_cap=203, detector="cusum", betting={"constant": 0.0})
    rt = hz.ScenarioRuntime(sc)
    drawn = count_draws(monkeypatch)
    uniforms = count_uniforms(monkeypatch)
    r = hz.run_trial(sc, 7, runtime=rt)
    assert r.censored and r.stop_time == 203
    assert sum(uniforms) == r.stop_time
    ucb = policy == "emcd_ucb"
    assert drawn == {"table": 0, "direct": 0, "eigen": r.stop_time if ucb else 0}
    # round-robin blocks of 1, 2, 4, 8, 16, 32 rounds of 3 steps, and 14 steps to the cap
    assert len(uniforms) == (r.stop_time if ucb else 7)


@pytest.mark.parametrize("overrides, site", [
    (dict(d=2, nu=37, alpha=0.01), "table"),
    (dict(d=4, observables={"rotated": 2}, nu=37, alpha=0.01), "direct"),
])
def test_escd_trial_draws_every_step_it_runs(overrides, site, monkeypatch):
    sc = scenario(**overrides)
    rt = hz.ScenarioRuntime(sc)
    drawn = count_draws(monkeypatch)
    r = hz.run_trial(sc, 7, runtime=rt)
    assert not r.censored
    assert [k for k, rows in drawn.items() if rows] == [site]
    assert drawn[site] >= r.stop_time  # a block may run past the stop


@pytest.mark.parametrize("policy", ["escd", "emcd_ucb"])
def test_bettors_of_a_runtime_share_one_read_only_grid(policy):
    # every trial builds its bettors afresh; each observable's bettors share
    # the Chebyshev grid of its interval
    rt = hz.ScenarioRuntime(scenario(d=2, policy=policy, observables={"rotated": 8}))
    for i in range(rt.n):
        grid = rt.make_bettor(i).grid
        assert rt.make_bettor(i).grid is grid
        with pytest.raises(ValueError):
            grid[0] = 0.0


def test_lookahead_blocks_never_cross_a_power_of_two():
    t = 1
    while t < 5000:
        count = bt.lookahead_block(t)
        assert count <= bt.LOOKAHEAD_BLOCK and t % count == 0
        assert (t + count - 1).bit_length() == t.bit_length()
        t += count
    assert [bt.lookahead_block(t) for t in (1, 2, 4, 8, 16, 32, 48)] == [1, 2, 4, 8, 16, 32, 16]


# ---------------------------------------------------------------------------
# summaries


def make_trial(i, stop, nu, cap=400):
    censored = stop >= cap
    fa = nu is not None and not censored and stop < nu
    delay = stop - nu if (nu is not None and not censored and stop >= nu) else None
    return hz.TrialResult(
        run_index=i, seed=i, stop_time=stop, censored=censored,
        false_alarm=fa, delay=delay, nu=nu,
    )


def test_summary_worked_example():
    trials = [make_trial(i, t, 50) for i, t in enumerate((55, 60, 48))]
    st = hz.summarize(trials)
    assert st.mean_delay == pytest.approx(7.5)
    assert st.false_alarm_fraction == pytest.approx(1 / 3)
    assert st.mean_run_length == pytest.approx((55 + 60 + 48) / 3)
    assert st.censored_fraction == 0.0


def test_summary_all_censored():
    trials = [make_trial(i, 400, None) for i in range(5)]
    st = hz.summarize(trials)
    assert st.mean_run_length == pytest.approx(400.0)
    assert st.censored_fraction == 1.0
    assert st.mean_delay is None
    assert st.delay_quantiles is None


def test_summary_single_run():
    st = hz.summarize([make_trial(0, 7, 1)])
    assert st.mean_delay == pytest.approx(6.0)


def test_summary_quantiles_monotone():
    rng = np.random.default_rng(3)
    trials = [make_trial(i, int(50 + rng.integers(0, 100)), 50) for i in range(40)]
    st = hz.summarize(trials)
    q = st.delay_quantiles
    assert q["q10"] <= q["q25"] <= q["q50"] <= q["q75"] <= q["q90"]


def test_summary_single_delay_is_every_quantile():
    st = hz.summarize([make_trial(0, 7, 1)])
    assert st.delay_quantiles == {f"q{p}": 6.0 for p in (10, 25, 50, 75, 90)}


def test_summary_quantiles_match_numpy_percentile():
    # the summary's quantile rule against np.percentile's default (linear)
    # rule, at the 12 significant digits every output is written at
    rng = np.random.default_rng(12)
    for _ in range(10_000):
        delays = rng.integers(0, 400, size=int(rng.integers(1, 61)))
        trials = [make_trial(i, 50 + int(x), 50, cap=500) for i, x in enumerate(delays)]
        got = hz.summarize(trials).delay_quantiles
        want = np.percentile(delays.astype(float), [10, 25, 50, 75, 90])
        assert [hz._fmt_float(got[f"q{p}"]) for p in (10, 25, 50, 75, 90)] == \
            [hz._fmt_float(float(x)) for x in want], delays


def test_summary_rejects_empty():
    with pytest.raises(ValueError):
        hz.summarize([])


def test_growth_reference_for_enumerable_scenario():
    sc = scenario(nu=20)
    st = hz.summarize(hz.run_experiment(sc, 3, master_seed=1), sc)
    import shadowcpd.betting as bt
    import shadowcpd.qcore as qc

    want = bt.estimate_growth_rate(
        qc.make_theta_state(1, 1.0), hz.build_observables(sc), "local",
        bounds_mode="exhaustive",
    ).d_star
    assert st.d_star_reference == pytest.approx(want, rel=1e-12)


def test_matched_growth_reference_uses_scenario_slack():
    # X measured on (I + 0.95 X)/2 gives +1 w.p. 0.975; the optimal bet 0.95
    # lies outside the slack-trimmed interval [-0.6, 0.6], so the best growth
    # is at its top end
    sc = scenario(policy="emcd_rr", theta1=0.95, nu=5, betting={"cbce": {"slack": 0.4}})
    st = hz.summarize(hz.run_experiment(sc, 1, master_seed=1), sc)
    import shadowcpd.betting as bt

    hi = bt.lambda_interval((-1.0, 1.0), 0.4).hi
    want = 0.975 * math.log1p(hi) + 0.025 * math.log1p(-hi)
    assert st.d_star_reference == pytest.approx(want, rel=1e-12)


def test_one_estimate_pass_per_enumeration(monkeypatch):
    # local d=2 has 3^2 settings x 4 outcomes = 36 atoms; one kernel call
    # estimates both observables at every atom for the bounds and both
    # states' samplers
    import shadowcpd.shadows as sh

    calls = []
    real = sh._estimates

    def counting(kind, states, observables):
        calls.append((len(states), len(observables)))
        return real(kind, states, observables)

    monkeypatch.setattr(sh, "_estimates", counting)
    sc = scenario(d=2, observables={"rotated": 2})
    hz.ScenarioRuntime(sc)
    assert calls == [(36, 2)]
    calls.clear()
    st = hz.summarize([make_trial(0, 30, sc.nu)], sc)
    assert st.d_star_reference is not None
    assert len(calls) <= 1


def test_slack_that_leaves_no_bet_is_a_scenario_error():
    # d=1 local X estimates span [-3, 3]: bets lie in (-1/3, 1/3)
    for slack in (0.4, 0.0):
        sc = scenario(betting={"cbce": {"slack": slack}})
        with pytest.raises(hz.ScenarioError, match=r"scenario\.betting\.cbce\.slack"):
            hz.ScenarioRuntime(sc)


# ---------------------------------------------------------------------------
# emission


def run_small():
    sc = scenario(nu=10, alpha=0.1, run_cap=100)
    res = hz.run_experiment(sc, 4, master_seed=3)
    return sc, res, hz.summarize(res)


def test_csv_schema(tmp_path):
    sc, res, st = run_small()
    text = hz.results_csv(sc, res)
    lines = text.split("\n")
    assert lines[0] == ",".join(hz.CSV_COLUMNS)
    assert lines[-1] == ""  # trailing newline
    assert len(lines) == 2 + len(res)
    row = lines[1].split(",")
    assert len(row) == len(hz.CSV_COLUMNS)
    assert row[2] == "escd"
    assert row[8] == "10"  # nu
    assert "\r" not in text
    path = tmp_path / "out.csv"
    hz.emit_results(sc, res, st, "csv", path)
    assert path.read_text() == text


def test_csv_infinite_nu_and_empty_delay():
    sc = hz.Scenario.from_dict(dict(BASE, nu=None))
    res = [make_trial(0, 30, None)]
    text = hz.results_csv(sc, res)
    row = text.split("\n")[1].split(",")
    assert row[hz.CSV_COLUMNS.index("nu")] == "inf"
    assert row[hz.CSV_COLUMNS.index("delay")] == ""
    assert row[hz.CSV_COLUMNS.index("false_alarm")] == "false"


def test_json_document_structure(tmp_path):
    sc, res, st = run_small()
    path = tmp_path / "out.json"
    hz.emit_results(sc, res, st, "json", path, master_seed=3, wall_time_seconds=0.5)
    doc = json.loads(path.read_text())
    assert set(doc) == {"scenario", "trials", "summary", "meta"}
    assert doc["meta"]["master_seed"] == 3
    assert doc["meta"]["version"]
    back = [hz.TrialResult(**t) for t in doc["trials"]]
    assert back == list(res)
    assert hz.Scenario.from_dict(doc["scenario"]) == sc


def test_emit_rejects_unknown_format(tmp_path):
    sc, res, st = run_small()
    with pytest.raises(ValueError):
        hz.emit_results(sc, res, st, "xml", tmp_path / "x")


def test_emit_wraps_io_errors(tmp_path):
    sc, res, st = run_small()
    bad = tmp_path / "missing_dir" / "out.csv"
    with pytest.raises(OSError, match="missing_dir"):
        hz.emit_results(sc, res, st, "csv", bad)


# ---------------------------------------------------------------------------
# presets


def test_presets_all_parse():
    names = hz.preset_names()
    assert "fig3-left" in names and "desk-fig4" in names
    for name in names:
        sc = hz.preset_scenario(name)
        assert hz.Scenario.from_dict(sc.to_dict()) == sc


def test_desk_presets_scale_down():
    full = hz.preset_scenario("fig3-left")
    desk = hz.preset_scenario("desk-fig3-left")
    assert full.alpha == pytest.approx(1e-3)
    assert full.run_cap == 5000
    assert desk.alpha == pytest.approx(1e-2)
    assert desk.run_cap == 2000


def test_unknown_preset():
    with pytest.raises(KeyError):
        hz.preset_scenario("fig9")
