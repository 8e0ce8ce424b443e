"""Self-test of the benchmark at tiny trial counts (a few seconds):

    python3 -m pytest bench -q
"""

import hashlib
import sys

import run

sys.path.insert(0, str(run.SRC))

from shadowcpd import harness  # noqa: E402

SEED = 11


def _tiny(seed):
    return run.run_workload("ucb-n8", seed, 0, False, trials=3, min_children=2)


def test_seed_fixes_trials_and_digest():
    a, b, c = _tiny(SEED), _tiny(SEED), _tiny(SEED + 1)
    for r in (a, b, c):
        assert r["correct"], r["problems"]
        assert r["children"] == 2 and r["attempted"] == 6 and r["failed"] == 0
    assert a["csv_sha256"] == b["csv_sha256"]
    assert a["guards"] == b["guards"]
    assert a["csv_sha256"] != c["csv_sha256"]


def test_digest_is_that_of_one_cli_batch():
    # the children split one batch of run indices; joined, their CSV is the
    # one run_experiment writes for the same master seed
    r = _tiny(SEED)
    sc = harness.Scenario.from_dict(run.WORKLOADS["ucb-n8"].scenarios["ucb"])
    text = harness.results_csv(sc, harness.run_experiment(sc, 6, SEED))
    assert r["csv_sha256"]["ucb"] == hashlib.sha256(text.encode()).hexdigest()


def test_trial_invariants_catch_inconsistent_records():
    sc = run.WORKLOADS["ucb-n8"].scenarios["ucb"]
    good = {"run_index": 0, "seed": run._derive_seed(SEED, 0), "stop_time": 230,
            "censored": False, "false_alarm": False, "delay": 30, "nu": 200}
    assert run.trial_problems(good, sc, SEED, 0) == []
    for bad in ({"delay": 29}, {"false_alarm": True}, {"stop_time": 0},
                {"censored": True}, {"seed": 1}):
        assert run.trial_problems({**good, **bad}, sc, SEED, 0)
