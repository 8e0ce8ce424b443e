"""SHA-256 digests of documents whose bytes, key order included, must not move.

The digests pin the preset documents, the scenario block echoed into JSON
results, and the growth reports, so a change to how scenarios are parsed,
defaulted or resolved cannot alter what they print.  They also pin the CSV
and the JSON summary of short seeded batches of the benchmark's scenarios,
so a change to the per-step arithmetic of betting, detection or sampling
cannot move a trajectory unnoticed.
"""

import hashlib
import json

import pytest

from shadowcpd import cli, harness as hz


def sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


BASE = {
    "d": 1,
    "ensemble": "local",
    "observables": {"rotated": 1},
    "theta0": -0.5,
    "theta1": 1.0,
    "nu": 5,
    "alpha": 0.05,
    "policy": "escd",
    "run_cap": 400,
}

#: stdout of ``shadowcpd preset --name X``
PRESET_DIGESTS = {
    "fig3-left": "ea180a531b4384d0e6c32a70014f6ccb5a3194d2a5a0fba8475e390613f546f2",
    "fig3-right": "0ecb3f721ba81fe68d05b5f939693ab2a581067a7e5d2199c434e4c8ada78d40",
    "fig4": "89f442b81d88cba5dcfb81e734d5f5a7e49c2b2cfa0719211bc110d151c60425",
    "fig5": "1528295dd5fabb5031d504ddaee9477ba36eed93c7a4fb16405a3e0d3d62d5c4",
    "desk-fig3-left": "bf52b63b5ba1f731334343fd9252c9b3ea866b4b4503bcaa701cb2c1ea824538",
    "desk-fig3-right": "835e1bf4298834c8c363027a650b7a666134ebca531917d7889139dd2298f2e9",
    "desk-fig4": "52bef864543078344ac95900bb76b5f2977bc99bd3d739478650fbea71f32c8a",
    "desk-fig5": "770ce2c01126747c271c820d40c499c5db611f6e6f524c1d7ff00721c073621f",
}

#: overrides of BASE whose scenario block of ``results_json`` is pinned
SCENARIO_BLOCKS = {
    "escd": ({}, "c480006ec5006aa06ff6718bdcd3e8160a2b411f2baf8a1398bc6ce2dd573522"),
    "emcd_rr": ({"policy": "emcd_rr"},
                "e2ebd9c56c5f17baab7a783e35fef33a15325c3c66105a551c4dc3dceeb89f44"),
    "emcd_ucb": ({"policy": {"emcd_ucb": {"delta": 0.3}}},
                 "f5f5431320275e056d9366b2668cc9327d2fb95934323e81963dd9f9ce20ab11"),
    "constant": ({"betting": {"constant": 0.2}},
                 "f4c681512248335fd8f44f93a405bb3a1c94943416a23736d42d78b00a40483b"),
    "matrices": ({"observables": {"matrices": [[[0, 1], [1, 0]], [[1, 0], [0, -1]]]},
                  "weights": [0.25, 0.75]},
                 "fb5a68a95d71d7daca2f832d6f542a67b18b827761b848cdfb231e63f6e3ff1b"),
}

#: (overrides of BASE, extra flags) of ``shadowcpd growth`` runs whose stdout is pinned
GROWTH_RUNS = {
    "local-d1-escd": ({}, [],
                      "8099d6ebd8fa87891fb27947d048dea152e9a4bf12330a6ac23989c12467657c"),
    "emcd_rr-slack": ({"theta1": 0.95, "policy": "emcd_rr",
                       "betting": {"cbce": {"slack": 0.4}}}, [],
                      "c928e60ebc78874de08d40e4d7f7d60b511c6cea214e1f1821dceb12878d5073"),
    "joint-d3": ({"d": 3, "ensemble": "joint", "theta1": 0.8, "nu": 50, "alpha": 0.01}, [],
                 "94566169dd4ca26c2b3ce82f4e257e486205acf26f3fe333c0583cafdabc02e0"),
    "local-d4-monte-carlo": ({"d": 4}, ["--shots", "2000", "--seed", "3"],
                             "e635a5f6ef8b3ccecf9ba3f4558c6c230251677ae0d6d4ac4f1e3fc34624a853"),
}

#: the benchmark's scenario document (bench/run.py), restated so the pins
#: do not follow edits to the benchmark
BENCH_BASE = {"d": 2, "ensemble": "local", "observables": {"rotated": 1}, "theta0": -0.5,
              "theta1": 1.0, "nu": None, "alpha": 0.01, "policy": "escd", "run_cap": 2000}

#: (overrides of BENCH_BASE, runs at master seed 1, CSV digest, summary digest)
BENCH_BATCHES = {
    "null-arl-sr": ({"detector": "sr"}, 4,
                    "31c65ccfddb83b30bc8b34abb3c136b538889fd3292edd1120ce4bf5f86d20ff",
                    "e792fe32b3e31c14b0d02630af269edeb43a87c79cda86e23f48df5c8c630a8a"),
    "null-arl-cusum": ({"detector": "cusum"}, 4,
                       "80fb3034f19016293998ccc825a5b7080196bd4f92921fb6c19341ff5ff2a344",
                       "7019b7ab07446a8bbed0e3c093b61a6f0803bf4b11a3e2b4859adcad0d8fecb9"),
    "ucb-n8": ({"policy": "emcd_ucb", "observables": {"rotated": 8}, "nu": 200}, 20,
               "c6c230a43bd33c89e80d923a7dd37ffd00a9254e134ee08e23e57f11cbc1cfdd",
               "d0943db565c7ea9404124e9d04af076dd5225d2f60787f0551ae5b9f016db9df"),
    "joint-d2": ({"ensemble": "joint", "theta1": 0.8, "nu": 50}, 40,
                 "5fcbe1612c65b802483b2e6ac39d7c14f0d5f51c4da87d504ce8b1742ef7eb15",
                 "34e64e0a3e346eaa447030310b15805b8450d955062644bb2741147647896cfa"),
    "joint-d3": ({"ensemble": "joint", "theta1": 0.8, "nu": 50, "d": 3}, 40,
                 "86fdb8110d463aa65c7b7f5f2254936b78bfc6ff0552b51d7bed0ab3eac6cd1a",
                 "61438a26d3884584e536c750e78981208bd0c215678ab61b3927c17527345a4d"),
}


@pytest.mark.parametrize("name", sorted(PRESET_DIGESTS))
def test_preset_documents_are_frozen(name, capsys):
    assert cli.main(["preset", "--name", name]) == 0
    assert sha(capsys.readouterr().out) == PRESET_DIGESTS[name]


@pytest.mark.parametrize("case", sorted(SCENARIO_BLOCKS))
def test_results_json_scenario_block_is_frozen(case):
    overrides, digest = SCENARIO_BLOCKS[case]
    sc = hz.Scenario.from_dict(dict(BASE, **overrides))
    trial = hz.TrialResult(run_index=0, seed=0, stop_time=1, censored=False,
                           false_alarm=True, delay=None, nu=sc.nu)
    doc = json.loads(hz.results_json(sc, [trial], hz.summarize([trial])))
    assert sha(json.dumps(doc["scenario"])) == digest


@pytest.mark.parametrize("case", sorted(GROWTH_RUNS))
def test_growth_reports_are_frozen(case, tmp_path, capsys):
    overrides, flags, digest = GROWTH_RUNS[case]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(dict(BASE, **overrides)), encoding="utf-8")
    assert cli.main(["growth", "--scenario", str(path), *flags]) == 0
    assert sha(capsys.readouterr().out) == digest


@pytest.mark.parametrize("case", sorted(BENCH_BATCHES))
def test_benchmark_batches_are_frozen(case):
    overrides, runs, csv_digest, summary_digest = BENCH_BATCHES[case]
    sc = hz.Scenario.from_dict(dict(BENCH_BASE, **overrides))
    results = hz.run_experiment(sc, runs, master_seed=1)
    assert sha(hz.results_csv(sc, results)) == csv_digest
    doc = json.loads(hz.results_json(sc, results, hz.summarize(results, sc)))
    assert sha(json.dumps(doc["summary"])) == summary_digest
