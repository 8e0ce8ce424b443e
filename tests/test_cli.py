"""Command-line behavior: subcommands, exit codes, emitted formats."""

import csv
import dataclasses
import io
import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from shadowcpd import betting as bt
from shadowcpd import cli, harness as hz
from shadowcpd import qcore as qc
from shadowcpd import shadows as sh


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


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(BASE), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# run


def test_run_csv_to_stdout(scenario_file, capsys):
    rc = cli.main(["run", "--scenario", scenario_file, "--runs", "3", "--seed", "7"])
    assert rc == 0
    out, err = capsys.readouterr()
    lines = out.strip().split("\n")
    assert lines[0] == ",".join(hz.CSV_COLUMNS)
    assert len(lines) == 4
    # summary document goes to stderr so stdout stays machine-readable
    summary = json.loads(err.strip().split("\n")[-1])
    assert summary["runs"] == 3
    assert "wall_time_seconds" in summary


def test_run_json_format(scenario_file, capsys):
    rc = cli.main(["run", "--scenario", scenario_file, "--runs", "2",
                   "--seed", "3", "--format", "json"])
    assert rc == 0
    out, _ = capsys.readouterr()
    doc = json.loads(out)
    assert set(doc) == {"scenario", "trials", "summary", "meta"}
    assert doc["meta"]["master_seed"] == 3
    assert len(doc["trials"]) == 2
    hz.Scenario.from_dict(doc["scenario"])


def test_run_out_file(scenario_file, tmp_path, capsys):
    out_path = tmp_path / "results.csv"
    rc = cli.main(["run", "--scenario", scenario_file, "--runs", "2",
                   "--out", str(out_path)])
    assert rc == 0
    stdout, _ = capsys.readouterr()
    assert "wrote 2 trials" in stdout
    text = out_path.read_text(encoding="utf-8")
    assert text.startswith(",".join(hz.CSV_COLUMNS))


def test_run_parallelism_invariant_output(scenario_file, capsys):
    rc = cli.main(["run", "--scenario", scenario_file, "--runs", "4", "--seed", "11"])
    assert rc == 0
    serial, _ = capsys.readouterr()
    rc = cli.main(["run", "--scenario", scenario_file, "--runs", "4", "--seed", "11",
                   "--parallelism", "2"])
    assert rc == 0
    threaded, _ = capsys.readouterr()
    assert serial == threaded


def test_run_rejects_bad_scenario_field(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(BASE, mystery=1)), encoding="utf-8")
    rc = cli.main(["run", "--scenario", str(path), "--runs", "1"])
    assert rc == 2
    _, err = capsys.readouterr()
    assert "scenario.mystery" in err


def test_run_rejects_missing_file(tmp_path, capsys):
    rc = cli.main(["run", "--scenario", str(tmp_path / "nope.json"), "--runs", "1"])
    assert rc == 2
    _, err = capsys.readouterr()
    assert "error:" in err


@pytest.mark.parametrize("field, value", [
    ("d", True), ("nu", True), ("run_cap", True), ("observables", {"rotated": True}),
    ("theta1", True), ("betting", {"cbce": {"slack": True}}),
    ("theta0", "low"), ("theta0", None), ("theta1", "high"), ("theta1", None),
])
def test_run_rejects_booleans_and_non_numbers(field, value, tmp_path, capsys):
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(dict(BASE, **{field: value})), encoding="utf-8")
    rc = cli.main(["run", "--scenario", str(path), "--runs", "1"])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.strip().split("\n")
    assert len(lines) == 1 and lines[0].startswith(f"error: scenario.{field}")


@pytest.mark.parametrize("command", [
    ["run", "--runs", "1"],
    ["sweep", "--param", "theta1", "--values", "0.5", "--runs", "1"],
    ["preset", "--name", "desk-fig4"],
    ["preset", "--list"],
])
def test_unwritable_out_exits_2(command, scenario_file, tmp_path, capsys, monkeypatch):
    # the --out path is checked before any trial is simulated
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before checking --out")

    monkeypatch.setattr(hz, "run_experiment", no_simulation)
    out_path = str(tmp_path / "missing" / "out.txt")
    args = [command[0]] if command[0] == "preset" else [command[0], "--scenario", scenario_file]
    rc = cli.main([*args, *command[1:], "--out", out_path])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.strip().split("\n")
    assert len(lines) == 1 and lines[0].startswith("error: cannot write")
    assert out_path in lines[0]


def test_run_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "mangled.json"
    path.write_text("{not json", encoding="utf-8")
    rc = cli.main(["run", "--scenario", str(path), "--runs", "1"])
    assert rc == 2
    _, err = capsys.readouterr()
    assert "not valid JSON" in err


# ---------------------------------------------------------------------------
# sweep


def test_sweep_emits_one_row_per_value(scenario_file, capsys):
    rc = cli.main(["sweep", "--scenario", scenario_file, "--param", "theta1",
                   "--values", "0.5,1.0", "--runs", "3", "--seed", "5"])
    assert rc == 0
    out, _ = capsys.readouterr()
    lines = out.strip().split("\n")
    assert lines[0].startswith("param,value,runs,")
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "theta1"
    assert first[1] == "0.5"
    assert first[2] == "3"


@pytest.mark.parametrize("param, values, want", [
    ("weights", "[0.5,0.5],[0.25,0.75]", [[0.5, 0.5], [0.25, 0.75]]),
    ("betting", '{"cbce": {"grid": 8, "slack": 0.01}}', [{"cbce": {"grid": 8, "slack": 0.01}}]),
    ("detector", '"sr","cusum"', ["sr", "cusum"]),
    ("betting", '{"constant": 0.1}', [{"constant": 0.1}]),
])
def test_sweep_values_may_hold_commas(param, values, want, tmp_path, capsys):
    # the values are one JSON array's items; a value cell holding a comma or a
    # double quote is CSV-quoted
    path = tmp_path / "two_observables.json"
    path.write_text(json.dumps(dict(BASE, observables={"rotated": 2})), encoding="utf-8")
    rc = cli.main(["sweep", "--scenario", str(path), "--param", param, "--values", values,
                   "--runs", "2"])
    assert rc == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 1 + len(want)
    assert all(len(row) == len(rows[0]) == 13 for row in rows)
    assert [row[0] for row in rows[1:]] == [param] * len(want)
    assert [json.loads(row[1]) for row in rows[1:]] == want
    # an empty list sweeps nothing and is bad input
    assert cli.main(["sweep", "--scenario", str(path), "--param", param, "--values", ""]) == 2


def test_sweep_rejects_unknown_param(scenario_file, capsys):
    rc = cli.main(["sweep", "--scenario", scenario_file, "--param", "knob",
                   "--values", "1,2", "--runs", "1"])
    assert rc == 2
    _, err = capsys.readouterr()
    assert "knob" in err


def test_sweep_rejects_unparseable_values(scenario_file, capsys):
    rc = cli.main(["sweep", "--scenario", scenario_file, "--param", "theta1",
                   "--values", "0.5,oops", "--runs", "1"])
    assert rc == 2


def test_sweep_rejects_invalid_swept_value(scenario_file, capsys):
    # alpha 2.0 parses as JSON but fails scenario validation
    rc = cli.main(["sweep", "--scenario", scenario_file, "--param", "alpha",
                   "--values", "0.05,2.0", "--runs", "1"])
    assert rc == 2
    _, err = capsys.readouterr()
    assert "alpha" in err


@pytest.mark.parametrize("param, values, bad", [
    ("theta1", "0.5,-2", "-2"),  # fails scenario validation
    ("betting.cbce.slack", "0.001,5", "5"),  # fails when the runtime is built
    # equals the base's rule 1 in Python, but is no integer: not the base's
    ("observables.rotated", "1,1.0", "1.0"),
])
def test_sweep_checks_every_value_before_running_any(param, values, bad, scenario_file,
                                                      tmp_path, capsys, monkeypatch):
    runs = []
    monkeypatch.setattr(hz, "run_experiment", lambda *args, **kwargs: runs.append(args))
    out_path = tmp_path / "rows.csv"
    for out in ([], ["--out", str(out_path)]):
        rc = cli.main(["sweep", "--scenario", scenario_file, "--param", param,
                       "--values", values, "--runs", "1", *out])
        assert rc == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        lines = err.strip().split("\n")
        assert len(lines) == 1 and lines[0].startswith(f"error: sweep value {bad}: scenario.")
    assert runs == []
    assert not out_path.exists()


@pytest.mark.parametrize("run_cap, caps", [
    (None, [400, 2000, 20000]),  # the default cap, 20 ceil(1/alpha), of each alpha
    (25000, [25000, 25000, 25000]),  # a cap the document sets is kept
])
def test_sweep_over_alpha_keeps_the_document_cap(run_cap, caps, tmp_path, capsys, monkeypatch):
    doc = {k: v for k, v in BASE.items() if k != "run_cap"}
    if run_cap is not None:
        doc["run_cap"] = run_cap
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    swept = []
    run_experiment = hz.run_experiment

    def recording(scenario, *args, **kwargs):
        swept.append(scenario.run_cap)
        return run_experiment(scenario, *args, **kwargs)

    monkeypatch.setattr(hz, "run_experiment", recording)
    assert cli.main(["sweep", "--scenario", str(path), "--param", "alpha",
                     "--values", "0.05,0.01,0.001", "--runs", "1"]) == 0
    assert swept == caps
    assert len(capsys.readouterr().out.strip().split("\n")) == 4


def test_sweep_nested_param_path(scenario_file, capsys):
    rc = cli.main(["sweep", "--scenario", scenario_file, "--param", "betting.cbce.grid",
                   "--values", "8,16", "--runs", "2", "--seed", "5"])
    assert rc == 0
    out, _ = capsys.readouterr()
    assert len(out.strip().split("\n")) == 3


@pytest.mark.parametrize("policy", ["escd", "emcd_ucb"])
def test_run_and_sweep_build_one_runtime_per_scenario(policy, tmp_path, capsys, monkeypatch):
    # the runtime that checks a scenario also serves its trials and the
    # summary's growth reference (finite nu)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(dict(BASE, policy=policy)), encoding="utf-8")
    built = []
    init = hz.ScenarioRuntime.__init__

    def counting_init(self, scenario):
        built.append(scenario)
        init(self, scenario)

    monkeypatch.setattr(hz.ScenarioRuntime, "__init__", counting_init)
    assert cli.main(["run", "--scenario", str(path), "--runs", "2"]) == 0
    assert len(built) == 1
    built.clear()
    assert cli.main(["sweep", "--scenario", str(path), "--param", "theta1",
                     "--values", "0.5,1.0", "--runs", "2"]) == 0
    assert [sc.theta1 for sc in built] == [0.5, 1.0]
    capsys.readouterr()


@pytest.mark.parametrize("policy", ["escd", "emcd_rr"])
def test_trials_summary_and_growth_share_the_scenario_runtime(policy, tmp_path, capsys,
                                                              monkeypatch):
    # the trials, the summary's growth reference and growth itself all read
    # Scenario.runtime, built once; a pickled scenario carries it to workers
    doc = dict(BASE, policy=policy)
    built = []
    init = hz.ScenarioRuntime.__init__

    def counting_init(self, scenario):
        built.append(scenario)
        init(self, scenario)

    monkeypatch.setattr(hz.ScenarioRuntime, "__init__", counting_init)
    sc = hz.Scenario.from_dict(doc)
    results = hz.run_experiment(sc, 2, master_seed=1)
    assert hz.summarize(results, sc).d_star_reference == hz.scenario_growth(sc).d_star
    assert built == [sc]
    assert pickle.loads(pickle.dumps(sc)).runtime.sources[1] is not None
    assert len(built) == 1
    built.clear()
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["growth", "--scenario", str(path)]) == 0
    assert len(built) == 1
    capsys.readouterr()


@pytest.mark.parametrize("param, values, builds", [
    # the echoed base and every value share the base's observables
    ("theta1", "0.5,0.8,1.0", 2),
    ("betting.cbce.grid", "8,16,32", 2),
    # so does a swept d or rule equal to the base's
    ("d", "2,2", 2),
    # another rule builds its own
    pytest.param("observables", '{"matrices": [[[0,0,0,1],[0,0,1,0],[0,1,0,0],[1,0,0,0]]]}',
                 3, id="observables-XX-3"),
])
def test_sweep_builds_observables_once(param, values, builds, tmp_path, capsys, monkeypatch):
    path = tmp_path / "scenario.json"
    eye, xx = qc.pauli_string("II").mat, qc.pauli_string("XX").mat
    doc = dict(BASE, d=2, observables={"matrices": [m.real.tolist()
                                                    for m in (xx / 2 + eye / 4, xx)]})
    path.write_text(json.dumps(doc), encoding="utf-8")
    parsed = []
    parse = hz._parse_matrix

    def counting_parse(entry, d, where):
        parsed.append(where)
        return parse(entry, d, where)

    monkeypatch.setattr(hz, "_parse_matrix", counting_parse)
    assert cli.main(["sweep", "--scenario", str(path), "--param", param,
                     "--values", values, "--runs", "1"]) == 0
    assert len(parsed) == builds
    assert sorted(set(parsed)) == ["scenario.observables.matrices[0]",
                                   "scenario.observables.matrices[1]"]
    capsys.readouterr()


# ---------------------------------------------------------------------------
# preset


def test_preset_list(capsys):
    rc = cli.main(["preset", "--list"])
    assert rc == 0
    out, _ = capsys.readouterr()
    names = out.strip().split("\n")
    assert set(names) == set(hz.preset_names())
    for figure in ("fig3-left", "fig3-right", "fig4", "fig5"):
        assert figure in names
        assert f"desk-{figure}" in names


def test_preset_prints_valid_scenario(capsys):
    rc = cli.main(["preset", "--name", "fig3-left"])
    assert rc == 0
    out, _ = capsys.readouterr()
    sc = hz.Scenario.from_dict(json.loads(out))
    assert sc.d == 2
    assert sc.nu is None


def test_preset_unknown_name(capsys):
    rc = cli.main(["preset", "--name", "fig9"])
    assert rc == 2
    _, err = capsys.readouterr()
    assert "fig9" in err


def test_preset_requires_name_or_list(capsys):
    assert cli.main(["preset"]) == 2


def test_preset_out_file(tmp_path, capsys):
    out_path = tmp_path / "preset.json"
    rc = cli.main(["preset", "--name", "desk-fig4", "--out", str(out_path)])
    assert rc == 0
    sc = hz.Scenario.from_dict(json.loads(out_path.read_text(encoding="utf-8")))
    assert sc.alpha == 0.01
    assert sc.run_cap == 2000


def test_preset_list_out_file(tmp_path, capsys):
    out_path = tmp_path / "presets.txt"
    rc = cli.main(["preset", "--list", "--out", str(out_path)])
    assert rc == 0
    names = hz.preset_names()
    assert out_path.read_text(encoding="utf-8") == "".join(f"{name}\n" for name in names)
    out, _ = capsys.readouterr()
    assert out == f"wrote {len(names)} preset names to {out_path}\n"


# ---------------------------------------------------------------------------
# growth


def test_growth_exact_single_qubit(scenario_file, capsys):
    """d=1 is enumerable, so the growth report is exact and closed-form."""
    rc = cli.main(["growth", "--scenario", scenario_file])
    assert rc == 0
    out, _ = capsys.readouterr()
    doc = json.loads(out)
    lam = doc["lambda_star"]
    assert doc["i_star"] == 0
    assert math.isclose(doc["d_star"], math.log1p(3.0 * lam) / 3.0, rel_tol=1e-12)
    assert len(doc["per_observable"]) == 1


def test_growth_matches_summary_reference_with_slack(tmp_path, capsys):
    # growth reports the policy's own measurement: the matched case's slack 0.4
    # fits its [-1, 1] eigenvalue range but would empty the shadow interval
    for policy, slack in (("escd", 0.1), ("emcd_rr", 0.4)):
        doc = dict(BASE, theta1=0.95, policy=policy, betting={"cbce": {"slack": slack}})
        path = tmp_path / "slack.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        rc = cli.main(["growth", "--scenario", str(path)])
        assert rc == 0
        out, _ = capsys.readouterr()
        sc = hz.Scenario.from_dict(doc)
        want = hz.summarize(hz.run_experiment(sc, 1, master_seed=0), sc).d_star_reference
        assert math.isclose(json.loads(out)["d_star"], want, rel_tol=1e-11)
    assert math.isclose(want, 0.975 * math.log1p(0.6) + 0.025 * math.log1p(-0.6), rel_tol=1e-12)


def test_growth_exact_joint_three_qubits(tmp_path, capsys):
    # joint d=3 is tabulated over its 1080 stabilizer states: growth is exact
    # and equals the summary's reference
    doc = dict(BASE, d=3, ensemble="joint", theta1=0.8, nu=50, alpha=0.01)
    path = tmp_path / "joint3.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    rc = cli.main(["growth", "--scenario", str(path)])
    assert rc == 0
    out, _ = capsys.readouterr()
    d_star = json.loads(out)["d_star"]
    assert round(d_star, 7) == 0.0408955
    sc = hz.Scenario.from_dict(doc)
    want = hz.summarize(hz.run_experiment(sc, 1, master_seed=0), sc).d_star_reference
    assert d_star == float(hz._fmt_float(want))


@pytest.mark.parametrize("command", [
    ["run", "--runs", "1"],
    ["sweep", "--param", "theta1", "--values", "0.5", "--runs", "1"],
    ["growth"],
])
def test_slack_that_empties_the_interval_exits_2(command, tmp_path, capsys):
    # d=1 shadow estimates of X span [-3, 3]: slack 0.4 empties the bet interval
    # (-1/3, 1/3), slack 0 admits a bet with a zero capital multiplier
    for slack in (0.4, 0):
        path = tmp_path / "wide_slack.json"
        path.write_text(json.dumps(dict(BASE, betting={"cbce": {"slack": slack}})),
                        encoding="utf-8")
        rc = cli.main([command[0], "--scenario", str(path), *command[1:]])
        assert rc == 2
        _, err = capsys.readouterr()
        lines = err.strip().split("\n")
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "scenario.betting.cbce.slack" in lines[0]


@pytest.mark.parametrize("command", [
    ["run", "--runs", "0"],
    ["run", "--parallelism", "0"],
    ["sweep", "--param", "theta1", "--values", "0.5", "--runs", "0"],
    ["sweep", "--param", "theta1", "--values", "0.5", "--parallelism", "0"],
    ["growth", "--shots", "0"],
    ["growth", "--shots", "-5"],
    # growth seeds numpy with --seed as is, and numpy takes no negative seed
    ["growth", "--seed", "-1"],
])
def test_nonpositive_counts_exit_2(command, tmp_path, capsys):
    # d=4 is past local enumeration, so growth would take the Monte Carlo path
    path = tmp_path / "d4.json"
    path.write_text(json.dumps(dict(BASE, d=4)), encoding="utf-8")
    rc = cli.main([command[0], "--scenario", str(path), *command[1:]])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.strip().split("\n")
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert command[-2] in lines[0]


def test_growth_requires_finite_changepoint(tmp_path, capsys):
    path = tmp_path / "null_nu.json"
    path.write_text(json.dumps(dict(BASE, nu=None)), encoding="utf-8")
    rc = cli.main(["growth", "--scenario", str(path)])
    assert rc == 2
    _, err = capsys.readouterr()
    assert "changepoint" in err


def test_growth_monte_carlo_is_seeded(tmp_path, capsys):
    # local d=4 is past enumeration: growth draws --shots estimates from --seed
    path = tmp_path / "d4.json"
    path.write_text(json.dumps(dict(BASE, d=4)), encoding="utf-8")
    outs = []
    for _ in range(2):
        rc = cli.main(["growth", "--scenario", str(path), "--shots", "2000", "--seed", "3"])
        assert rc == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    sc = hz.Scenario.from_dict(dict(BASE, d=4))
    est = bt.estimate_growth_rate(qc.make_theta_state(4, BASE["theta1"]),
                                  hz.build_observables(sc), "local", shots=2000, rng=3,
                                  slack=None, bounds_mode="analytic")
    want = json.dumps(hz._normalize_floats(dataclasses.asdict(est)), indent=2) + "\n"
    assert outs[0] == want


# ---------------------------------------------------------------------------
# validate


def test_validate_passes(capsys):
    rc = cli.main(["validate"])
    assert rc == 0
    out, _ = capsys.readouterr()
    assert "FAIL" not in out
    assert out.count("PASS") >= 5
    for d in (1, 2, 3):
        assert f"PASS  joint channel on stabilizer states d={d} " in out
    assert "PASS  stabilizer table d=2 equals the folded enumeration of 11520 Cliffords" in out


def test_validate_reports_a_raising_check_and_runs_the_rest(monkeypatch, capsys):
    # a table whose states are not normalized makes the Born sum check raise
    table = sh.stabilizer_bases
    monkeypatch.setattr(sh, "stabilizer_bases", lambda d: 1.1 * table(d))
    rc = cli.main(["validate"])
    assert rc == 1
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("FAIL  joint channel") for line in lines)
    assert any(line.startswith("PASS  covering-interval") for line in lines)


COLD_RUN = r"""
import sys
from shadowcpd import cli, harness
sc = harness.Scenario.from_dict(dict(BASE, policy="emcd_ucb", observables={"rotated": 2}))
results = harness.run_experiment(sc, 4, 1, parallelism=1)
stats = harness.summarize(results, sc)
assert stats.delay_quantiles is not None and stats.d_star_reference is not None
for name in ("numpy.ma", "concurrent.futures.process"):
    assert name not in sys.modules, name
"""


def test_cold_run_imports_neither_numpy_ma_nor_the_process_pool():
    # a serial run and its summary need neither module, and each costs
    # milliseconds of a cold run's import and first summary
    src = str(Path(hz.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    script = f"BASE = {BASE!r}\n" + COLD_RUN
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_importing_the_harness_imports_numpy_random():
    # numpy 2 imports numpy.random lazily, which would charge a process's
    # first trial 10-20 ms
    src = str(Path(hz.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    script = "import sys, shadowcpd.harness; assert 'numpy.random' in sys.modules"
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
