"""Command-line front end: run experiments, sweep parameters, print presets,
validate the measurement-channel oracles, and report growth rates.

Exit codes: 0 on success, 1 when validation fails, 2 on bad input (an
invalid scenario or flag, an unreadable scenario, an unwritable --out).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
import traceback

import numpy as np

from . import __version__, betting, harness, qcore, shadows


class SystemExit2(Exception):
    """Bad input; converted to exit code 2 at the top level."""


def _read_document(path):
    """The scenario document as written, parsed but not validated."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SystemExit2(f"cannot read scenario {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise SystemExit2(f"scenario {path} is not valid JSON: {exc}")


def _scenario_from(data):
    try:
        return harness.Scenario.from_dict(data)
    except harness.ScenarioError as exc:
        raise SystemExit2(str(exc))


def _load_scenario(path):
    return _scenario_from(_read_document(path))


def _write_out(path, text):
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise SystemExit2(f"cannot write {path}: {exc}")


def _check_writable(path):
    """Exit 2 before any simulation when ``path`` cannot be written; the
    probe leaves no file behind."""
    existed = os.path.exists(path)
    try:
        open(path, "a", encoding="utf-8").close()
    except OSError as exc:
        raise SystemExit2(f"cannot write {path}: {exc}")
    if not existed:
        os.remove(path)


def _require_counts(args, *names):
    for name in names:
        value = getattr(args, name)
        if value < 1:
            raise SystemExit2(f"--{name} must be >= 1, got {value}")


def _cmd_run(args):
    _require_counts(args, "runs", "parallelism")
    scenario = _load_scenario(args.scenario)
    if args.out:
        _check_writable(args.out)
    t0 = time.perf_counter()
    scenario.runtime  # checked before any trial; --parallelism workers get it pickled
    results = harness.run_experiment(scenario, args.runs, args.seed, args.parallelism)
    wall = time.perf_counter() - t0
    stats = harness.summarize(results, scenario)
    if args.format == "csv":
        text = harness.results_csv(scenario, results)
    else:
        text = harness.results_json(scenario, results, stats, master_seed=args.seed,
                                    wall_time_seconds=wall)
    if args.out:
        _write_out(args.out, text)
        print(f"wrote {len(results)} trials to {args.out}")
    else:
        sys.stdout.write(text)
    summary = stats.to_dict()
    summary["wall_time_seconds"] = wall
    print(json.dumps(harness._normalize_floats(summary)), file=sys.stderr)
    return 0


def _set_path(data, dotted, value):
    keys = dotted.split(".")
    node = data
    for k in keys[:-1]:
        if not isinstance(node, dict) or k not in node:
            raise SystemExit2(f"scenario has no field {dotted!r}")
        node = node[k]
    if not isinstance(node, dict) or keys[-1] not in node:
        raise SystemExit2(f"scenario has no field {dotted!r}")
    node[keys[-1]] = value


def _cmd_sweep(args):
    _require_counts(args, "runs", "parallelism")
    written = _read_document(args.scenario)
    base_scenario = _scenario_from(written)
    base = base_scenario.to_dict()
    if written.get("run_cap") is None:
        # a cap the document leaves to its default follows each swept alpha
        base["run_cap"] = None
    try:
        # the values are the items of one JSON array, so a value may hold commas
        values = json.loads("[" + args.values + "]")
        if not values:
            raise ValueError("no value given")
    except ValueError as exc:
        raise SystemExit2(f"cannot parse sweep values {args.values!r}: {exc}")
    if args.out:
        _check_writable(args.out)
    header = [
        "param", "value", "runs", "mean_run_length", "mean_delay",
        "delay_q10", "delay_q25", "delay_q50", "delay_q75", "delay_q90",
        "false_alarm_fraction", "censored_fraction", "d_star_reference",
    ]
    # values that change neither the observables nor d share the base's
    prebuilt = (None if args.param.split(".")[0] in ("observables", "d")
                else base_scenario._observables)
    # every value is checked, down to its runtime (bounds, bet intervals),
    # before any is run
    scenarios = []
    for value in values:
        data = harness._copy_jsonish(base)
        _set_path(data, args.param, value)
        try:
            scenario = harness.Scenario.from_dict(data, prebuilt)
            scenario.runtime
        except harness.ScenarioError as exc:
            raise SystemExit2(f"sweep value {value!r}: {exc}")
        scenarios.append(scenario)
    lines = [",".join(header)]
    for value, scenario in zip(values, scenarios):
        results = harness.run_experiment(scenario, args.runs, args.seed, args.parallelism)
        stats = harness.summarize(results, scenario)
        qs = stats.delay_quantiles or {}
        cell = json.dumps(value)
        row = [
            args.param,
            # CSV-quoted only when the value's JSON holds a comma or a double quote
            '"' + cell.replace('"', '""') + '"' if "," in cell or '"' in cell else cell,
            str(stats.runs),
            harness._fmt_float(stats.mean_run_length),
            "" if stats.mean_delay is None else harness._fmt_float(stats.mean_delay),
            *("" if not qs else harness._fmt_float(qs[f"q{p}"]) for p in (10, 25, 50, 75, 90)),
            harness._fmt_float(stats.false_alarm_fraction),
            harness._fmt_float(stats.censored_fraction),
            "" if stats.d_star_reference is None else harness._fmt_float(stats.d_star_reference),
        ]
        lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    if args.out:
        _write_out(args.out, text)
        print(f"wrote {len(values)} sweep rows to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_preset(args):
    if args.list:
        for name in harness.preset_names():
            print(name)
        return 0
    if not args.name:
        raise SystemExit2("preset requires --name or --list")
    try:
        scenario = harness.preset_scenario(args.name)
    except KeyError as exc:
        raise SystemExit2(str(exc.args[0]))
    text = json.dumps(scenario.to_dict(), indent=2) + "\n"
    if args.out:
        _write_out(args.out, text)
        print(f"wrote preset {args.name} to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_validate(args):
    rng = np.random.default_rng(20240817)
    failures = 0

    def check(name, run, *inputs):
        """Print one PASS/FAIL line.  ``run(*inputs)`` returns (detail, ok), the
        detail completing the line after ``name``; a check that raises fails
        with the error as its detail and its traceback on stderr."""
        nonlocal failures
        try:
            detail, ok = run(*inputs)
        except Exception as exc:
            traceback.print_exc()
            detail, ok = f": {exc}", False
        print(f"{'PASS' if ok else 'FAIL'}  {name}{detail}")
        if not ok:
            failures += 1

    # measurement channel reproduces the per-qubit depolarizing map exactly
    def local_channel(d):
        rho = qcore.make_theta_state(d, -0.37)
        out = shadows.exact_channel_apply(rho, "local")
        err = float(np.abs(out - _exact_local_channel(rho.mat, d)).max())
        return f" (err {err:.2e})", err <= 1e-10

    # the Clifford ensemble depolarizes, rho -> (rho + I) / (2^d + 1), and its
    # exact tables run over the stabilizer states a Clifford measures
    def joint_channel(d):
        rho = qcore.make_theta_state(d, 0.61)
        out = shadows.exact_channel_apply(rho, "joint")
        err = float(np.abs(out - (rho.mat + np.eye(2**d)) / (2**d + 1.0)).max())
        return f" (err {err:.2e})", err <= 1e-10

    # ... and those states are exactly the Clifford group's measured states,
    # each with the summed weight of the Clifford atoms that measure it
    def stabilizer_table(d):
        group = shadows.clifford_group(d)
        table = shadows.stabilizer_bases(d).conj().reshape(-1, 2**d)
        atom_row = _fold_onto(group.conj().reshape(-1, 2**d), table)
        rho = qcore.make_theta_state(d, 0.61)
        atom_probs = (qcore.born_probabilities(rho, group) / len(group)).ravel()
        # slot 0 collects the atoms whose state is missing from the table
        hits = np.bincount(atom_row + 1, minlength=len(table) + 1)
        folded = np.bincount(atom_row + 1, weights=atom_probs, minlength=len(table) + 1)[1:]
        err = float(np.abs(shadows.outcome_probabilities(rho, "joint") - folded).max())
        ok = hits[0] == 0 and (hits[1:] == hits[1]).all() and err <= 1e-15
        return (f" equals the folded enumeration of {len(group)} Cliffords "
                f"(weight err {err:.2e})", ok)

    # estimates always inside exhaustive bounds
    def estimates_in_bounds():
        obs = qcore.rotated_observable(2, 0.0)
        lower, upper = shadows.estimator_bounds(obs, "local", mode="exhaustive")
        rho2 = qcore.make_theta_state(2, 0.4)
        worst = 0.0
        for _ in range(2000):
            o = shadows.sample_estimates(rho2, [obs], "local", rng)[0]
            worst = max(worst, lower - o, o - upper)
        return f" (excess {worst:.2e})", worst <= 0.0

    def covering_intervals():
        return "", all(
            len(betting.covering_intervals(t)) == int(math.floor(math.log2(t))) + 1
            for t in range(1, 10_001)
        )

    for d in (1, 2):
        check(f"local channel enumeration d={d}", local_channel, d)
    for d in (1, 2, 3):
        check(f"joint channel on stabilizer states d={d}", joint_channel, d)
    for d in (1, 2):
        check(f"stabilizer table d={d}", stabilizer_table, d)
    check("estimates within exhaustive bounds", estimates_in_bounds)
    check("covering-interval cardinality up to 10^4", covering_intervals)
    return 1 if failures else 0


def _fold_onto(kets, table):
    """Row of ``table`` holding each ket up to global phase, -1 where none
    does; each ket is rotated to make its first nonzero entry positive."""
    def canon(k):
        lead = k[np.arange(len(k)), (np.abs(k) > 1e-12).argmax(axis=1)]
        # + 0.0 turns negative zeros positive, so equal states get equal bytes
        return np.round(k * (np.abs(lead) / lead)[:, None], 9) + 0.0

    rows = {row.tobytes(): i for i, row in enumerate(canon(table))}
    return np.array([rows.get(row.tobytes(), -1) for row in canon(kets)])


def _exact_local_channel(mat, d):
    # independent oracle: the local-ensemble channel factorizes per qubit as
    # rho -> (rho + I_k (x) Tr_k rho)/3
    out = mat.astype(complex)
    for k in range(d):
        out = _apply_single_qubit_channel(out, k, d)
    return out


def _apply_single_qubit_channel(mat, k, d):
    dim = 1 << d
    t = mat.reshape((1 << k, 2, 1 << (d - 1 - k)) * 2)
    tr = np.trace(t, axis1=1, axis2=4)
    lifted = np.einsum("ab,ikjl->iakjbl", np.eye(2), tr).reshape(dim, dim)
    return (mat + lifted) / 3.0


def _cmd_growth(args):
    _require_counts(args, "shots")
    est = harness.scenario_growth(_load_scenario(args.scenario), shots=args.shots, rng=args.seed)
    print(json.dumps(harness._normalize_floats(dataclasses.asdict(est)), indent=2))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="shadowcpd",
        description="sequential quantum changepoint detection experiments",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and emit trial results")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--runs", type=int, default=100)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--parallelism", type=int, default=1)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--format", choices=("csv", "json"), default="csv")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="rerun a scenario across parameter values")
    p_sweep.add_argument("--scenario", required=True)
    p_sweep.add_argument("--param", required=True, help="dotted field path, e.g. theta1")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated JSON values, e.g. 0.5,1.0 or [0.5,0.5],[0.25,0.75]")
    p_sweep.add_argument("--runs", type=int, default=100)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--parallelism", type=int, default=1)
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_preset = sub.add_parser("preset", help="print a ready-made scenario as JSON")
    p_preset.add_argument("--name", default=None)
    p_preset.add_argument("--list", action="store_true")
    p_preset.add_argument("--out", default=None)
    p_preset.set_defaults(func=_cmd_preset)

    p_val = sub.add_parser("validate", help="run the enumeration-oracle invariant suite")
    p_val.set_defaults(func=_cmd_validate)

    p_growth = sub.add_parser("growth", help="growth rate of the policy's post-change measurement")
    p_growth.add_argument("--scenario", required=True)
    p_growth.add_argument("--shots", type=int, default=betting.GROWTH_SHOTS)
    p_growth.add_argument("--seed", type=int, default=0)
    p_growth.set_defaults(func=_cmd_growth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SystemExit2, harness.ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
