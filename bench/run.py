"""shadowcpd benchmark: seeded Monte Carlo batches, run cold and closed-loop.

    python3 bench/run.py --workload null-arl --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all          # every workload, one table

Run from the root of a source tree; the package is imported from its
``src/``.  A run starts fresh interpreters one after another
(parallelism 1).  Each one is a cold experiment over the workload's
scenarios (see child.py).  With ``--trace 0`` children are started until
the next one would end after ``--seconds``, but never fewer than the
workload's ``min_children``.  The end-to-end metrics are reported over all
children.  The quality guards and the CSV digest use only the first
``min_children``, so they repeat exactly for a seed.  ``--trace 1`` runs
child 0 with every trial executed untraced and traced in turn, then
probe.py, and reports the per-layer metrics.  The last stdout line is the
JSON result; a detailed record goes to ``bench/out/<workload>/``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
# a child takes seconds; a hung one must not push the run past 180 s
CHILD_TIMEOUT_S = 90
# z-score for "within Monte Carlo error" of the stored reference values
GUARD_Z = 4.0


def _scenario(**overrides):
    doc = {"d": 2, "ensemble": "local", "observables": {"rotated": 1}, "theta0": -0.5,
           "theta1": 1.0, "nu": None, "alpha": 0.01, "policy": "escd", "run_cap": 2000}
    doc.update(overrides)
    return doc


@dataclass(frozen=True)
class Workload:
    scenarios: dict  # label -> scenario document, equal trial counts
    trials: int  # per scenario per child
    min_children: int


WORKLOADS = {
    # SR and CUSUM run-length arms under the null: CBCE's growing set of
    # covering-interval experts does the work, set-up takes milliseconds
    "null-arl": Workload({"sr": _scenario(detector="sr"),
                          "cusum": _scenario(detector="cusum")}, trials=10, min_children=10),
    # matched baseline of the fig-4 crossover: UCB picks one of eight
    # bettors per step, the detector gets a sparse row, set-up runs eight
    # eigendecompositions
    "ucb-n8": Workload({"ucb": _scenario(policy="emcd_ucb", observables={"rotated": 8},
                                         nu=200)}, trials=40, min_children=3),
    # joint Clifford ensemble: d=2 is enumerated (Clifford group, exhaustive
    # bounds, outcome tables, growth reference), d=3 samples a Clifford
    # unitary and Born-samples it every step.  A child pays ~10 s of d=2
    # set-up and growth reference, so children are few and long: most runs
    # hold two, a run in a slow spell of the host only one
    "joint-ensemble": Workload({"d2": _scenario(ensemble="joint", theta1=0.8, nu=50),
                                "d3": _scenario(ensemble="joint", theta1=0.8, nu=50, d=3)},
                               trials=150, min_children=1),
}

# per-layer metrics read from span statistics of the traced child:
# metric -> (span name, scale).  "_us"/"_ms" metrics are the mean inclusive
# time per call, "_s" metrics the total per child.  When the workload makes
# no call, the value is probe.py's per-call time on the workload's inputs.
PER_CALL = {
    "qcore.born_sample_us": ("qcore.born_sample", 1e6),
    "qcore.hermitian_eig_ms": ("qcore.hermitian_eig", 1e3),
    "shadows.sample_estimates_us": ("shadows.sample_estimates", 1e6),
    "shadows.sample_clifford_unitary_us": ("shadows.sample_clifford_unitary", 1e6),
    "betting.cbce_step_us": ("betting.cbce_step", 1e6),
    "edetect.advance_us": ("edetect.advance", 1e6),
    "matched.select_index_us": ("matched.select_index", 1e6),
    "matched.setup_ms": ("matched.setup", 1e3),
    "harness.sampler_draw_us": ("harness.sampler_draw", 1e6),
    "cli.load_scenario_ms": ("cli.load_scenario", 1e3),
}
TOTAL = {
    "shadows.clifford_group_s": "shadows.clifford_group",
    "shadows.outcome_distribution_s": "shadows.outcome_distribution",
    "shadows.estimator_bounds_s": "shadows.estimator_bounds",
    "betting.growth_rate_s": "betting.growth_rate",
    "harness.runtime_build_s": "harness.runtime_build",
    "harness.summarize_s": "harness.summarize",
    "harness.emit_s": "harness.emit",
    "cli.import_s": "cli.import",
}
COUNTS = {
    "qcore.born_sample_calls": "qcore.born_sample",
    "betting.cbce_steps": "betting.cbce_step",
    "edetect.advances": "edetect.advance",
}


class BenchError(RuntimeError):
    """The benchmark cannot run in this directory."""


# ---------------------------------------------------------------------------
# children


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    # one BLAS thread: trials are sequential, and a second thread made small
    # products (64x64) up to ten times slower whenever the other core was busy
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(script, spec, work):
    """Run one fresh interpreter; returns (report or None, wall s, error)."""
    work.mkdir(parents=True, exist_ok=True)
    spec_path, report_path = work / "spec.json", work / "report.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    report_path.unlink(missing_ok=True)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(BENCH / script), str(spec_path),
                               str(report_path)], env=_child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - t0, f"{script} timed out after {CHILD_TIMEOUT_S}s"
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        return None, wall, f"{script} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return json.loads(report_path.read_text(encoding="utf-8")), wall, None


def _write_scenarios(name, wl):
    files = []
    for label, doc in wl.scenarios.items():
        path = OUT / name / f"{label}.scenario.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        files.append(str(path))
    return files


def _run_child(name, wl, files, seed, j, trials, trace=False):
    tag = f"child{j}" + ("-traced" if trace else "")
    work = OUT / name / tag
    spec = {"src": str(SRC), "scenario_files": files, "master_seed": seed,
            "start_index": j * trials, "trials": trials, "trace": trace,
            "out_dir": str(work), "spans_file": str(OUT / name / f"seed{seed}-spans.json")}
    report, wall, err = _spawn("child.py", spec, work)
    return {"index": j, "work": work, "report": report, "wall_s": wall, "error": err,
            "trials": trials, "start": j * trials}


# ---------------------------------------------------------------------------
# output checks


def trial_problems(t, sc, master, index):
    """Invariant violations of one reported trial (empty when it is sound)."""
    if "error" in t:
        return [f"trial {index} raised: {t['error'].strip().splitlines()[-1]}"]
    out = []
    stop, cap, nu = t["stop_time"], sc["run_cap"], sc["nu"]
    if t["run_index"] != index or t["seed"] != _derive_seed(master, index):
        out.append(f"trial {index}: run index or seed differs from the master-seed stream")
    if not 1 <= stop <= cap:
        out.append(f"trial {index}: stop_time {stop} outside [1, {cap}]")
    if t["censored"]:
        if stop != cap or t["false_alarm"] or t["delay"] is not None:
            out.append(f"trial {index}: censored but stop/false_alarm/delay inconsistent")
    elif nu is None:
        if t["false_alarm"] or t["delay"] is not None:
            out.append(f"trial {index}: no changepoint but a false alarm or delay")
    elif t["false_alarm"] != (stop < nu) or t["delay"] != (stop - nu if stop >= nu else None):
        out.append(f"trial {index}: false_alarm/delay inconsistent with stop {stop}, nu {nu}")
    if t["nu"] != nu:
        out.append(f"trial {index}: nu {t['nu']} differs from the scenario")
    return out


def _derive_seed(master, index):
    # harness.derive_seed, restated so the check does not trust the program
    mask = (1 << 64) - 1
    z = (master + (index + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def _csv_text(child, k):
    return (child["work"] / f"scenario{k}.csv").read_text(encoding="utf-8")


def output_problems(child, k, trials):
    """The child's CSV and JSON files must hold exactly the trials it reported."""
    ok = [t for t in trials if "error" not in t]
    if not ok:
        return []
    rows = list(csv.DictReader(io.StringIO(_csv_text(child, k))))
    doc = json.loads((child["work"] / f"scenario{k}.json").read_text(encoding="utf-8"))
    fields = ("run_index", "seed", "stop_time", "censored", "false_alarm", "delay")
    as_csv = [[str(t[f]).lower() if t[f] is not None else "" for f in fields] for t in ok]
    problems = []
    if [[r[f] for f in fields] for r in rows] != as_csv:
        problems.append(f"child {child['index']} scenario {k}: CSV rows differ from the trials")
    if [{f: t[f] for f in fields} for t in doc["trials"]] != [{f: t[f] for f in fields}
                                                              for t in ok]:
        problems.append(f"child {child['index']} scenario {k}: JSON trials differ")
    stops = [t["stop_time"] for t in ok]
    summary = doc["summary"]
    if summary["runs"] != len(ok) or not math.isclose(
            summary["mean_run_length"], sum(stops) / len(stops), rel_tol=1e-9):
        problems.append(f"child {child['index']} scenario {k}: JSON summary disagrees")
    return problems


def guard_stats(trials):
    """Detection statistics of a list of sound trials."""
    n = len(trials)
    stops = [t["stop_time"] for t in trials]
    delays = [t["delay"] for t in trials if t["delay"] is not None]
    return {
        "trials": n,
        "mean_run_length": statistics.fmean(stops),
        "run_length_se": statistics.stdev(stops) / math.sqrt(n) if n > 1 else 0.0,
        "false_alarm_frac": sum(t["false_alarm"] for t in trials) / n,
        "censored_frac": sum(t["censored"] for t in trials) / n,
        "delays": len(delays),
        "mean_delay": statistics.fmean(delays) if delays else None,
        "delay_sd": statistics.stdev(delays) if len(delays) > 1 else None,
    }


def guard_problems(label, sc, g, ref):
    """Criterion-04 floor under the null; reference agreement otherwise."""
    if g["trials"] == 0:
        return [f"{label}: no sound trials"]
    if sc["nu"] is None:
        floor = 1.0 / sc["alpha"] - g["run_length_se"]
        if g["mean_run_length"] < floor:
            return [f"{label}: mean run length {g['mean_run_length']:.1f} below 1/alpha - se "
                    f"= {floor:.1f}"]
        return []
    out = []
    if ref is None:
        return [f"{label}: no reference values stored"]
    if g["mean_delay"] is None:
        out.append(f"{label}: no delays observed")
    else:
        se = math.hypot(ref["delay_sd"] / math.sqrt(g["delays"]),
                        ref["delay_sd"] / math.sqrt(ref["delays"]))
        if abs(g["mean_delay"] - ref["mean_delay"]) > GUARD_Z * se:
            out.append(f"{label}: mean delay {g['mean_delay']:.2f} vs reference "
                       f"{ref['mean_delay']:.2f} (tolerance {GUARD_Z * se:.2f})")
    p = ref["false_alarm_frac"]
    tol = GUARD_Z * math.sqrt(p * (1 - p) * (1 / g["trials"] + 1 / ref["trials"])) \
        + 1.0 / g["trials"]
    if abs(g["false_alarm_frac"] - p) > tol:
        out.append(f"{label}: false-alarm fraction {g['false_alarm_frac']:.3f} vs reference "
                   f"{p:.3f} (tolerance {tol:.3f})")
    return out


def csv_digest(children, k):
    """SHA-256 of the CSV that one `shadowcpd run` over these children's
    trials would write: the header once, then every row in run order."""
    lines = []
    for child in children:
        text = _csv_text(child, k).splitlines()
        lines.extend(text if not lines else text[1:])
    return hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()


# ---------------------------------------------------------------------------
# one run


def _quantile(xs, q):
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[round(q * 100) - 1]


def _check_children(wl, children, seed):
    """Count attempted and failed trials and collect output problems."""
    scs = list(wl.scenarios.values())
    attempted = failed = 0
    problems = []
    for child in children:
        if child["report"] is None:
            attempted += child["trials"] * len(scs)
            failed += child["trials"] * len(scs)
            problems.append(f"child {child['index']}: {child['error']}")
            continue
        for k, (sc, rep) in enumerate(zip(scs, child["report"]["scenarios"])):
            for off, t in enumerate(rep["trials"]):
                bad = trial_problems(t, sc, seed, child["start"] + off)
                attempted += 1
                failed += bool(bad)
                problems.extend(bad)
            problems.extend(output_problems(child, k, rep["trials"]))
    return attempted, failed, problems


def _sound(child):
    """Per scenario, the trials of a child that ran to completion."""
    return [[t for t in sc["trials"] if "error" not in t] for sc in child["report"]["scenarios"]]


def end_to_end(wl, children):
    reps = [c["report"] for c in children]
    per_label = [[t for c in children for t in _sound(c)[k]] for k in range(len(wl.scenarios))]
    trials = [t for ts in per_label for t in ts]
    trial_s = sum(t["s"] for t in trials)

    def per_trial_ms(q):
        # averaged over scenarios: a pooled median of the null-arl arms would
        # fall in the gap between short SR and capped CUSUM trials
        return statistics.fmean(1e3 * _quantile(sorted(t["s"] for t in ts), q)
                                for ts in per_label)

    return {
        "setup_s": statistics.median(sum(s["setup_s"] for s in r["scenarios"]) for r in reps),
        "steps_per_s": sum(t["stop_time"] for t in trials) / trial_s,
        "trials_per_s": len(trials) / trial_s,
        "trial_ms_p50": per_trial_ms(0.5),
        "trial_ms_p90": per_trial_ms(0.9),
        "summary_s": statistics.median(sum(s["summary_s"] or 0.0 for s in r["scenarios"])
                                       for r in reps),
        "run_s": statistics.median(c["wall_s"] for c in children),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }, dict(zip(wl.scenarios, map(len, per_label)))


def per_layer(traced, probe):
    tr = traced["report"]["trace"]
    count, total = tr["count"], tr["total_s"]
    entries = probe["entries"]
    out = {}
    for metric, (span, scale) in PER_CALL.items():
        n = count.get(span, 0)
        out[metric] = scale * (total[span] / n if n else entries[span])
    for metric, span in TOTAL.items():
        out[metric] = total[span] if count.get(span, 0) else entries[span]
    for metric, span in COUNTS.items():
        out[metric] = count.get(span, 0)
    trials = [t for ts in _sound(traced) for t in ts]
    steps = sum(t["stop_time"] for t in trials)
    cbce_steps = out["betting.cbce_steps"]
    out["betting.live_experts_mean"] = tr["live_experts_sum"] / cbce_steps if cbce_steps else 0.0
    out["harness.trial_steps"] = steps
    out["harness.trial_self_us_per_step"] = 1e6 * tr["self_s"]["harness.trial"] / steps
    out["harness.failed_trials"] = sum(len(sc["trials"])
                                       for sc in traced["report"]["scenarios"]) - len(trials)
    layer = tr["layer_self_s"]
    busy = sum(layer.values())
    for name, s in layer.items():
        out[f"{name}.self_share"] = s / busy
    plain = steps / sum(t["untraced_s"] for t in trials)
    traced_rate = steps / sum(t["s"] for t in trials)
    out["trace.overhead_steps_per_s"] = plain - traced_rate
    out["trace.overhead_frac"] = 1.0 - traced_rate / plain
    for key, s in probe["sweep"].items():
        out[f"shadows.sample_estimates_us.{key}"] = 1e6 * s
    return out


def _metadata(children, seed, name, wl):
    rep = next((c["report"] for c in children if c["report"] is not None), None)
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    env = _child_env()
    return {
        "workload": name,
        "seed": seed,
        "parallelism": 1,
        "nproc": os.cpu_count(),
        "python": rep and rep["python"],
        "numpy": rep and rep["numpy"],
        "package": rep and rep["package"],
        "blas_threads": {v: env[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                            "MKL_NUM_THREADS")},
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "scenario_sha256": rep and {label: s["scenario_sha256"]
                                    for label, s in zip(wl.scenarios, rep["scenarios"])},
        "trials_per_child": wl.trials,
    }


def run_workload(name, seed, seconds, trace, trials=None, min_children=None):
    """One benchmark run; returns the full result record."""
    if not (SRC / "shadowcpd" / "__init__.py").is_file():
        raise BenchError(f"no shadowcpd package under {SRC}")
    wl = WORKLOADS[name]
    files = _write_scenarios(name, wl)
    run = _traced_run if trace else _timed_run
    children, result = run(name, wl, files, seed, seconds, trials or wl.trials,
                           min_children or wl.min_children)
    attempted, failed, problems = _check_children(wl, children, seed)
    problems += result.pop("problems")
    result.update(
        workload=name,
        trace=trace,
        correct=not problems and failed == 0,
        attempted=attempted,
        failed=failed,
        failed_frac=failed / attempted,
        problems=problems,
        child_wall_s=[c["wall_s"] for c in children],
        meta=_metadata(children, seed, name, wl),
    )
    return result


def _timed_run(name, wl, files, seed, seconds, trials, min_children):
    children, t0 = [], time.perf_counter()
    while True:
        children.append(_run_child(name, wl, files, seed, len(children), trials))
        if children[-1]["report"] is None:
            break
        elapsed = time.perf_counter() - t0
        if len(children) >= min_children and \
                elapsed + statistics.median(c["wall_s"] for c in children) > seconds:
            break
    result = {"children": len(children), "problems": [], "metrics": {}, "trial_samples": {},
              "guards": {}, "csv_sha256": {}}
    if not all(c["report"] for c in children):
        return children, result
    first = children[:min_children]
    for k, (label, sc) in enumerate(wl.scenarios.items()):
        sound = [t for c in first for t in _sound(c)[k]]
        g = result["guards"][label] = guard_stats(sound) if sound else {"trials": 0}
        result["problems"] += guard_problems(f"{name}/{label}", sc, g,
                                             _reference().get(name, {}).get(label))
        result["csv_sha256"][label] = csv_digest(first, k)
    if all(any(_sound(c)[k] for c in children) for k in range(len(wl.scenarios))):
        result["metrics"], result["trial_samples"] = end_to_end(wl, children)
    return children, result


def _traced_run(name, wl, files, seed, _seconds, trials, _min_children):
    child = _run_child(name, wl, files, seed, 0, trials, trace=True)
    result = {"problems": [], "metrics": {}}
    if child["report"] is None:
        return [child], result
    if any(t.get("untraced_differs") for ts in _sound(child) for t in ts):
        result["problems"].append("tracing changed a trial's result")
    spans = {s for s, _ in PER_CALL.values()} | set(TOTAL.values())
    missing = sorted(spans - set(child["report"]["trace"]["count"]))
    probe, _, err = _spawn("probe.py", {"seed": seed, "scenario_files": files,
                                        "entries": missing}, OUT / name / "probe")
    if err:
        result["problems"].append(err)
    else:
        result["metrics"] = per_layer(child, probe)
        result["probed_entries"] = missing
    return [child], result


def _reference():
    return json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# reporting


def _load_benchmark():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    return json.loads(path.read_text(encoding="utf-8"))


def _units(bench):
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    units.update(failed_frac="ratio", mean_run_length="steps", mean_delay="steps",
                 false_alarm_frac="ratio", censored_frac="ratio")
    return units


def print_table(result, units):
    meta = result["meta"]
    print(f"== {result['workload']}  seed {meta['seed']}  trace {int(result['trace'])}  "
          f"nproc {meta['nproc']}  python {meta['python']}  numpy {meta['numpy']}  "
          f"commit {meta['git_commit'] or 'n/a'}  src {meta['src_sha256'][:12]}")
    if not result["trace"]:
        print(f"   children {result['children']}, trials per scenario "
              f"{result['trial_samples']}")
    for name, value in result["metrics"].items():
        print(f"   {name:40s} {value:>14.6g} {units.get(name, '')}")
    print(f"   {'failed_frac':40s} {result['failed_frac']:>14.6g} ratio "
          f"({result['failed']} of {result['attempted']} trials)")
    for label, g in result.get("guards", {}).items():
        for key in ("mean_run_length", "mean_delay", "false_alarm_frac", "censored_frac"):
            if g.get(key) is not None:
                print(f"   {label + '.' + key:40s} {g[key]:>14.6g} {units[key]}")
        print(f"   {label + '.csv_sha256':40s} {result['csv_sha256'][label]}")
    for problem in result["problems"]:
        print(f"   PROBLEM: {problem}")


def _emit_metrics(result, names, units, prefix=""):
    missing = [n for n in names if n not in result["metrics"]]
    if missing and result["correct"]:
        raise BenchError(f"metrics not computed: {missing}")
    return {prefix + n: {"value": result["metrics"][n], "unit": units[n]}
            for n in names if n in result["metrics"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        bench = _load_benchmark()
        units = _units(bench)
        names = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
        seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
        todo = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = []
        for name in todo:
            result = run_workload(name, args.seed, seconds, bool(args.trace))
            path = OUT / name / f"seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps(result, indent=1, default=str) + "\n", encoding="utf-8")
            print_table(result, units)
            results.append(result)
        metrics = {}
        for result in results:
            prefix = f"{result['workload']}." if args.workload == "all" else ""
            metrics.update(_emit_metrics(result, names, units, prefix))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
