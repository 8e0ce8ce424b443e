"""One cold shadowcpd experiment in a fresh interpreter.

Usage: python3 child.py SPEC.json REPORT.json

The spec names the workload's scenario files, the master seed, the first
run index and the trial count per scenario.  The child does what
``shadowcpd run --parallelism 1`` does, once per scenario: import, load and
validate the scenario, build the ScenarioRuntime, run the trials one after
another with seeds from ``harness.derive_seed``, summarize, and write the
CSV and JSON results.  It times each phase and each trial and writes a
report.  With ``"trace": true`` it records spans (see tracer.py) and runs
each trial twice, untraced and traced, to measure the tracing overhead.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

def scenario_sha256(scenario) -> str:
    canonical = json.dumps(scenario.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def main(spec_path, report_path) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    perf = time.perf_counter
    t_import = perf()
    import numpy
    import shadowcpd
    from shadowcpd import cli, harness
    import_s = perf() - t_import

    src = Path(spec["src"]).resolve()
    if src not in Path(shadowcpd.__file__).resolve().parents:
        raise RuntimeError(f"imported shadowcpd from {shadowcpd.__file__}, not from {src}")

    tracer = None
    call = _untraced
    if spec["trace"]:
        from tracer import Tracer, instrument

        tracer = Tracer()
        tracer.record("cli.import", t_import, t_import + import_s)
        instrument(tracer)
        call = tracer.call

    scenarios, load_s = [], []
    for path in spec["scenario_files"]:
        t0 = perf()
        scenarios.append(call("cli.load_scenario", cli._load_scenario, path))
        load_s.append(perf() - t0)

    runtimes, setup_s = [], []
    for sc in scenarios:
        t0 = perf()
        runtimes.append(call("harness.runtime_build", harness.ScenarioRuntime, sc))
        setup_s.append(perf() - t0)

    def timed_trial(sc, seed, i, rt):
        t0 = perf()
        return call("harness.trial", harness.run_trial, sc, seed, i, rt), perf() - t0

    master, start, n = spec["master_seed"], spec["start_index"], spec["trials"]
    per_scenario = []
    for k, (sc, rt) in enumerate(zip(scenarios, runtimes)):
        results, trials = [], []
        for i in range(start, start + n):
            seed = harness.derive_seed(master, i)
            try:
                if tracer is None:
                    r, s = timed_trial(sc, seed, i, rt)
                    record = {"s": s}
                else:
                    # each trial runs twice, untraced and traced, in
                    # alternating order: the pair differs only by tracing,
                    # not by the machine's speed at the time
                    tracer.trial = [k, i]
                    runs = {}
                    for on in ((False, True) if i % 2 == 0 else (True, False)):
                        tracer.enabled = on
                        runs[on] = timed_trial(sc, seed, i, rt)
                    tracer.enabled = True
                    r, s = runs[True]
                    record = {"s": s, "untraced_s": runs[False][1],
                              "untraced_differs": runs[False][0] != r}
            except Exception:
                trials.append({"run_index": i, "seed": seed, "error": traceback.format_exc()})
                continue
            trials.append({**harness.trial_to_dict(r), **record})
            results.append(r)
        per_scenario.append((results, trials))
    if tracer is not None:
        tracer.trial = None

    out = []
    for k, (sc, (results, trials)) in enumerate(zip(scenarios, per_scenario)):
        trial_s = sum(t["s"] for t in trials if "error" not in t)
        stats, summary_s, emit_s = None, None, 0.0
        if results:
            t0 = perf()
            stats = call("harness.summarize", harness.summarize, results, sc)
            summary_s = perf() - t0
            base = Path(spec["out_dir"]) / f"scenario{k}"
            t0 = perf()
            call("harness.emit", harness.emit_results, sc, results, stats, "csv",
                 f"{base}.csv")
            call("harness.emit", harness.emit_results, sc, results, stats, "json",
                 f"{base}.json", master_seed=master, wall_time_seconds=trial_s)
            emit_s = perf() - t0
        out.append({
            "scenario_sha256": scenario_sha256(sc),
            "load_s": load_s[k],
            "setup_s": setup_s[k],
            "summary_s": summary_s,
            "emit_s": emit_s,
            "summary": None if stats is None else stats.to_dict(),
            "trials": trials,
        })

    report = {
        "import_s": import_s,
        "scenarios": out,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
        "package": shadowcpd.__version__,
    }
    if tracer is not None:
        report["trace"] = tracer.summary()
        tracer.dump(spec["spans_file"])
    Path(report_path).write_text(json.dumps(report), encoding="utf-8")
    return 0


def _untraced(_name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
