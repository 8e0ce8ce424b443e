"""Direct timings of single entry points, in a fresh interpreter.

Usage: python3 probe.py SPEC.json REPORT.json

Two jobs, both for the traced run:

* the direct-sampling sweep: seconds per ``shadows.sample_estimates`` call
  for the local ensemble at d = 4, 6, 8, 10 and the joint one at
  d = 3, 4, 5, 6, on the state (I + 0.8 X^d)/2^d with one observable;
* per-call seconds of the entry points named in the spec, called on the
  workload's first scenario.  The traced run asks for the entry points its
  workload never called, so that every per-layer time is measured.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

SWEEP = (("local", (4, 6, 8, 10)), ("joint", (3, 4, 5, 6)))
SWEEP_THETA = 0.8
SWEEP_BUDGET_S = 0.5
ENTRY_BUDGET_S = 0.2
MAX_CALLS = 20


def seconds_per_call(fn, budget, min_calls=1):
    """Median seconds of repeated calls: at least ``min_calls``, then until
    ``budget`` seconds or MAX_CALLS calls."""
    times = []
    while len(times) < min_calls or (sum(times) < budget and len(times) < MAX_CALLS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def sweep(rng):
    from shadowcpd import qcore, shadows

    out = {}
    for kind, widths in SWEEP:
        for d in widths:
            rho = qcore.make_theta_state(d, SWEEP_THETA)
            obs = [qcore.rotated_observable(d, 0.0)]
            out[f"{kind}.d{d}"] = seconds_per_call(
                lambda: shadows.sample_estimates(rho, obs, kind, rng), SWEEP_BUDGET_S)
    return out


def entry_probes(scenario, rng):
    """Zero-argument callables, one per traced entry point."""
    from shadowcpd import betting, harness, matched, qcore, shadows

    sc = scenario
    obs = harness.build_observables(sc)
    rho = qcore.make_theta_state(sc.d, sc.theta0)
    rho1 = qcore.make_theta_state(sc.d, sc.theta1)
    enumerable = shadows.can_enumerate(sc.ensemble, sc.d)
    stats = matched.UCBStats(len(obs))
    for i in range(len(obs)):
        stats.record(i, 1.0 + 0.01 * i)
    return {
        "qcore.born_sample": lambda: qcore.born_sample(
            rho, shadows.setting_unitary(shadows.sample_setting(sc.ensemble, sc.d, rng)), rng),
        "qcore.hermitian_eig": lambda: qcore.hermitian_eig(obs[0].mat),
        "shadows.sample_estimates": lambda: shadows.sample_estimates(rho, obs, sc.ensemble, rng),
        "shadows.sample_clifford_unitary": lambda: shadows.sample_clifford_unitary(sc.d, rng),
        "shadows.clifford_group": lambda: shadows.clifford_group(
            min(sc.d, shadows.MAX_ENUM_JOINT)),
        "shadows.outcome_distribution": lambda: shadows.outcome_distribution(
            rho, obs, sc.ensemble),
        "shadows.estimator_bounds": lambda: shadows.estimator_bounds(
            obs[0], sc.ensemble, mode="exhaustive" if enumerable else "analytic"),
        "betting.growth_rate": lambda: betting.estimate_growth_rate(rho1, obs, sc.ensemble),
        "matched.setup": lambda: matched.ProjectiveMeasurement(obs[0]),
        "matched.select_index": lambda: matched.select_index("ucb", len(obs) + 1, len(obs), stats),
    }


def main(spec_path, report_path) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    import numpy as np
    from shadowcpd import cli

    rng = np.random.default_rng(spec["seed"])
    scenario = cli._load_scenario(spec["scenario_files"][0])
    probes = entry_probes(scenario, rng)
    entries = {}
    for name in spec["entries"]:
        # the Clifford group is cached after its first build: time that one
        min_calls = 1 if name == "shadows.clifford_group" else 3
        budget = 0.0 if name == "shadows.clifford_group" else ENTRY_BUDGET_S
        entries[name] = seconds_per_call(probes[name], budget, min_calls)
    report = {"entries": entries, "sweep": sweep(rng)}
    Path(report_path).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
