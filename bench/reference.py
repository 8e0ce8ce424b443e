"""Regenerate reference.json: detection statistics of the finite-changepoint
scenarios from one large batch, which every benchmark run is checked against.

    PYTHONPATH=src python3 bench/reference.py

Its master seed is not one the benchmark is run with.  Rerun this only when
a change is meant to alter the detection statistics, and say so.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from shadowcpd import harness

from run import BENCH, WORKLOADS, guard_stats

REFERENCE_SEED = 20261017
REFERENCE_TRIALS = 1000


def main() -> int:
    out = {}
    for name, wl in WORKLOADS.items():
        for label, doc in wl.scenarios.items():
            if doc["nu"] is None:
                continue
            sc = harness.Scenario.from_dict(doc)
            results = harness.run_experiment(sc, REFERENCE_TRIALS, REFERENCE_SEED)
            g = guard_stats([harness.trial_to_dict(r) for r in results])
            out.setdefault(name, {})[label] = {
                "seed": REFERENCE_SEED,
                **{k: g[k] for k in ("trials", "delays", "mean_delay", "delay_sd",
                                     "false_alarm_frac")},
            }
            print(name, label, out[name][label], file=sys.stderr)
    (BENCH / "reference.json").write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
