"""The benchmark instruments entry points by name from outside the package.

``bench/tracer.py`` wraps functions and methods it looks up by name, and
``bench/probe.py`` calls entry points directly.  A refactor that renames
or removes one of them breaks ``bench/run.py --trace 1``; this test runs
the same lookups on the ucb-n8 workload in a fresh interpreter, and checks
the live-expert count the tracer reads on one null-arl trial.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = r"""
import numpy as np
import probe, run, tracer
from shadowcpd import harness

tr = tracer.Tracer()
tracer.instrument(tr)
sc = harness.Scenario.from_dict(run.WORKLOADS["ucb-n8"].scenarios["ucb"])
probes = probe.entry_probes(sc, np.random.default_rng(0))
for name in ("qcore.hermitian_eig", "matched.setup", "matched.select_index"):
    probes[name]()
rt = harness.ScenarioRuntime(sc)
harness.run_trial(sc, harness.derive_seed(1, 0), 0, rt)
for span in ("qcore.hermitian_eig", "matched.setup", "matched.select_index",
             "betting.cbce_step", "edetect.advance", "harness.sampler_draw"):
    assert tr.count[span] > 0, span

# betting.live_experts_mean reads len(bettor.entries) after every CBCE step;
# one SR trial with one observable holds t.bit_length() experts at step t
sc = harness.Scenario.from_dict(run.WORKLOADS["null-arl"].scenarios["sr"])
before = tr.live_experts
res = harness.run_trial(sc, harness.derive_seed(1, 0), 0, harness.ScenarioRuntime(sc))
assert tr.live_experts - before == sum(t.bit_length() for t in range(1, res.stop_time + 1))
"""


def test_tracer_and_probes_find_every_entry_point():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "bench"), str(ROOT / "src")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
