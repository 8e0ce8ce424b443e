"""Distribution-equivalence gate for changes that move trajectories.

    python tools/equivalence.py --record   # write tools/equivalence.json
    python tools/equivalence.py --check    # rerun, compare, exit 1 on failure

CBCE turns a one-ulp change of arithmetic into other bets, so a change of
floating-point order cannot keep trials byte-identical.  Such a change is
judged in distribution instead.  ``--record`` runs every scenario of
``SCENARIOS`` at ``RECORD_SEED`` and stores its full sample of stop times.
``--check`` reruns the stored scenarios at ``CHECK_SEED``, which gives
independent trials, and passes when every scenario passes both tests:

* a two-sample Kolmogorov-Smirnov test of the stop times does not reject
  at ``TEST_LEVEL``;
* the mean stop times differ by at most ``MEAN_SE`` pooled standard errors,
  the two-sided normal quantile of ``TEST_LEVEL``.

``TEST_LEVEL`` splits ``FAMILY_LEVEL`` evenly (Bonferroni) over the two
tests of every scenario, so an unchanged program fails the check with
probability at most ``FAMILY_LEVEL``.

Run it from the root of a source tree: the package is imported from its
``src/``.  Record only when a change means to alter the detection
statistics, and never in the change that the file judges.  Numpy only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = Path(__file__).resolve().with_suffix(".json")

RECORD_SEED = 18_0001
CHECK_SEED = 18_0002
FAMILY_LEVEL = 0.01
# worker processes per batch; trials are the same at any parallelism
PARALLELISM = 2

_NULL = {"d": 2, "ensemble": "local", "observables": {"rotated": 1}, "theta0": -0.5,
         "theta1": 1.0, "nu": None, "alpha": 0.01, "policy": "escd", "run_cap": 2000}
_DESK = dict(_NULL, nu=200)

#: (name, scenario document, trials); the documents are the desk presets and
#: the null arms of criterion 04, sized so each mode takes a few minutes on
#: two CPUs
SCENARIOS = (
    # run lengths under the null; at alpha = 0.5 most CUSUM runs end before the cap
    ("null-sr", dict(_NULL, detector="sr"), 2000),
    ("null-cusum", dict(_NULL, detector="cusum", alpha=0.5), 2000),
    ("null-rr-n8", dict(_NULL, policy="emcd_rr", observables={"rotated": 8}), 1500),
    ("null-ucb-n1", dict(_NULL, policy="emcd_ucb"), 1500),
    ("null-ucb-n8", dict(_NULL, policy="emcd_ucb", observables={"rotated": 8}), 1500),
    # delays and false alarms
    ("desk-fig3-right", _DESK, 4000),
    ("desk-fig4-escd", dict(_DESK, observables={"rotated": 8}), 2000),
    ("desk-fig4-rr", dict(_DESK, observables={"rotated": 8}, policy="emcd_rr"), 4000),
    ("desk-fig4-ucb", dict(_DESK, observables={"rotated": 8}, policy="emcd_ucb"), 4000),
    ("desk-fig5-local", dict(_DESK, d=3, theta1=0.8), 4000),
    ("desk-fig5-joint", dict(_DESK, d=3, theta1=0.8, ensemble="joint"), 4000),
    ("joint-d2", dict(_DESK, theta1=0.8, ensemble="joint"), 4000),
    # criterion 08's d = 1, nu = 1 arm at alpha = 1/200: its best bet sits at
    # the edge of the bet interval, so its delay resolves changes of slack
    ("crit08-d1", dict(_DESK, d=1, nu=1, alpha=1 / 200, run_cap=8000), 32000),
)


TEST_LEVEL = FAMILY_LEVEL / (2 * len(SCENARIOS))


def two_sided_z(level: float) -> float:
    """The z with P(|N(0, 1)| > z) = level, by bisection."""
    lo, hi = 0.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if math.erfc(mid / math.sqrt(2.0)) > level else (lo, mid)
    return hi


MEAN_SE = two_sided_z(TEST_LEVEL)


def ks_statistic(a, b) -> float:
    """Largest distance between the empirical CDFs of two samples."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    at = np.concatenate([a, b])
    fa = np.searchsorted(a, at, side="right") / a.size
    fb = np.searchsorted(b, at, side="right") / b.size
    return float(np.abs(fa - fb).max())


def ks_pvalue(d: float, n: int, m: int) -> float:
    """Asymptotic two-sample Kolmogorov-Smirnov p-value, with Stephens'
    small-sample correction; ties (censored runs) make it conservative."""
    en = math.sqrt(n * m / (n + m))
    lam = (en + 0.12 + 0.11 / en) * d
    if lam < 0.2:
        return 1.0
    total = 0.0
    for j in range(1, 101):
        term = (-1) ** (j - 1) * math.exp(-2.0 * j * j * lam * lam)
        total += term
        if abs(term) < 1e-16:
            break
    return min(1.0, max(0.0, 2.0 * total))


def compare(ref, new, ks_level: float, mean_se: float = MEAN_SE) -> dict:
    """Both tests of one scenario's stop times, and the smallest mean shift
    the mean test resolves at these sample sizes."""
    ref = np.asarray(ref, dtype=float)
    new = np.asarray(new, dtype=float)
    se = math.sqrt(ref.var(ddof=1) / ref.size + new.var(ddof=1) / new.size)
    diff = float(new.mean() - ref.mean())
    d = ks_statistic(ref, new)
    p = ks_pvalue(d, ref.size, new.size)
    return {
        "mean_ref": float(ref.mean()),
        "mean_new": float(new.mean()),
        "z": diff / se if se > 0.0 else (0.0 if diff == 0.0 else math.inf),
        "resolves": mean_se * math.sqrt(2.0 * ref.var(ddof=1) / ref.size),
        "ks_d": d,
        "ks_p": p,
        "ok": p >= ks_level and abs(diff) <= mean_se * se,
    }


def _package():
    sys.path.insert(0, str(ROOT / "src"))
    from shadowcpd import harness
    return harness


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def stop_times(harness, doc, runs: int, seed: int):
    sc = harness.Scenario.from_dict(doc)
    return [r.stop_time for r in harness.run_experiment(sc, runs, seed, PARALLELISM)]


def _tree() -> dict:
    """What a sample is drawn from: this tree's ``src/`` and its numpy and python."""
    return {"src_sha256": _src_sha256(), "numpy": np.__version__,
            "python": platform.python_version()}


def record() -> None:
    harness = _package()
    out = {
        "family_level": FAMILY_LEVEL,
        "ks_level": TEST_LEVEL,
        "mean_se": MEAN_SE,
        "record_seed": RECORD_SEED,
        "check_seed": CHECK_SEED,
        "recorded_from": _tree(),
        "scenarios": [],
    }
    for i, (name, doc, runs) in enumerate(SCENARIOS):
        t0 = time.perf_counter()
        sample = stop_times(harness, doc, runs, RECORD_SEED + i)
        print(f"{name:16s} {runs:5d} runs  mean {np.mean(sample):8.2f}  "
              f"{time.perf_counter() - t0:6.1f}s", flush=True)
        out["scenarios"].append({"name": name, "scenario": doc, "runs": runs,
                                 "stop_times": sample})
    JSON_PATH.write_text(json.dumps(out, separators=(",", ":")) + "\n", encoding="utf-8")
    print(f"wrote {JSON_PATH.relative_to(ROOT)}")


def check() -> bool:
    harness = _package()
    frozen = json.loads(JSON_PATH.read_text(encoding="utf-8"))
    ks_level = frozen["ks_level"]
    checked = _tree()
    for key, recorded in frozen["recorded_from"].items():
        print(f"{key:10s} recorded {recorded}  checked {checked[key]}")
    print(f"KS level {ks_level:.3g} per scenario (family {frozen['family_level']}), "
          f"means within {frozen['mean_se']:.3f} pooled se")
    print(f"{'scenario':16s} {'mean ref':>9s} {'mean new':>9s} {'z':>6s} "
          f"{'resolves':>9s} {'KS D':>7s} {'KS p':>8s}  verdict")
    all_ok = True
    for i, entry in enumerate(frozen["scenarios"]):
        new = stop_times(harness, entry["scenario"], entry["runs"],
                         frozen["check_seed"] + i)
        res = compare(entry["stop_times"], new, ks_level, frozen["mean_se"])
        all_ok = all_ok and res["ok"]
        print(f"{entry['name']:16s} {res['mean_ref']:9.2f} {res['mean_new']:9.2f} "
              f"{res['z']:+6.2f} {res['resolves']:9.2f} {res['ks_d']:7.4f} "
              f"{res['ks_p']:8.2g}  {'pass' if res['ok'] else 'FAIL'}", flush=True)
    print("equivalence check", "PASS" if all_ok else "FAIL")
    return all_ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--record", action="store_true", help=f"write {JSON_PATH.name}")
    mode.add_argument("--check", action="store_true", help=f"compare against {JSON_PATH.name}")
    args = parser.parse_args(argv)
    if args.record:
        record()
        return 0
    return 0 if check() else 1


if __name__ == "__main__":
    sys.exit(main())
