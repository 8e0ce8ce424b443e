"""One-shot report of the Tier-1 wall time per test (not a gated metric).

    python3 bench/tier1_durations.py

Runs the repository's test suite once with ``pytest --durations=0`` and
writes ``bench/out/tier1_durations.json``: exit code, summary line and the
seconds of every setup/call/teardown phase, slowest first.  One pass takes
several minutes, so it stays outside the repeated workload runs.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time

from run import OUT, ROOT, _child_env

DURATION = re.compile(r"^\s*([0-9.]+)s\s+(setup|call|teardown)\s+(\S+)")


def main() -> int:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--durations=0", "--durations-min=0",
         "-p", "no:cacheprovider", "tests"],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.splitlines()
    durations = [{"test": m[3], "phase": m[2], "s": float(m[1])}
                 for m in map(DURATION.match, lines) if m]
    doc = {
        "exit_code": proc.returncode,
        "summary": lines[-1] if lines else "",
        "wall_s": wall,
        "durations": sorted(durations, key=lambda d: -d["s"]),
    }
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / "tier1_durations.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"{doc['summary']}; wrote {len(durations)} durations to {path}")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
