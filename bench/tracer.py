"""In-memory span tracer that instruments shadowcpd from outside.

``instrument(tracer)`` replaces the public entry points of each layer with
timing wrappers, on the defining module and on every module that imported
the name, so no file under ``src/`` changes.  A span records its name,
start, end, parent span and trial id; self time is a span's duration minus
the time its child spans cover.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

LAYERS = ("qcore", "shadows", "betting", "edetect", "matched", "harness", "cli")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, trial id]
        self.trial = None
        self.enabled = True  # when False, wrapped calls run untimed
        self.count = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.live_experts = 0  # summed over CBCE steps
        self._stack = []  # open span indices
        self._child = []  # time covered by children of each open span

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.trial])
        self._stack.append(idx)
        self._child.append(0.0)
        return idx

    def _close(self, idx, t0, t1):
        dur = t1 - t0
        self._stack.pop()
        covered = self._child.pop()
        if self._child:
            self._child[-1] += dur
        span = self.spans[idx]
        span[1] = t0
        span[2] = t1
        name = span[0]
        self.count[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - covered

    def wrap(self, fn, name, after=None):
        """Timing wrapper; ``after(args, result)`` runs outside the span."""
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = self._open(name)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, t0, perf())
            if after is not None:
                after(args, result)
            return result

        return traced

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span opened by the benchmark's own code."""
        return self.wrap(fn, name)(*args, **kwargs)

    def record(self, name, t0, t1):
        """A root span timed before the tracer existed (the package import)."""
        idx = self._open(name)
        self._close(idx, t0, t1)

    def layer_self_time(self):
        out = dict.fromkeys(LAYERS, 0.0)
        for name, s in self.self_time.items():
            out[name.split(".", 1)[0]] += s
        return out

    def summary(self):
        return {
            "count": dict(self.count),
            "total_s": dict(self.total),
            "self_s": dict(self.self_time),
            "layer_self_s": self.layer_self_time(),
            "live_experts_sum": self.live_experts,
        }

    def dump(self, path):
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        doc = {
            "columns": ["name", "start_s", "end_s", "parent", "trial"],
            "names": names,
            "spans": [[code[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _patch(tracer, owners, attr, name, after=None):
    # one wrapper shared by every module holding the name, so a call is
    # recorded once whichever module it goes through
    wrapped = tracer.wrap(getattr(owners[0], attr), name, after)
    for owner in owners:
        setattr(owner, attr, wrapped)


def instrument(tracer):
    """Wrap each layer's public entry points; call once per process."""
    from shadowcpd import betting, edetect, harness, matched, shadows

    def count_experts(args, _result):
        tracer.live_experts += len(args[0].entries)

    _patch(tracer, [shadows], "born_sample", "qcore.born_sample")
    _patch(tracer, [matched], "hermitian_eig", "qcore.hermitian_eig")
    _patch(tracer, [shadows, harness, betting], "sample_estimates", "shadows.sample_estimates")
    _patch(tracer, [shadows], "sample_clifford_unitary", "shadows.sample_clifford_unitary")
    _patch(tracer, [shadows], "clifford_group", "shadows.clifford_group")
    _patch(tracer, [shadows, harness, betting], "outcome_distribution",
           "shadows.outcome_distribution")
    _patch(tracer, [shadows, harness, betting], "estimator_bounds", "shadows.estimator_bounds")
    _patch(tracer, [betting.CBCEBettor], "step", "betting.cbce_step", count_experts)
    _patch(tracer, [betting, harness], "estimate_growth_rate", "betting.growth_rate")
    _patch(tracer, [edetect.SequentialDetector], "advance", "edetect.advance")
    _patch(tracer, [matched.ProjectiveMeasurement], "__init__", "matched.setup")
    _patch(tracer, [matched, harness], "select_index", "matched.select_index")
    for sampler in (harness._TableSampler, harness._DirectSampler, harness._EigenTable):
        _patch(tracer, [sampler], "draw", "harness.sampler_draw")
