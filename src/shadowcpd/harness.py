"""Scenario configuration and seeded Monte Carlo detection runs.

A scenario pins down the state stream (pre- and post-change mixing
angles and the changepoint), the measurement policy (shadow-based
universal detection or matched projective baselines), the betting
policy, and the detector.  Trials are deterministic functions of
(scenario, seed); experiments derive per-run seeds from a master seed
so results are independent of execution order and parallelism.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import sys
from bisect import bisect_right
from dataclasses import MISSING, InitVar, asdict, dataclass, field, fields

import numpy as np
import numpy.random  # numpy 2 imports it lazily, and the first trial would pay

from . import __version__
from .betting import (
    CBCEBettor,
    ConstantBettor,
    GROWTH_SHOTS,
    GrowthEstimate,
    UP_GRID_SIZE,
    exact_growth,
    lambda_interval,
    lookahead_block,
    sampled_growth,
)
from .edetect import CUSUM, DetectorConfig, SR, SequentialDetector, uniform_weights
from .matched import ProjectiveMeasurement, UCBStats, UCB_DEFAULT_DELTA, select_index
from .qcore import DensityMatrix, Observable, make_theta_state, rotated_observable
from .shadows import (
    DirectSampler as _DirectSampler,
    MAX_JOINT_QUBITS,
    MAX_LOCAL_QUBITS,
    estimate_table,
    outcome_probabilities,
    resolve_bounds_mode,
)

POLICIES = ("escd", "emcd_rr", "emcd_ucb")
ENSEMBLES = ("local", "joint")
BOUNDS_MODES = ("auto", "analytic", "exhaustive")

CSV_COLUMNS = (
    "run_index",
    "seed",
    "policy",
    "d",
    "ensemble",
    "n_observables",
    "theta0",
    "theta1",
    "nu",
    "alpha",
    "detector",
    "stop_time",
    "censored",
    "false_alarm",
    "delay",
)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class ScenarioError(ValueError):
    """Scenario validation failure; the message names the offending field."""


def _fail(path, msg):
    raise ScenarioError(f"{path}: {msg}")


def _require(cond, path, msg):
    if not cond:
        _fail(path, msg)


# JSON true/false load as bool, a subclass of int: neither counts as a number
def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


# an integer past the float range would overflow float(): no real either
def _is_real(x):
    return isinstance(x, float) or _is_int(x) and abs(x) <= sys.float_info.max


@dataclass(frozen=True, kw_only=True)
class Scenario:
    """Complete description of one detection experiment.

    The fields before ``ucb_delta`` are those of the scenario document, in
    the order ``to_dict`` writes them; a field without a default is
    required.  Construction checks the whole document, builds the observables
    every runtime of the scenario shares, and stores each field's canonical
    form: reals as floats, weights as a tuple, the betting block with every
    field filled in, the run cap 20 ceil(1/alpha) for null, and the policy
    object {"emcd_ucb": {"delta": ...}} as the policy name and ``ucb_delta``.
    ``prebuilt``, the observables of another scenario with the same
    observable rule and d, is shared instead of built again.
    """

    d: int
    ensemble: str
    observables: dict
    theta0: float
    theta1: float
    nu: int | None
    alpha: float
    detector: str = SR
    weights: object = "uniform"
    betting: dict = field(default_factory=lambda: {"cbce": {}})
    policy: str
    run_cap: int | None = None
    bounds_mode: str = "auto"
    ucb_delta: float = UCB_DEFAULT_DELTA
    prebuilt: InitVar[tuple | None] = None

    def __post_init__(self, prebuilt):
        if isinstance(self.policy, dict):
            self._read_policy_object()
        for name in ("theta0", "theta1", "alpha"):
            if _is_real(getattr(self, name)):
                object.__setattr__(self, name, float(getattr(self, name)))
        _require(_is_int(self.d) and self.d >= 1, "scenario.d", "must be an integer >= 1")
        _require(self.ensemble in ENSEMBLES, "scenario.ensemble", f"must be one of {ENSEMBLES}")
        if self.ensemble == "local":
            _require(self.d <= MAX_LOCAL_QUBITS, "scenario.d", f"local ensemble supports d <= {MAX_LOCAL_QUBITS}")
        else:
            _require(self.d <= MAX_JOINT_QUBITS, "scenario.d", f"joint ensemble supports d <= {MAX_JOINT_QUBITS}")
        if prebuilt is None:
            self._validate_observables()
        else:
            object.__setattr__(self, "_observables", prebuilt)
        _require(_is_real(self.theta0) and -1.0 <= self.theta0 <= 0.0, "scenario.theta0",
                 "pre-change mixing angle must be a real in [-1, 0]")
        _require(_is_real(self.theta1) and -1.0 <= self.theta1 <= 1.0, "scenario.theta1",
                 "mixing angle must be a real in [-1, 1]")
        if self.nu is not None:
            _require(_is_int(self.nu) and self.nu >= 1, "scenario.nu",
                     "changepoint must be an integer >= 1 or null for never")
            _require(self.theta1 > 0.0, "scenario.theta1",
                     "post-change mixing angle must be > 0 when the changepoint is finite")
        _require(isinstance(self.alpha, float) and 0.0 < self.alpha < 1.0,
                 "scenario.alpha", "must be a real in (0, 1)")
        _require(self.policy in POLICIES, "scenario.policy", f"must be one of {POLICIES}")
        _require(self.detector in (SR, CUSUM), "scenario.detector", f"must be {SR!r} or {CUSUM!r}")
        self._validate_weights()
        self._validate_betting()
        if self.run_cap is None:
            object.__setattr__(self, "run_cap", 20 * math.ceil(1.0 / self.alpha))
        _require(_is_int(self.run_cap) and self.run_cap >= math.ceil(1.0 / self.alpha),
                 "scenario.run_cap", "must be an integer >= ceil(1/alpha)")
        _require(self.bounds_mode in BOUNDS_MODES, "scenario.bounds_mode",
                 f"must be one of {BOUNDS_MODES}")
        if self.policy == "escd":  # matched policies bet over eigenvalue ranges
            try:
                resolve_bounds_mode(self.ensemble, self.d, self.bounds_mode)
            except ValueError as exc:
                _fail("scenario.bounds_mode", str(exc))
        _require(isinstance(self.ucb_delta, float) and 0.0 < self.ucb_delta < 1.0,
                 "scenario.ucb_delta", "must be a real in (0, 1)")

    def _read_policy_object(self):
        policy = self.policy
        _require(len(policy) == 1 and "emcd_ucb" in policy, "scenario.policy",
                 'object form must be {"emcd_ucb": {"delta": ...}}')
        cfg = policy["emcd_ucb"]
        _require(isinstance(cfg, dict), "scenario.policy.emcd_ucb", "must be an object")
        for k in cfg:
            _require(k == "delta", f"scenario.policy.emcd_ucb.{k}", "unknown field")
        if "delta" in cfg:
            _require(_is_real(cfg["delta"]), "scenario.policy.emcd_ucb.delta", "must be a real")
            object.__setattr__(self, "ucb_delta", float(cfg["delta"]))
        object.__setattr__(self, "policy", "emcd_ucb")

    def _validate_observables(self):
        obs = self.observables
        _require(isinstance(obs, dict) and len(obs) == 1, "scenario.observables",
                 'must be {"rotated": n} or {"matrices": [...]}')
        key = next(iter(obs))
        if key == "rotated":
            n = obs["rotated"]
            _require(_is_int(n) and n >= 1, "scenario.observables.rotated",
                     "must be an integer >= 1")
            built = [rotated_observable(self.d, math.pi * i / (2 * n)) for i in range(n)]
        elif key == "matrices":
            mats = obs["matrices"]
            _require(isinstance(mats, (list, tuple)) and len(mats) >= 1,
                     "scenario.observables.matrices", "must be a nonempty list")
            built = [Observable(_parse_matrix(m, self.d, f"scenario.observables.matrices[{j}]"))
                     for j, m in enumerate(mats)]
        else:
            _fail(f"scenario.observables.{key}", "unknown observable rule")
        # built once, here; every runtime of the scenario shares these objects
        object.__setattr__(self, "_observables", tuple(built))

    def _validate_weights(self):
        w = self.weights
        if w == "uniform":
            return
        _require(isinstance(w, (list, tuple)), "scenario.weights",
                 'must be "uniform" or a list of positive reals')
        _require(len(w) == self.n_observables, "scenario.weights",
                 f"length {len(w)} does not match {self.n_observables} observables")
        _require(all(_is_real(x) and x > 0 for x in w), "scenario.weights",
                 "entries must be positive reals")
        _require(abs(sum(float(x) for x in w) - 1.0) <= 1e-12, "scenario.weights",
                 "entries must sum to 1")
        object.__setattr__(self, "weights", tuple(float(x) for x in w))

    def _validate_betting(self):
        b = self.betting
        _require(isinstance(b, dict) and len(b) == 1, "scenario.betting",
                 'must be {"cbce": {...}} or {"constant": lambda}')
        key = next(iter(b))
        if key == "cbce":
            cfg = b["cbce"]
            _require(isinstance(cfg, dict), "scenario.betting.cbce", "must be an object")
            for k in cfg:
                _require(k in ("grid", "slack", "two_sided"), f"scenario.betting.cbce.{k}",
                         "unknown field")
            grid = cfg.get("grid", UP_GRID_SIZE)
            _require(_is_int(grid) and grid >= 2, "scenario.betting.cbce.grid",
                     "must be an integer >= 2")
            slack = cfg.get("slack")
            if slack is not None:
                _require(_is_real(slack) and slack >= 0.0,
                         "scenario.betting.cbce.slack", "must be a nonnegative real or null")
            _require(isinstance(cfg.get("two_sided", False), bool),
                     "scenario.betting.cbce.two_sided", "must be a boolean")
            canonical = {"cbce": {
                "grid": grid,
                "slack": float(slack) if slack is not None else None,
                "two_sided": cfg.get("two_sided", False),
            }}
        elif key == "constant":
            _require(_is_real(b["constant"]) and math.isfinite(b["constant"]),
                     "scenario.betting.constant", "must be a finite real bet")
            canonical = {"constant": float(b["constant"])}
        else:
            _fail(f"scenario.betting.{key}", "unknown betting policy")
        # defaults filled in so to_dict round-trips exactly
        object.__setattr__(self, "betting", canonical)

    @property
    def n_observables(self) -> int:
        return len(self._observables)

    @functools.cached_property
    def runtime(self) -> ScenarioRuntime:
        """The scenario's one runtime, built on first use; it travels with
        the scenario when a pickled copy reaches a worker."""
        return ScenarioRuntime(self)

    def to_dict(self) -> dict:
        doc = {f.name: _copy_jsonish(getattr(self, f.name)) for f in FIELDS}
        if self.policy == "emcd_ucb":
            doc["policy"] = {"emcd_ucb": {"delta": self.ucb_delta}}
        return doc

    @staticmethod
    def from_dict(data: dict, base: "Scenario | None" = None) -> "Scenario":
        _require(isinstance(data, dict), "scenario", "must be a JSON object")
        names = [f.name for f in FIELDS]
        for key in data:
            _require(key in names, f"scenario.{key}", "unknown field")
        for f in FIELDS:
            if f.default is MISSING and f.default_factory is MISSING:
                _require(f.name in data, f"scenario.{f.name}", "missing required field")
        # a base with the same d and observable rule, in JSON types too (2.0
        # is not 2), lends its observables
        same = base is not None and (json.dumps([data["d"], data["observables"]])
                                     == json.dumps([base.d, base.observables]))
        return Scenario(**_copy_jsonish(data), prebuilt=base._observables if same else None)


#: the scenario document's fields in order, each required or with its default
FIELDS = tuple(f for f in fields(Scenario) if f.name != "ucb_delta")


def _copy_jsonish(obj):
    if isinstance(obj, dict):
        return {k: _copy_jsonish(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_copy_jsonish(v) for v in obj]
    return obj


def _parse_matrix(entry, d, path):
    dim = 1 << d
    _require(isinstance(entry, (list, tuple)) and len(entry) == dim, path,
             f"must be a {dim}x{dim} matrix (list of rows)")
    out = np.zeros((dim, dim), dtype=complex)
    for r, row in enumerate(entry):
        _require(isinstance(row, (list, tuple)) and len(row) == dim, f"{path}[{r}]",
                 f"must be a row of {dim} entries")
        for c, cell in enumerate(row):
            if _is_real(cell):
                out[r, c] = float(cell)
            elif isinstance(cell, (list, tuple)) and len(cell) == 2 \
                    and all(_is_real(x) for x in cell):
                out[r, c] = complex(float(cell[0]), float(cell[1]))
            else:
                _fail(f"{path}[{r}][{c}]", "must be a real or an [re, im] pair")
            _require(np.isfinite(out[r, c]), f"{path}[{r}][{c}]", "must be finite")
    if np.abs(out - out.conj().T).max() > 1e-10:
        _fail(path, "must be Hermitian within 1e-10")
    out.flags.writeable = False  # shared by the scenario's runtimes
    return out


def build_observables(scenario: Scenario):
    """The scenario's Observable objects, built once at its construction."""
    return list(scenario._observables)


# ---------------------------------------------------------------------------
# per-trial machinery


class _TableSampler:
    """Draws rows of ``values`` (estimate vectors, or eigenvalues in _EigenTable)
    with probabilities ``probs``."""

    def __init__(self, probs, values):
        self.probs = probs
        cum = np.cumsum(probs)
        cum[-1] = 1.0
        self.cum = cum
        self.values = values

    def draw(self, rng, count):
        """``count`` rows from one block of uniforms, which consumes the
        stream as ``count`` single draws do."""
        # cum ends at exactly 1.0 and rng.random() < 1, so the index is in range
        return self.values[np.searchsorted(self.cum, rng.random(count), side="right")]


class _EigenTable(_TableSampler):
    # eigenvalue outcomes with Born weights for one (observable, state) pair,
    # cum and values held as lists: bisect_right on cum finds
    # searchsorted(side="right")'s index
    def __init__(self, pm: ProjectiveMeasurement, rho: DensityMatrix):
        probs = np.clip(pm.born_weights(rho), 0.0, None)
        super().__init__(probs / probs.sum(), pm.outcome_values)
        self.cum = self.cum.tolist()
        self.values = self.values.tolist()

    def draw(self, rng):
        """One outcome from one scalar uniform."""
        return self.values[bisect_right(self.cum, rng.random())]


class ScenarioRuntime:
    """Everything shared across a scenario's trials: observables, bounds,
    betting intervals, detector config, and the measurement sources.

    ``sources = (pre, post)`` holds what a step measures in each state: the
    escd estimate sampler (table or direct), or the matched list of
    per-observable eigenvalue tables.  ``post`` is None when nu is null;
    step s reads ``sources[s >= nu]``.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = sc = scenario
        self.observables = build_observables(sc)
        self.n = len(self.observables)
        weights = uniform_weights(self.n) if sc.weights == "uniform" else sc.weights
        self.detector_config = DetectorConfig(weights=weights, alpha=sc.alpha, kind=sc.detector)
        self.pre_state = make_theta_state(sc.d, sc.theta0)
        self.post_state = make_theta_state(sc.d, sc.theta1) if sc.nu is not None else None

        if sc.policy == "escd":
            # one estimate table serves the bounds and both states' samplers
            values, self.o_bounds = estimate_table(self.observables, sc.ensemble, sc.d,
                                                     sc.bounds_mode)

            def source(rho):
                if values is None:
                    return _DirectSampler(rho, self.observables, sc.ensemble)
                return _TableSampler(outcome_probabilities(rho, sc.ensemble), values)
        else:
            measurements = [ProjectiveMeasurement(o) for o in self.observables]
            self.o_bounds = [(o.eigmin, o.eigmax) for o in self.observables]

            def source(rho):
                return [_EigenTable(pm, rho) for pm in measurements]

        self.sources = (source(self.pre_state),
                        source(self.post_state) if self.post_state is not None else None)

        for i, (lower, upper) in enumerate(self.o_bounds):
            _require(lower < 0.0 < upper, "scenario.observables",
                     f"observable {i} has estimate range [{lower!r}, {upper!r}], "
                     "which must straddle 0 for sign-indefinite betting")
        cbce = sc.betting.get("cbce")  # None under a constant bet
        # a constant bet is checked against the intervals of the default slack
        slack = cbce["slack"] if cbce is not None else None
        try:
            self.full_intervals = [lambda_interval(b, slack) for b in self.o_bounds]
            if cbce is not None:
                self.bet_intervals = (self.full_intervals if cbce["two_sided"] else
                                      [iv.nonnegative() for iv in self.full_intervals])
                # a bettor checks at construction that its bets keep every multiplier positive
                for i in range(self.n):
                    self.make_bettor(i)
        except ValueError as exc:
            _fail("scenario.betting.cbce.slack", str(exc))
        if cbce is None:
            lam = sc.betting["constant"]
            for i, iv in enumerate(self.full_intervals):
                if not iv.contains(lam):
                    _fail("scenario.betting.constant",
                          f"bet {lam!r} outside the admissible interval "
                          f"[{iv.lo!r}, {iv.hi!r}] of observable {i}")

    def make_bettor(self, i: int):
        betting = self.scenario.betting
        if "constant" in betting:
            return ConstantBettor(betting["constant"])
        return CBCEBettor(self.bet_intervals[i], self.o_bounds[i], k=betting["cbce"]["grid"])


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one detection run."""

    run_index: int
    seed: int
    stop_time: int
    censored: bool
    false_alarm: bool
    delay: int | None
    nu: int | None


def splitmix64(x: int) -> int:
    """One avalanche round of the splitmix64 finalizer."""
    z = x & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master_seed: int, run_index: int) -> int:
    """Counter-based per-run seed: position run_index+1 of the splitmix64
    stream started at master_seed."""
    return splitmix64((master_seed + (run_index + 1) * _GOLDEN) & _MASK64)


def _draw_estimates(rt: ScenarioRuntime, change, rng, t: int, count: int) -> np.ndarray:
    """Estimate rows of steps t .. t+count-1, post-change from step
    ``change`` on.  A block that contains the changepoint is drawn as its
    pre- and post-change parts, in step order."""
    pre_source, post_source = rt.sources
    pre = min(max(change - t, 0), count)
    if pre == count:
        return pre_source.draw(rng, count)
    if pre == 0:
        return post_source.draw(rng, count)
    return np.concatenate([pre_source.draw(rng, pre), post_source.draw(rng, count - pre)])


def run_trial(scenario: Scenario, seed: int, run_index: int = 0,
              runtime: ScenarioRuntime | None = None) -> TrialResult:
    """One full detection run; deterministic in (scenario, seed).

    A step measures every observable (escd) or one (matched).  Except under
    UCB over several observables, which picks from past increments, the
    schedule is fixed, so outcomes are drawn a block at a time and each
    bettor's first step in a block gets its later outcomes ahead.  A block
    spans one lookahead block of every bettor: rounds of one step (escd) or
    n steps (round-robin), in each of which every bettor steps once.
    ``runtime`` defaults to ``scenario.runtime``.
    """
    sc = scenario
    rt = runtime if runtime is not None else sc.runtime
    # step s measures the post-change state once s >= change
    change = sc.nu if sc.nu is not None else math.inf
    rng = np.random.default_rng(seed)
    detector = SequentialDetector(rt.detector_config)
    n = rt.n
    bettors = [rt.make_bettor(i) for i in range(n)]
    prev = [None] * n
    # UCB over one observable always picks it, as round-robin does
    stats = UCBStats(n, sc.ucb_delta) if sc.policy == "emcd_ucb" and n > 1 else None
    every = tuple(range(n))
    no_ahead = [None] * n
    stop_at = None
    t = 1
    while stop_at is None and t <= sc.run_cap:
        if stats is not None:
            idx = select_index("ucb", t, n, stats)
            steps = (((idx,), (rt.sources[t >= change][idx].draw(rng),)),)
            ahead = no_ahead
        elif sc.policy == "escd":
            count = min(lookahead_block(t), sc.run_cap + 1 - t)
            block = _draw_estimates(rt, change, rng, t, count)
            steps = [(every, ests) for ests in block.tolist()]
            ahead = list(block[:-1].T)
        else:
            count = min(lookahead_block((t - 1) // n + 1) * n, sc.run_cap + 1 - t)
            # step s measures observable (s - 1) mod n in its state: one
            # block of uniforms, each looked up in its step's table as
            # _EigenTable.draw looks up its one uniform
            pre, post = rt.sources
            outcomes = []
            for s, u in zip(range(t, t + count), rng.random(count).tolist()):
                table = (pre if s < change else post)[(s - 1) % n]
                outcomes.append(table.values[bisect_right(table.cum, u)])
            steps = [((j % n,), (o,)) for j, o in enumerate(outcomes)]
            ahead = [outcomes[i::n][:-1] for i in range(n)]
        for measured, values in steps:
            row = [None] * n
            for i, o in zip(measured, values):
                row[i] = 1.0 + bettors[i].step(prev[i], ahead[i]) * o
                ahead[i] = None  # only a bettor's first step in the block looks ahead
                prev[i] = o
            if stats is not None:
                stats.record(idx, row[idx])
            if detector.advance(row):
                stop_at = t
                break
            t += 1

    censored = stop_at is None
    stop_time = sc.run_cap if censored else stop_at
    false_alarm = sc.nu is not None and not censored and stop_time < sc.nu
    delay = (stop_time - sc.nu
             if sc.nu is not None and not censored and stop_time >= sc.nu else None)
    return TrialResult(
        run_index=run_index,
        seed=seed,
        stop_time=stop_time,
        censored=censored,
        false_alarm=false_alarm,
        delay=delay,
        nu=sc.nu,
    )


def _run_chunk(scenario: Scenario, pairs):
    return [run_trial(scenario, seed, idx) for idx, seed in pairs]


def run_experiment(scenario: Scenario, runs: int, master_seed: int, parallelism: int = 1):
    """Seeded batch of trials, ordered by run index, parallelism-invariant.

    The trials read ``scenario.runtime``; a worker process gets it inside
    its pickled scenario when it was built before, and builds it otherwise.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    pairs = [(i, derive_seed(master_seed, i)) for i in range(runs)]
    if parallelism == 1:
        return _run_chunk(scenario, pairs)
    per = math.ceil(runs / parallelism)
    chunks = [pairs[i:i + per] for i in range(0, runs, per)]
    results = []
    # imported here: the process pool module is most of the package's import time
    from concurrent.futures import ProcessPoolExecutor
    # fork starts every worker up front, so open no more than there are chunks
    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        futures = [pool.submit(_run_chunk, scenario, chunk) for chunk in chunks]
        for fut in futures:
            results.extend(fut.result())
    return results


# ---------------------------------------------------------------------------
# metrics and emission


@dataclass(frozen=True)
class SummaryStats:
    """Aggregate run-length and delay metrics for one experiment."""

    runs: int
    mean_run_length: float
    mean_delay: float | None
    delay_quantiles: dict | None
    false_alarm_fraction: float
    censored_fraction: float
    d_star_reference: float | None

    def to_dict(self) -> dict:
        return asdict(self)


def scenario_growth(scenario: Scenario, shots: int = GROWTH_SHOTS, rng=None) -> GrowthEstimate:
    """Growth estimate of the post-change measurement the scenario's policy
    makes, over the full betting intervals its bettors are built from.

    Reads ``scenario.runtime``'s post-change source: Monte Carlo with ``shots`` rows
    of a direct sampler, for shadows that cannot be enumerated; otherwise
    exact over the estimate table's columns or the eigenvalue tables.
    """
    if scenario.nu is None:
        _fail("scenario.nu", "growth requires a finite changepoint (post-change state)")
    rt = scenario.runtime
    post = rt.sources[1]
    if isinstance(post, _DirectSampler):
        return sampled_growth(post.draw, rt.full_intervals, shots, np.random.default_rng(rng))
    if isinstance(post, _TableSampler):
        outcomes = [(post.probs, column) for column in post.values.T]
    else:
        outcomes = [(table.probs, table.values) for table in post]
    return exact_growth(outcomes, rt.full_intervals)


def summarize(results, scenario: Scenario | None = None) -> SummaryStats:
    """Aggregate metrics; censored runs count at the cap in mean_run_length.
    With a finite-nu scenario, the growth reference reads ``scenario.runtime``."""
    if len(results) == 0:
        raise ValueError("cannot summarize zero trials")
    stop_times = np.array([r.stop_time for r in results], dtype=float)
    delays = np.array([r.delay for r in results if r.delay is not None], dtype=float)
    if delays.size:
        # np.percentile's default (linear) rule without np.percentile, whose
        # first call imports numpy.ma; before Python 3.13 statistics.quantiles
        # needs two points, and a single delay is every quantile
        cuts = (statistics.quantiles(delays.tolist(), n=20, method="inclusive")
                if delays.size > 1 else [float(delays[0])] * 19)
        quantiles = {f"q{p}": cuts[p // 5 - 1] for p in (10, 25, 50, 75, 90)}
        mean_delay = float(delays.mean())
    else:
        quantiles = None
        mean_delay = None
    d_star = None
    # a Monte Carlo reference would make the summary depend on a seed
    if scenario is not None and scenario.nu is not None \
            and not isinstance(scenario.runtime.sources[1], _DirectSampler):
        d_star = scenario_growth(scenario).d_star
    return SummaryStats(
        runs=len(results),
        mean_run_length=float(stop_times.mean()),
        mean_delay=mean_delay,
        delay_quantiles=quantiles,
        false_alarm_fraction=sum(r.false_alarm for r in results) / len(results),
        censored_fraction=sum(r.censored for r in results) / len(results),
        d_star_reference=d_star,
    )


def _fmt_float(x: float) -> str:
    return f"{x:.12g}"


def _normalize_floats(obj):
    if isinstance(obj, float):
        return float(_fmt_float(obj))
    if isinstance(obj, dict):
        return {k: _normalize_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_normalize_floats(v) for v in obj]
    return obj


def trial_to_dict(r: TrialResult) -> dict:
    return asdict(r)


def results_csv(scenario: Scenario, results) -> str:
    """CSV text for a batch of trials (LF endings, 12 significant digits)."""
    sc = scenario
    rows = [",".join(CSV_COLUMNS)]
    shared = (
        sc.policy,
        str(sc.d),
        sc.ensemble,
        str(sc.n_observables),
        _fmt_float(sc.theta0),
        _fmt_float(sc.theta1),
        "inf" if sc.nu is None else str(sc.nu),
        _fmt_float(sc.alpha),
        sc.detector,
    )
    for r in results:
        rows.append(",".join((
            str(r.run_index),
            str(r.seed),
            *shared,
            str(r.stop_time),
            "true" if r.censored else "false",
            "true" if r.false_alarm else "false",
            "" if r.delay is None else str(r.delay),
        )))
    return "\n".join(rows) + "\n"


def results_json(scenario: Scenario, results, stats: SummaryStats,
                 master_seed: int | None = None,
                 wall_time_seconds: float | None = None) -> str:
    doc = {
        "scenario": scenario.to_dict(),
        "trials": [trial_to_dict(r) for r in results],
        "summary": stats.to_dict(),
        "meta": {
            "version": __version__,
            "master_seed": master_seed,
            "wall_time_seconds": wall_time_seconds,
        },
    }
    return json.dumps(_normalize_floats(doc), indent=2) + "\n"


def emit_results(scenario: Scenario, results, stats: SummaryStats, fmt: str,
                 path, master_seed: int | None = None,
                 wall_time_seconds: float | None = None) -> None:
    """Write trials (and, for JSON, the summary) to a file."""
    if fmt == "csv":
        text = results_csv(scenario, results)
    elif fmt == "json":
        text = results_json(scenario, results, stats, master_seed, wall_time_seconds)
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# presets mirroring the reference experiments


#: the fields every preset gives; the others keep their defaults
_BASE_PRESET = {
    "d": 2,
    "ensemble": "local",
    "observables": {"rotated": 1},
    "theta0": -0.5,
    "theta1": 1.0,
    "nu": None,
    "alpha": 1e-3,
    "policy": "escd",
    "run_cap": 5000,
}

_PRESETS = {
    # ARL under the null: theta0 is the sweep axis
    "fig3-left": _BASE_PRESET,
    # delay versus post-change angle: theta1 is the sweep axis
    "fig3-right": dict(_BASE_PRESET, nu=200),
    # observable-count crossover: observables.rotated is the sweep axis
    "fig4": dict(_BASE_PRESET, nu=200, observables={"rotated": 8}),
    # measurement-ensemble gap at d=3: ensemble is the comparison axis
    "fig5": dict(_BASE_PRESET, nu=200, d=3, theta1=0.8),
}
for _name in list(_PRESETS):
    _PRESETS["desk-" + _name] = dict(_PRESETS[_name], alpha=1e-2, run_cap=2000)


def preset_names():
    return tuple(_PRESETS)

def preset_scenario(name: str) -> Scenario:
    """A ready-made scenario; desk-* variants run at 1/alpha = 100, cap 2000."""
    if name not in _PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {', '.join(_PRESETS)}")
    return Scenario.from_dict(_PRESETS[name])
