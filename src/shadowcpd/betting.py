"""Betting-parameter policies for the e-detector recursions.

The admissible bets for an observable with estimate range [l, u] form
the interval (-1/u, -1/l); a slack pulled in from both ends keeps every
capital multiplier strictly positive.  Three policies produce bets from
past estimates: a constant bet, a discretized universal-portfolio
expert, and the coin-betting-over-covering-intervals meta-aggregator
(CBCE) that tracks the best expert on every geometric time interval.
The growth-rate estimator computes the oracle log-growth ceiling that
detection delays are measured against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .shadows import DirectSampler, estimate_table, outcome_probabilities

UP_GRID_SIZE = 64
GROWTH_GRID_SIZE = 201
GROWTH_SHOTS = 100_000

# fraction of the unslacked interval width pulled in from each end
DEFAULT_SLACK_FRACTION = 0.005

# steps of a full lookahead block; a power of two, so a block never
# crosses one.  The wealth rows of a block live in one (LOOKAHEAD_BLOCK,
# levels, grid) buffer shared by the bettors of the last grid size to open a
# block (16 KiB per level at the default grid), so no block allocates them.
LOOKAHEAD_BLOCK = 32

# universal-portfolio wealth is renormalized at every step this divides,
# inside lookahead blocks as well
RENORMALIZE_EVERY = 16

_MC_CHUNK = 4096

# steps whose CBCE birth order is kept for the life of the process: 2^11
# covers the default cap of alpha = 0.01 and every benchmark trial
BIRTH_ORDER_CACHED = 1 << 11

# estimate values whose grid factor 1 + grid * o a CBCE bettor keeps, each
# a row of the grid: a matched bettor sees a handful of eigenvalues, a shadow
# bettor the rows of its estimate table
FACTOR_CACHE_SIZE = 64


@dataclass(frozen=True)
class LambdaInterval:
    """Closed interval of admissible bets."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"empty betting interval [{self.lo!r}, {self.hi!r}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, lam: float) -> bool:
        return self.lo <= lam <= self.hi

    def clip(self, lam: float) -> float:
        return min(max(lam, self.lo), self.hi)

    def nonnegative(self) -> "LambdaInterval":
        """The sub-interval of bets that never profit from a falling estimate."""
        if self.hi <= 0.0:
            raise ValueError("interval has no nonnegative part")
        return LambdaInterval(0.0, self.hi)


def default_slack(bounds) -> float:
    lower, upper = bounds
    width = (-1.0 / lower) - (-1.0 / upper)
    return DEFAULT_SLACK_FRACTION * width


def lambda_interval(bounds, slack=None) -> LambdaInterval:
    """Admissible bets (-1/u + slack, -1/l - slack) for estimates in [l, u]."""
    lower, upper = bounds
    if lower >= 0.0 or upper <= 0.0:
        raise ValueError(
            f"estimate range [{lower!r}, {upper!r}] must straddle 0 for sign-indefinite betting"
        )
    if slack is None:
        slack = default_slack(bounds)
    if slack < 0.0:
        raise ValueError("slack must be nonnegative")
    lo = -1.0 / upper + slack
    hi = -1.0 / lower - slack
    if not lo < hi:
        raise ValueError(
            f"slack {slack!r} empties the betting interval for estimates in [{lower!r}, {upper!r}]")
    return LambdaInterval(lo, hi)


@lru_cache(maxsize=None)
def chebyshev_grid(interval: LambdaInterval, k: int = UP_GRID_SIZE) -> np.ndarray:
    """Interior Chebyshev nodes of the interval, increasing, endpoint-free.

    Uniform weights over these nodes integrate against the arcsine
    (Beta(1/2,1/2)) prior rescaled to the interval.  Cached per (interval,
    k) and read-only: the bettors built from one interval share the grid.
    """
    if k < 1:
        raise ValueError("grid must have at least one point")
    nodes = np.cos((2.0 * np.arange(1, k + 1) - 1.0) * math.pi / (2.0 * k))
    grid = np.sort(interval.lo + interval.width * (1.0 + nodes) / 2.0)
    grid.flags.writeable = False
    return grid


class ConstantBettor:
    """Fixed bet, mostly a reference policy for tests and oracles."""

    def __init__(self, lam: float):
        self.lam = float(lam)

    def step(self, o_prev=None, ahead=None) -> float:
        return self.lam


def _check_estimate(o_hat: float, o_bounds) -> None:
    lower, upper = o_bounds
    if not lower - 1e-9 <= o_hat <= upper + 1e-9:
        raise ValueError(f"estimate {o_hat!r} outside the declared range [{lower!r}, {upper!r}]")


def _portfolio_bets(wealth: np.ndarray, grid: np.ndarray):
    """Universal-portfolio bet per row of wealth: the grid averaged with
    the row as weights."""
    return (wealth @ grid) / np.add.reduce(wealth, axis=-1)


def _renormalize(wealth: np.ndarray) -> None:
    """Divide each row of wealth by its maximum, in place.  Until the next
    renormalization a row's leader moves by at most RENORMALIZE_EVERY
    bounded factors; a grid point about 708 nats behind it underflows to 0.0
    for good, where a softmax over log-wealth gives it weight 0 as well."""
    np.divide(wealth, np.maximum.reduce(wealth, axis=-1, keepdims=True), out=wealth)


class UPExpert:
    """Discretized universal-portfolio bettor.

    Holds wealth per grid point, in linear scale and renormalized every
    ``RENORMALIZE_EVERY`` steps as a CBCE expert's is; the bet is the
    wealth-weighted average of the grid, so it tracks the best fixed bet up
    to a logarithmic regret plus the grid gap.
    """

    def __init__(self, interval: LambdaInterval, o_bounds=None, k: int = UP_GRID_SIZE):
        self.o_bounds = o_bounds
        self.grid = chebyshev_grid(interval, k)
        self.wealth = np.ones(k)
        self.t = 1  # step of the next bet

    def bet(self) -> float:
        return float(_portfolio_bets(self.wealth, self.grid))

    def update(self, o_hat: float) -> None:
        if self.o_bounds is not None:
            _check_estimate(o_hat, self.o_bounds)
        self.wealth *= 1.0 + self.grid * o_hat
        self.t += 1
        if not self.t % RENORMALIZE_EVERY:
            _renormalize(self.wealth)


def lookahead_block(t: int) -> int:
    """Steps of the lookahead block that starts at step t.

    Blocks start at the powers of two below ``LOOKAHEAD_BLOCK`` and at its
    multiples, so a block never crosses a power of two.
    """
    return min(t & -t, LOOKAHEAD_BLOCK)


# grid size -> (wealth rows, factor rows, plan per level count), for the last
# grid size to open a lookahead block only; shared by its bettors (see
# _block_plan)
_block_buffers = {}


def _block_plan(k: int, levels: int):
    """The shared (LOOKAHEAD_BLOCK, levels, k) wealth rows and factor rows
    of a lookahead block, and its later steps as (source, factor,
    destination) views: row s is row s - 1 times factor s - 1 on the levels
    that do not restart at the block's step s.

    A block starts at a multiple of a power of two no shorter than it, so
    the levels below (s & -s).bit_length() restart at its step s whatever
    its start.  Those entries are set to 1.0 when the rows are allocated and
    never written again.  The rows are reallocated, and the plans rebuilt,
    for another grid size or for more levels than the rows hold; a bettor
    keeps no view of them between its blocks.
    """
    shared = _block_buffers.get(k)
    if shared is None or shared[0].shape[1] < levels:
        _block_buffers.clear()
        shared = _block_buffers[k] = (np.ones((LOOKAHEAD_BLOCK, levels, k)),
                                      np.empty((LOOKAHEAD_BLOCK - 1, k)), {})
    rows, factors, plans = shared
    plan = plans.get(levels)
    if plan is None:
        steps = []
        for s in range(1, LOOKAHEAD_BLOCK):
            live = (s & -s).bit_length()
            steps.append((rows[s - 1, live:levels], factors[s - 1], rows[s, live:levels]))
        plan = plans[levels] = (rows[:, :levels], factors, steps)
    return plan


def covering_intervals(t: int):
    """The geometric intervals [i*2^k, (i+1)*2^k - 1], i >= 1, containing t."""
    if t < 1:
        raise ValueError("time starts at 1")
    out = []
    k = 0
    while (t >> k) >= 1:
        start = (t >> k) << k
        out.append((start, start + (1 << k) - 1))
        k += 1
    return out


def _interval_prior(t1: int) -> float:
    """Unnormalized prior 1 / (t1^2 (1 + floor(log2 t1))) of an expert started at t1."""
    return 1.0 / (t1 * t1 * t1.bit_length())


def _birth_order_of(t: int):
    """The groups of copies among the experts CBCE holds at step t, in birth
    order: the older groups, per group its top level, normalized prior and
    age divisor, and then the restarting group's top level and prior.

    At step t one expert lives on each level k = 0 .. t.bit_length() - 1,
    the covering interval of length 2^k that contains t; it starts at t
    with its k low bits cleared.  So levels k and k + 1 share a start
    unless bit k of t is set, and the levels of one start, having absorbed
    the same estimates since the same restart, are copies of one expert.
    The groups' top levels are the set bits of t, highest first, which is
    birth order.  A group's prior is its size times its start's, over the
    exactly rounded sum; its experts have absorbed age divisor - 1 rounds.
    The last group, topped by t's lowest set bit, restarts at t: it is the
    only group of age 1.
    """
    older, priors = [], []
    top = t.bit_length() - 1
    rest = t ^ (1 << top)  # the bits of t below top
    while rest:
        low = rest.bit_length() - 1  # the next group's top
        prior = (top - low) * _interval_prior(t ^ rest)
        priors.append(prior)
        older.append((top, prior, rest + 1))
        top = low
        rest ^= 1 << low
    last = (top + 1) * _interval_prior(t)
    priors.append(last)
    prior_sum = math.fsum(priors)
    # tuples of ints and floats, which the garbage collector stops tracking;
    # built from a list, so each is allocated at its length and freed to
    # that length's free list
    return (tuple([(lv, p / prior_sum, age) for lv, p, age in older]),
            (top, last / prior_sum))


# every bettor of the process shares one birth order per step: the steps
# below BIRTH_ORDER_CACHED, which every trial passes, for the life of the
# process, and the few latest above it, which the bettors of one trial read
_cached_birth_order = lru_cache(maxsize=None)(_birth_order_of)
_recent_birth_order = lru_cache(maxsize=LOOKAHEAD_BLOCK)(_birth_order_of)


def _birth_order(t: int):
    if t < BIRTH_ORDER_CACHED:
        return _cached_birth_order(t)
    return _recent_birth_order(t)


class CBCEBettor:
    """Coin-betting-over-covering-intervals aggregation of UP experts.

    One expert lives on each active covering interval; a coin-betting
    meta-learner weights their bets by how much better than the
    aggregate each expert has been.  Restarting experts on geometric
    intervals is what buys adaptivity to the changepoint.

    Expert state is held per level: the level-k expert restarts whenever
    2^k divides t, and a new level opens at every power of two.  The
    experts' universal-portfolio wealth rows and bets stay in level order;
    the rows are linear and renormalized every ``RENORMALIZE_EVERY`` steps.
    Experts that share a start are copies, so the meta loop visits one per
    start, the top level of each group, in birth order; the groups and
    their priors depend on t alone and are shared by every bettor of the
    process.  A level is a group's top from its restart on, so the coin
    state of the other levels is never read, and a group's last bet is its
    top level's in the previous step's bet row.  The loop sums the raw
    weights r and r * bet as it goes, and the meta bet is their ratio.
    The group that restarts at t has no stake, so the loop skips it: its
    top level takes a fresh expert's coin state.

    Call ``step(o_prev)`` once per time step, passing the estimate
    observed after the previous bet (absent only on the first call).
    The experts bet from past estimates alone, so a caller that knows the
    estimates ahead may pass ``ahead``, the ones its next ``len(ahead)``
    calls will pass: the expert bets of those steps are then computed in
    one pass, with the same bits.  Such a block of 1 + len(ahead) steps
    holds at most ``LOOKAHEAD_BLOCK`` steps and may start at step t only
    if it is no longer than the largest power of two that divides t, so it
    never crosses a power of two.  Its first wealth row is the plain
    step's; the later rows are built in rows that the bettors of one grid
    size share, renormalized at the same steps.
    The block's later steps read their bets and check only that each gets
    the estimate passed ahead and no ``ahead`` of its own.  A call that
    raises leaves the bettor unfit for further steps.
    """

    def __init__(self, interval: LambdaInterval, o_bounds, k: int = UP_GRID_SIZE):
        self.o_bounds = o_bounds
        self.k = int(k)
        self.grid = chebyshev_grid(interval, k)
        self.t = 1
        # per level: UP wealth row and coin state
        self._up_wealth = np.ones((0, self.k))
        self._sum_g = []
        self._wealth = []
        self._beta = []
        self._backed = []
        # the expert bets of the last step, in level order
        self._bets = []
        # the open lookahead block, steps start .. end-1: the expert bets of
        # each step (in level order) and the estimates promised for its later
        # steps
        self._block_start = self._block_end = 0
        self._block_bets = None
        self._ahead = []
        self.last_lam = 0.0
        self.loss_bound = self._loss_bound(interval)
        # constants of every step: the accepted estimate range, the bet clip,
        # the loss scale, and 1 + grid * o per estimate value o, keyed by
        # value: the two zeros share a key, and 1 + grid * -0.0 has the bits
        # of 1 + grid * 0.0
        lower, upper = o_bounds
        self._accept = (lower - 1e-9, upper + 1e-9)
        self._clip = (interval.lo, interval.hi)
        self._scale = 2.0 * self.loss_bound
        self._factors = {}

    def _loss_bound(self, interval: LambdaInterval) -> float:
        lower, upper = self.o_bounds
        corners = [
            1.0 + lam * o
            for lam in (interval.lo, interval.hi)
            for o in (lower, upper)
        ]
        m_min = min(corners)
        m_max = max(corners)
        if not m_min > 0.0:
            raise ValueError(
                "betting interval admits a nonpositive multiplier; increase the slack"
            )
        return max(abs(math.log(m_min)), abs(math.log(m_max)))

    @property
    def entries(self):
        """(t1, t2) of the experts behind the last bet, in birth order."""
        # birth order is by start, then by level, so by (t1, t2)
        return sorted(covering_intervals(self.t - 1)) if self.t > 1 else []

    @property
    def last_weights(self) -> np.ndarray:
        """Meta weights of the experts behind the last bet, in birth order:
        each group's raw weight r over their sum, or its prior when no
        expert is backed, spread evenly over the group's levels."""
        older, restart = _birth_order(self.t - 1)
        groups = [(lv, prior) for lv, prior, _ in older] + [restart]
        raw = []
        total = 0.0
        for lv, prior in groups:
            stake = self._beta[lv] * self._wealth[lv]
            r = prior * stake if stake > 0.0 else 0.0
            raw.append(r)
            total += r
        weights = (np.array(raw) / total if total > 0.0
                   else np.array([prior for _, prior in groups]))
        tops = [lv for lv, _ in groups]
        sizes = np.subtract(tops, tops[1:] + [-1])
        return np.repeat(weights / sizes, sizes)

    def step(self, o_prev=None, ahead=None) -> float:
        t = self.t
        if t < self._block_end:
            # a later step of the open lookahead block: its bets are built
            if o_prev is None:
                raise ValueError(f"step {t} needs the estimate observed at step {t - 1}")
            o_hat = float(o_prev)
            if o_hat != self._ahead[t - self._block_start - 1]:
                raise ValueError(f"step {t} got {o_hat!r}, not the estimate passed ahead")
            if ahead is not None:
                raise ValueError(f"step {t} lies inside the lookahead block opened at "
                                 f"step {self._block_start}")
            bets = self._block_bets[t - self._block_start]
        else:
            if t == 1:
                if o_prev is not None:
                    raise ValueError("no estimate precedes the first bet")
            elif o_prev is None:
                raise ValueError(f"step {t} needs the estimate observed at step {t - 1}")
            levels = t.bit_length()
            born = (t & -t).bit_length()  # levels 0 .. born-1 start at t
            if born == levels:
                # t is a power of two: every expert restarts and one level opens
                self._up_wealth = np.ones((levels, self.k))
                for state in (self._sum_g, self._wealth, self._beta, self._backed):
                    state.append(None)
            up = self._up_wealth
            if o_prev is not None:
                o_hat = float(o_prev)
                if not self._accept[0] <= o_hat <= self._accept[1]:
                    _check_estimate(o_hat, self.o_bounds)
                if born < levels:
                    factor = self._factors.get(o_hat)
                    if factor is None:
                        factor = 1.0 + self.grid * o_hat
                        if len(self._factors) < FACTOR_CACHE_SIZE:
                            self._factors[o_hat] = factor
                    up[born:] *= factor
                    up[:born] = 1.0
            if not t % RENORMALIZE_EVERY:
                _renormalize(up)
            if ahead is not None and len(ahead):
                bets = self._open_block(ahead, levels)
            else:
                bets = _portfolio_bets(up, self.grid).tolist()
        older, (top, top_prior) = _birth_order(t)
        log1p = math.log1p
        if older:
            meta_loss = -log1p(self.last_lam * o_hat)
        sum_g, wealth, beta, backed = self._sum_g, self._wealth, self._beta, self._backed
        last, self._bets = self._bets, bets
        scale = self._scale
        total = mix = 0.0
        for lv, prior, age in older:
            # absorb o_hat with the bet this expert made last step
            g = (meta_loss + log1p(last[lv] * o_hat)) / scale
            if g > 1.0:
                g = 1.0
            elif g < -1.0:
                g = -1.0
            if g < 0.0 and not backed[lv]:
                g = 0.0
            w = wealth[lv] = wealth[lv] * (1.0 + beta[lv] * g)
            s = sum_g[lv] = sum_g[lv] + g
            # the level-lv expert has absorbed age - 1 rounds
            b = beta[lv] = s / age
            stake = b * w
            if stake > 0.0:
                r = prior * stake
                total += r
                mix += r * bets[lv]
                backed[lv] = r > 0.0
            else:
                backed[lv] = False
        # the group that restarts at t: a fresh expert, with no stake
        sum_g[top] = beta[top] = 0.0
        wealth[top] = 1.0
        backed[top] = False
        if total > 0.0:
            mix /= total
        else:
            # no expert is backed: the prior-weighted bet
            for lv, prior, _ in older:
                mix += prior * bets[lv]
            mix += top_prior * bets[top]
        lo, hi = self._clip
        mix = lo if lo > mix else mix
        self.last_lam = hi if hi < mix else mix
        self.t = t + 1
        return self.last_lam

    def _open_block(self, ahead, levels: int):
        """Expert bets, in level order, of this step and of the len(ahead)
        steps after it, from the estimates they will absorb; returns this
        step's.

        The block's wealth rows are built in the shared rows of its grid
        size: row 0 is a copy of this step's row, which ``step`` has updated
        as for a plain step, and each later row is the per-step product of
        its plan.  A later row is renormalized at the steps
        ``RENORMALIZE_EVERY`` divides, the block's middle.  The bettor keeps
        a copy of the last row.
        """
        t = self.t
        count = 1 + len(ahead)
        if count > lookahead_block(t):
            raise ValueError(f"a lookahead block of {count} steps cannot start at step {t}")
        ahead = np.asarray(ahead, dtype=float)
        if not (self._accept[0] <= ahead.min() and ahead.max() <= self._accept[1]):
            for o in ahead.tolist():
                _check_estimate(o, self.o_bounds)
        rows, factors, plan = _block_plan(self.k, levels)
        rows[0] = self._up_wealth
        later = factors[:count - 1]
        np.multiply(ahead[:, None], self.grid, out=later)
        np.add(later, 1.0, out=later)
        # a step s > 0 that RENORMALIZE_EVERY divides only lies in a block
        # that starts at a multiple of it
        for s, (src, by, dst) in enumerate(plan[:count - 1], start=1):
            np.multiply(src, by, dst)
            if not s % RENORMALIZE_EVERY:
                _renormalize(dst)
        self._up_wealth[...] = rows[count - 1]
        self._block_bets = _portfolio_bets(rows[:count], self.grid).tolist()
        self._ahead = ahead.tolist()
        self._block_start = t
        self._block_end = t + count
        return self._block_bets[0]


@dataclass(frozen=True)
class GrowthEstimate:
    """Best achievable expected log-growth over the betting grid."""

    d_star: float
    i_star: int
    lambda_star: float
    per_observable: tuple


def _growth_grid(interval: LambdaInterval) -> np.ndarray:
    grid = np.linspace(interval.lo, interval.hi, GROWTH_GRID_SIZE)
    # pin the node nearest zero to exactly zero so "no bet" is always on the grid
    grid[np.abs(grid).argmin()] = 0.0
    return grid


def growth_curve(probs, values, interval: LambdaInterval):
    """Expected log-growth E[log(1 + lam * o)] of each bet on the growth grid.

    ``values`` are the finitely many outcomes of o and ``probs`` their
    probabilities; atoms sharing a value are merged before the logarithms
    are taken.  Returns (grid, curve).
    """
    grid = _growth_grid(interval)
    distinct, atom_value = np.unique(values, return_inverse=True)
    weights = np.bincount(atom_value, weights=probs, minlength=distinct.size)
    return grid, weights @ np.log1p(distinct[:, None] * grid[None, :])


def growth_estimate(grid_curves) -> GrowthEstimate:
    """Best bet and growth of each observable's (grid, curve) pair, and the
    best observable among them."""
    per = []
    lam_at = []
    for grid, curve in grid_curves:
        j = int(curve.argmax())
        per.append(float(curve[j]))
        lam_at.append(float(grid[j]))
    i_star = int(np.argmax(per))
    return GrowthEstimate(
        d_star=per[i_star],
        i_star=i_star,
        lambda_star=lam_at[i_star],
        per_observable=tuple(per),
    )


def exact_growth(outcomes, intervals) -> GrowthEstimate:
    """Growth estimate from each observable's exact outcome distribution, a
    (probs, values) pair, over its betting interval."""
    return growth_estimate(growth_curve(probs, values, iv)
                           for (probs, values), iv in zip(outcomes, intervals))


def sampled_growth(draw, intervals, shots: int, rng) -> GrowthEstimate:
    """Monte Carlo growth estimate from ``shots`` estimate rows, one column
    per betting interval; ``draw(rng, count)`` returns ``count`` rows."""
    if shots < 1:
        raise ValueError(f"need at least one shot, got {shots!r}")
    grids = [_growth_grid(iv) for iv in intervals]
    sums = [np.zeros(GROWTH_GRID_SIZE) for _ in grids]
    for done in range(0, shots, _MC_CHUNK):
        block = draw(rng, min(_MC_CHUNK, shots - done))
        for i, grid in enumerate(grids):
            sums[i] += np.log1p(block[:, [i]] * grid[None, :]).sum(axis=0)
    return growth_estimate(zip(grids, (s / shots for s in sums)))


def estimate_growth_rate(
    rho1,
    observables,
    kind,
    shots: int = GROWTH_SHOTS,
    rng=None,
    slack=None,
    bounds_mode: str = "auto",
) -> GrowthEstimate:
    """Per-observable max expected log-growth of the betting capital.

    Uses the exact outcome distribution whenever the ensemble/width pair
    is enumerable, Monte Carlo with ``shots`` draws otherwise.
    """
    if len(observables) == 0:
        raise ValueError("need at least one observable")
    values, ranges = estimate_table(observables, kind, rho1.n_qubits, bounds_mode)
    intervals = [lambda_interval(b, slack) for b in ranges]
    if values is None:
        return sampled_growth(DirectSampler(rho1, observables, kind).draw, intervals, shots,
                              np.random.default_rng(rng))
    probs = outcome_probabilities(rho1, kind)
    return exact_growth([(probs, column) for column in values.T], intervals)
