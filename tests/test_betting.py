"""Admissible intervals, UP experts, covering intervals, CBCE, growth rates."""

import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from shadowcpd import betting as bt
from shadowcpd import qcore as qc
from shadowcpd import shadows as sh


def brute_force_intervals(t):
    # scan every [i 2^k, (i+1) 2^k - 1] with i >= 1 that could contain t
    out = set()
    k = 0
    while (1 << k) <= t:
        i = t >> k
        lo = i << k
        if i >= 1 and lo <= t <= lo + (1 << k) - 1:
            out.add((lo, lo + (1 << k) - 1))
        k += 1
    return out


def test_lambda_interval_examples():
    iv = bt.lambda_interval((-3.0, 3.0), slack=0.0)
    assert (iv.lo, iv.hi) == pytest.approx((-1 / 3, 1 / 3))
    iv = bt.lambda_interval((-3.0, 3.0), slack=0.01)
    assert (iv.lo, iv.hi) == pytest.approx((-1 / 3 + 0.01, 1 / 3 - 0.01))
    iv = bt.lambda_interval((-1.0, 9.0), slack=0.0)
    assert (iv.lo, iv.hi) == pytest.approx((-1 / 9, 1.0))


def test_lambda_interval_accepts_bounds_object():
    # the (lower, upper) pair estimator_bounds returns
    b = sh.estimator_bounds(qc.pauli_string("X"), "local")
    iv = bt.lambda_interval(b, slack=0.0)
    assert (iv.lo, iv.hi) == pytest.approx((-1 / 3, 1 / 3))


def test_lambda_interval_rejects_one_sided_ranges():
    with pytest.raises(ValueError):
        bt.lambda_interval((0.5, 3.0))
    with pytest.raises(ValueError):
        bt.lambda_interval((-3.0, -0.5))
    with pytest.raises(ValueError):
        bt.lambda_interval((-3.0, 3.0), slack=1.0)  # empties the interval


def test_default_slack_scales_with_width():
    assert bt.default_slack((-3.0, 3.0)) == pytest.approx(0.005 * (2 / 3))
    assert bt.default_slack((-1.0, 9.0)) == pytest.approx(0.005 * (1 + 1 / 9))


def test_interval_helpers():
    iv = bt.lambda_interval((-3.0, 3.0), slack=0.0)
    assert iv.contains(0.0)
    assert not iv.contains(0.5)
    assert iv.clip(0.5) == pytest.approx(iv.hi)
    pos = iv.nonnegative()
    assert pos.lo == 0.0
    assert pos.hi == pytest.approx(iv.hi)


def test_interval_prior_level_factor_is_exact():
    # 1 + floor(log2 t1) from the bits of t1: math.log2 rounds 2^49 - 1 up
    # to 49.0, one level too many
    for k in range(1, 63):
        for t1, floor_log2 in ((2**k - 1, k - 1), (2**k, k), (2**k + 1, k)):
            assert bt._interval_prior(t1) == 1.0 / (t1 * t1 * (1 + floor_log2)), t1


def test_chebyshev_grid_interior_and_increasing():
    iv = bt.lambda_interval((-3.0, 3.0), slack=0.0)
    grid = bt.chebyshev_grid(iv, 64)
    assert grid.size == 64
    assert np.all(np.diff(grid) > 0)
    assert grid[0] > iv.lo and grid[-1] < iv.hi
    # symmetric interval gives a symmetric grid
    assert np.allclose(grid, -grid[::-1], atol=1e-12)


def test_covering_interval_examples():
    assert set(map(tuple, bt.covering_intervals(1))) == {(1, 1)}
    assert set(map(tuple, bt.covering_intervals(5))) == {(5, 5), (4, 5), (4, 7)}
    assert set(map(tuple, bt.covering_intervals(8))) == {
        (8, 8), (8, 9), (8, 11), (8, 15),
    }
    with pytest.raises(ValueError):
        bt.covering_intervals(0)


def test_covering_interval_structure_exhaustive():
    for t in range(1, 3000):
        got = set(map(tuple, bt.covering_intervals(t)))
        assert got == brute_force_intervals(t)
        assert len(got) == int(math.log2(t)) + 1
        for lo, hi in got:
            assert lo <= t <= hi


def test_covering_generations_partition():
    # intervals of one generation tile the axis without overlap
    for k in (0, 1, 3):
        cells = [(i << k, ((i + 1) << k) - 1) for i in range(1, 40)]
        for (a1, b1), (a2, b2) in zip(cells, cells[1:]):
            assert b1 + 1 == a2


def test_fresh_up_expert_bets_zero_on_symmetric_interval():
    iv = bt.lambda_interval((-3.0, 3.0), slack=0.0)
    expert = bt.UPExpert(iv)
    assert abs(expert.bet()) < 1e-12


def test_up_expert_leans_positive_after_positive_estimate():
    iv = bt.lambda_interval((-3.0, 3.0), slack=0.0)
    expert = bt.UPExpert(iv, o_bounds=(-3.0, 3.0))
    expert.update(3.0)
    lam = expert.bet()
    assert lam > 0.0
    assert iv.contains(lam)


def test_up_expert_rejects_out_of_range_estimate():
    iv = bt.lambda_interval((-3.0, 3.0), slack=0.0)
    expert = bt.UPExpert(iv, o_bounds=(-3.0, 3.0))
    with pytest.raises(ValueError):
        expert.update(4.0)


def test_up_expert_bets_stay_inside_interval():
    rng = np.random.default_rng(5)
    iv = bt.lambda_interval((-3.0, 3.0))
    expert = bt.UPExpert(iv, o_bounds=(-3.0, 3.0))
    for _ in range(300):
        lam = expert.bet()
        assert iv.lo < lam < iv.hi
        expert.update(float(rng.uniform(-3, 3)))


def test_up_expert_static_regret_bound():
    # wealth after T rounds trails the best grid constant by at most
    # log(2) + 0.5 log(T + 1) for the Beta(1/2,1/2) universal portfolio
    rng = np.random.default_rng(31)
    t_len = 100
    budget = 0.5 * math.log(t_len + 1) + math.log(2.0)
    iv = bt.lambda_interval((-3.0, 3.0))
    for _ in range(50):
        stream = rng.uniform(-3.0, 3.0, size=t_len)
        expert = bt.UPExpert(iv, o_bounds=(-3.0, 3.0))
        wealth = 0.0
        for o in stream:
            wealth += math.log1p(expert.bet() * o)
            expert.update(float(o))
        grid = expert.grid
        best = np.log1p(np.outer(stream, grid)).sum(axis=0).max()
        assert wealth >= best - budget - 1e-9


def test_cbce_first_step_is_neutral():
    iv = bt.lambda_interval((-3.0, 3.0))
    bettor = bt.CBCEBettor(iv, o_bounds=(-3.0, 3.0))
    lam = bettor.step(None)
    assert abs(lam) < 1e-12
    assert bettor.last_weights.size == 1
    assert bettor.last_weights[0] == pytest.approx(1.0)


def test_cbce_weights_form_distribution_and_bets_admissible():
    rng = np.random.default_rng(6)
    iv = bt.lambda_interval((-3.0, 3.0))
    bettor = bt.CBCEBettor(iv, o_bounds=(-3.0, 3.0))
    o_prev = None
    for t in range(1, 400):
        lam = bettor.step(o_prev)
        w = bettor.last_weights
        assert np.all(w >= 0.0)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert w.size == int(math.log2(t)) + 1
        assert iv.lo <= lam <= iv.hi
        o_prev = float(rng.uniform(-3, 3))


def test_cbce_increments_stay_positive():
    rng = np.random.default_rng(7)
    b = sh.estimator_bounds(qc.pauli_string("XX"), "local")
    iv = bt.lambda_interval(b)
    bettor = bt.CBCEBettor(iv, o_bounds=b)
    o_prev = None
    for _ in range(500):
        lam = bettor.step(o_prev)
        o_prev = float(rng.choice([b[0], 0.0, b[1]]))
        assert 1.0 + lam * o_prev > 0.0


def test_cbce_rejects_out_of_order_use():
    iv = bt.lambda_interval((-3.0, 3.0))
    bettor = bt.CBCEBettor(iv, o_bounds=(-3.0, 3.0))
    bettor.step(None)
    with pytest.raises(ValueError):
        bettor.step(None)  # second step needs the previous estimate


def test_cbce_adapts_after_adversarial_prefix():
    # 50 hostile rounds then 50 favorable ones; the post-switch log-wealth
    # must stay within the strongly adaptive budget of the best constant
    iv = bt.lambda_interval((-3.0, 3.0))
    bettor = bt.CBCEBettor(iv, o_bounds=(-3.0, 3.0))
    stream = [-1.0] * 50 + [3.0] * 50
    post = 0.0
    o_prev = None
    for t, o in enumerate(stream, start=1):
        lam = bettor.step(o_prev)
        if t > 50:
            post += math.log1p(lam * o)
        o_prev = o
    grid = bt.chebyshev_grid(iv)
    oracle = np.log1p(np.outer([3.0] * 50, grid)).sum(axis=0).max()
    budget = 5.0 * math.sqrt(50.0 * (7.0 * math.log(100.0) + 5.0))
    assert post >= oracle - budget


@dataclass
class _RefEntry:
    t1: int
    t2: int
    sum_g: float = 0.0
    wealth: float = 1.0
    rounds: int = 0
    beta: float = 0.0
    lam: float = 0.0
    backed: bool = False


def ref_up_bets(wealth, grid):
    """Universal-portfolio bets of each row of linear wealth: the grid
    averaged with the row as weights."""
    return (wealth @ grid) / wealth.sum(axis=-1)


def softmax_up_bets(log_wealth, grid):
    """The same bets from log-wealth rows, by the shifted softmax the
    production bettor used before it kept wealth in linear scale."""
    w = np.exp(log_wealth - log_wealth.max(axis=-1, keepdims=True))
    return (w @ grid) / w.sum(axis=-1)


class ReferenceCBCE:
    """Plain CBCE: a list of per-interval expert records in birth order,
    filtered and extended from ``covering_intervals`` at every step.  The
    production bettor must reproduce it bit for bit.

    Wealth rows are multiplied by 1 + grid * o, divided by their maxima at
    every step that ``RENORMALIZE_EVERY`` divides, and bet from in level
    order; the meta bet sums r and r * bet in birth order, once per start
    time, and spreads each start's weight evenly over its records."""

    def __init__(self, interval, o_bounds, k=bt.UP_GRID_SIZE):
        self.interval = interval
        self.o_bounds = o_bounds
        self.k = k
        self.grid = bt.chebyshev_grid(interval, k)
        self.t = 1
        self.entries = []
        self.wealth = np.ones((0, k))
        self.last_lam = 0.0
        self.last_weights = np.zeros(0)
        self.loss_bound = bt.CBCEBettor(interval, o_bounds, k).loss_bound

    def step(self, o_prev=None):
        if o_prev is not None:
            o_hat = float(o_prev)
            scale = 2.0 * self.loss_bound
            meta_loss = -math.log1p(self.last_lam * o_hat)
            for e in self.entries:
                g = (meta_loss + math.log1p(e.lam * o_hat)) / scale
                g = min(1.0, max(-1.0, g))
                if not e.backed:
                    g = max(g, 0.0)
                e.wealth *= 1.0 + e.beta * g
                e.sum_g += g
                e.rounds += 1
            self.wealth *= 1.0 + self.grid * o_hat
        t = self.t
        keep = [i for i, e in enumerate(self.entries) if e.t2 >= t]
        if len(keep) != len(self.entries):
            self.entries = [self.entries[i] for i in keep]
            self.wealth = self.wealth[keep]
        born = [(t1, t2) for t1, t2 in bt.covering_intervals(t) if t1 == t]
        if born:
            self.entries.extend(_RefEntry(t1, t2) for t1, t2 in born)
            self.wealth = np.vstack([self.wealth, np.ones((len(born), self.k))])
        if t % bt.RENORMALIZE_EVERY == 0:
            self.wealth /= self.wealth.max(axis=-1, keepdims=True)
        # the records of one start are copies of one expert: the meta sums
        # fold each start into the longest record, weighted by the start's
        # prior times its record count, normalized by their exact sum
        starts = {}
        for i, e in enumerate(self.entries):
            starts.setdefault(e.t1, []).append(i)
        tops = [ids[-1] for ids in starts.values()]
        counts = [len(ids) for ids in starts.values()]
        folded = [n * (1.0 / (t1 * t1 * (1 + int(math.log2(t1))))) for t1, n in zip(starts, counts)]
        norm = math.fsum(folded)
        prior = np.repeat([p / norm for p in folded], counts)
        # the bet matrix holds the rows in level order, the level being
        # log2 of the interval's length
        levels = [(e.t2 - e.t1 + 1).bit_length() - 1 for e in self.entries]
        by_level = sorted(range(len(levels)), key=levels.__getitem__)
        lams = np.empty(len(levels))
        lams[by_level] = ref_up_bets(self.wealth[by_level], self.grid)
        raw = np.empty(len(self.entries))
        for i, e in enumerate(self.entries):
            e.beta = e.sum_g / (e.rounds + 1)
            e.lam = float(lams[i])
            raw[i] = prior[i] * max(0.0, e.beta * e.wealth)
            e.backed = raw[i] > 0.0
        total = mix = 0.0
        for i in tops:
            total += raw[i]
            mix += raw[i] * self.entries[i].lam
        if total > 0.0:
            self.last_weights = np.repeat(raw[tops] / total / counts, counts)
            lam = mix / total
        else:
            self.last_weights = np.repeat(prior[tops] / counts, counts)
            lam = 0.0
            for i in tops:
                lam += prior[i] * self.entries[i].lam
        self.last_lam = self.interval.clip(float(lam))
        self.t += 1
        return self.last_lam


def _oracle_streams(lower, upper, steps):
    rng = np.random.default_rng(2100)
    return {
        "uniform": rng.uniform(lower, upper, size=steps).tolist(),
        "extremes": [lower if t % 2 else upper for t in range(steps)],
        "zeros": [0.0] * steps,
        # two values only, as a matched bettor's eigenvalue outcomes
        "two-valued": rng.choice([-0.75, 2.5], size=steps).tolist(),
        # signed zeros among a few repeated values
        "signed-zeros": rng.choice([0.0, -0.0, 0.5, -0.5], size=steps).tolist(),
    }


#: lookahead schedules: None steps plainly, a number opens blocks of that
#: many steps (shorter where t allows fewer), "mixed" switches between plain
#: steps and blocks of 1, 2 and LOOKAHEAD_BLOCK at random points of the stream
_SCHEDULES = (None, 1, 2, bt.LOOKAHEAD_BLOCK, "mixed")


def _block_lengths(schedule, steps):
    """{t: length} of the lookahead blocks a schedule opens."""
    rng = np.random.default_rng(16)
    out = {}
    t = 1
    while t <= steps:
        size = schedule
        if schedule == "mixed":
            size = (None, 1, 2, bt.LOOKAHEAD_BLOCK)[int(rng.integers(4))]
        if size is None:
            t += 1
            continue
        out[t] = min(size, t & -t, steps + 1 - t)
        t += out[t]
    return out


# an odd grid puts each step's rows of a block at another offset from
# the vector lanes of the stacked kernels
@pytest.mark.parametrize("k", [bt.UP_GRID_SIZE, 2, 7])
@pytest.mark.parametrize("two_sided", [True, False])
def test_cbce_matches_reference_bit_for_bit(k, two_sided):
    # the reductions over experts (prior sum, UP bets, raw sum, weighted
    # bet) run in birth order; any other order moves bets by ulps.  Bets
    # computed a lookahead block at a time must keep every bit.
    bounds = (-1.0, 9.0)
    full = bt.lambda_interval(bounds)
    interval = full if two_sided else full.nonnegative()
    for name, stream in _oracle_streams(*bounds, 2100).items():
        ref = ReferenceCBCE(interval, bounds, k)
        want = []
        o_prev = None
        for o in stream:
            want.append((ref.step(o_prev), ref.last_weights, [(e.t1, e.t2) for e in ref.entries]))
            o_prev = o
        for schedule in _SCHEDULES:
            blocks = _block_lengths(schedule, len(stream))
            fast = bt.CBCEBettor(interval, bounds, k)
            o_prev = None
            for t, (o, (lam, weights, entries)) in enumerate(zip(stream, want), start=1):
                # step t + j is passed stream[t + j - 2]
                ahead = stream[t - 1:t + blocks[t] - 2] if t in blocks else None
                assert fast.step(o_prev, ahead) == lam, (name, schedule, t)
                assert np.array_equal(fast.last_weights, weights), (name, schedule, t)
                assert fast.entries == entries, (name, schedule, t)
                o_prev = o


def test_reference_records_of_one_start_are_copies():
    # the fold rests on this: records that share a start have absorbed the
    # same estimates since the same restart under equal priors, so their
    # coin state and wealth rows agree bit for bit.  At grid 7; at grid 64
    # BLAS rounds rows of the bet matrix by their position, and the bets of
    # some copies split by an ulp.
    bounds = (-1.0, 9.0)
    interval = bt.lambda_interval(bounds)
    steps = 3000
    streams = _oracle_streams(*bounds, steps)
    pairs = 0
    for name in ("uniform", "extremes", "two-valued"):
        ref = ReferenceCBCE(interval, bounds, 7)
        o_prev = None
        for t, o in enumerate(streams[name], start=1):
            ref.step(o_prev)
            for i, (a, b) in enumerate(zip(ref.entries, ref.entries[1:])):
                if a.t1 != b.t1:
                    continue
                state = [(x.sum_g.hex(), x.wealth.hex(), x.beta.hex(), x.backed) for x in (a, b)]
                assert state[0] == state[1], (name, t, a.t2, b.t2)
                assert ref.wealth[i].tobytes() == ref.wealth[i + 1].tobytes(), (name, t, i)
                pairs += 1
            o_prev = o
    # every step holds bit_length(t) records in popcount(t) starts
    assert pairs == 3 * sum(t.bit_length() - bin(t).count("1") for t in range(1, steps + 1))


@pytest.mark.parametrize("two_sided", [True, False])
@pytest.mark.parametrize("name", ["uniform", "extremes"])
def test_cbce_powers_of_two_are_exact(name, two_sided):
    # at t = 2^k every expert restarts: one group with prior 1.0 and no
    # stake, so the meta bet is that group's UP bet bit for bit.  At 2^k + 1
    # the surviving group's gain is then exactly 0: it is not backed, and
    # that does not hang on the sign of a rounding.
    bounds = (-1.0, 9.0)
    full = bt.lambda_interval(bounds)
    interval = full if two_sided else full.nonnegative()
    bettor = bt.CBCEBettor(interval, bounds)
    o_prev = None
    for t, o in enumerate(_oracle_streams(*bounds, 4097)[name], start=1):
        lam = bettor.step(o_prev)
        top = t.bit_length() - 1
        if t & (t - 1) == 0:
            assert lam == bettor._bets[top], t
        elif (t - 1) & (t - 2) == 0:
            assert bettor._sum_g[top] == 0.0 and not bettor._backed[top], t
        o_prev = o


@pytest.mark.parametrize("k", [2, 7, 64])
def test_cbce_factor_rows_merge_the_two_zeros(k):
    # 1 + grid * -0.0 has the bits of 1 + grid * 0.0 on every grid, so the
    # factor rows are keyed by the estimate and the two zeros share one
    bounds = (-3.0, 3.0)
    full = bt.lambda_interval(bounds)
    for interval in (full, full.nonnegative()):
        grid = bt.chebyshev_grid(interval, k)
        assert (1.0 + grid * 0.0).tobytes() == (1.0 + grid * -0.0).tobytes(), interval
    bettor = bt.CBCEBettor(full, bounds, k)
    stream = [0.5, 0.0, -0.0, -0.5] * 8
    bettor.step()
    for o in stream:
        bettor.step(o)
    assert len(bettor._factors) == 3
    assert bettor._factors[-0.0].tobytes() == np.ones(k).tobytes()


def test_cbce_lookahead_rejects_misuse():
    bounds = (-3.0, 3.0)

    def bettor_at(t):
        b = bt.CBCEBettor(bt.lambda_interval(bounds), bounds)
        for s in range(1, t):
            b.step(None if s == 1 else 0.5)
        return b

    with pytest.raises(ValueError, match="cannot start at step 6"):
        bettor_at(6).step(0.5, ahead=[0.5] * 3)  # 6 .. 9 crosses 8
    with pytest.raises(ValueError, match="cannot start at step 32"):
        bettor_at(32).step(0.5, ahead=[0.5] * bt.LOOKAHEAD_BLOCK)
    with pytest.raises(ValueError, match="outside the declared range"):
        bettor_at(4).step(0.5, ahead=[0.5, 4.0])
    b = bettor_at(4)
    b.step(0.5, ahead=[1.0, -1.0])
    with pytest.raises(ValueError, match="step 5 needs the estimate observed at step 4"):
        b.step(None)
    with pytest.raises(ValueError, match="inside the lookahead block"):
        b.step(1.0, ahead=[])
    with pytest.raises(ValueError, match="not the estimate passed ahead"):
        b.step(0.5)
    b.step(1.0)
    b.step(-1.0)
    b.step(2.0)  # the block is over: any admissible estimate


def test_cbce_restarting_group_is_the_last_and_fresh():
    # the meta loop leaves out the group that restarts at t: the last in
    # birth order, topped by t's lowest set bit, the only group of age 1.
    # The oracle groups the covering intervals of t by start.
    late = [bt.BIRTH_ORDER_CACHED + 1, (1 << 20) + 96, 3 << 40, (1 << 62) - 1, 1 << 62]
    for t in [*range(1, 1 << 13), *late]:
        tops = {}
        for k, (t1, _) in enumerate(bt.covering_intervals(t)):
            tops[t1] = k  # the start's top level
        want = [(top, t - t1 + 1) for t1, top in sorted(tops.items())]
        older, (top, prior) = bt._birth_order(t)
        assert [(lv, age) for lv, _, age in older] + [(top, 1)] == want, t
        assert top == (t & -t).bit_length() - 1, t
        assert all(age > 1 for *_, age in older), t
        assert math.fsum([p for _, p, _ in older] + [prior]) == pytest.approx(1.0), t
    # a bettor leaves the restarting level with a fresh expert's coin state,
    # in plain steps and in lookahead blocks
    bounds = (-1.0, 9.0)
    interval = bt.lambda_interval(bounds)
    fresh = bt.UPExpert(interval, k=7).bet()
    steps = 1100
    stream = np.random.default_rng(13).uniform(*bounds, size=steps).tolist()
    blocks = _block_lengths("mixed", steps)
    bettor = bt.CBCEBettor(interval, bounds, 7)
    for t in range(1, steps + 1):
        ahead = stream[t - 1:t + blocks[t] - 2] if t in blocks else None
        bettor.step(None if t == 1 else stream[t - 2], ahead)
        top = (t & -t).bit_length() - 1
        assert bettor._sum_g[top] == 0.0 and bettor._beta[top] == 0.0, t
        assert bettor._wealth[top] == 1.0 and bettor._backed[top] is False, t
        assert bettor._bets[top] == pytest.approx(fresh, rel=1e-12), t


def test_cbce_experts_are_the_covering_intervals():
    bettor = bt.CBCEBettor(bt.lambda_interval((-3.0, 3.0)), (-3.0, 3.0))
    rng = np.random.default_rng(4096)
    assert bettor.entries == []
    o_prev = None
    for t in range(1, 4097):
        bettor.step(o_prev)
        assert set(bettor.entries) == set(bt.covering_intervals(t))
        assert len(bettor.entries) == t.bit_length()
        o_prev = float(rng.uniform(-3.0, 3.0))


def test_cbce_bettors_share_the_birth_order_cache():
    # birth order and normalized priors are cached per t for the whole
    # process; bettors of other grids and intervals stepped
    # interleaved must bet as each does alone
    configs = [
        (bt.lambda_interval((-3.0, 3.0)), (-3.0, 3.0), bt.UP_GRID_SIZE, None),
        (bt.lambda_interval((-1.0, 9.0)).nonnegative(), (-1.0, 9.0), 7, None),
        (bt.lambda_interval((-2.0, 5.0)), (-2.0, 5.0), 7, bt.LOOKAHEAD_BLOCK),
        (bt.lambda_interval((-1.0, 9.0)), (-1.0, 9.0), bt.UP_GRID_SIZE, "mixed"),
    ]
    steps = 700
    rng = np.random.default_rng(3)
    streams = [rng.uniform(*bounds, size=steps).tolist() for _, bounds, _, _ in configs]
    blocks = [_block_lengths(schedule, steps) for *_, schedule in configs]

    def trace(bettor, stream, opens, t):
        ahead = stream[t - 1:t + opens[t] - 2] if t in opens else None
        lam = bettor.step(None if t == 1 else stream[t - 2], ahead)
        return lam, bettor.last_weights.tobytes()

    bettors = [bt.CBCEBettor(iv, bounds, k) for iv, bounds, k, _ in configs]
    together = [[] for _ in configs]
    for t in range(1, steps + 1):
        for b, stream, bl, out in zip(bettors, streams, blocks, together):
            out.append(trace(b, stream, bl, t))
    for (iv, bounds, k, _), stream, bl, want in zip(configs, streams, blocks, together):
        bt._cached_birth_order.cache_clear()
        alone = bt.CBCEBettor(iv, bounds, k)
        assert [trace(alone, stream, bl, t) for t in range(1, steps + 1)] == want


def test_linear_bets_match_the_log_scale_softmax():
    # the continuous part of the arithmetic: a row of linear wealth bets as
    # the softmax of its logarithm does, to 1e-12 relative, even when its
    # grid points lie up to 700 nats behind the leader
    rng = np.random.default_rng(700)
    for k in (bt.UP_GRID_SIZE, 2, 7):
        grid = bt.chebyshev_grid(bt.lambda_interval((-1.0, 9.0)), k)
        for spread in (1e-3, 1.0, 50.0, 300.0, 700.0):
            log_wealth = -rng.uniform(0.0, spread, size=(200, k))
            log_wealth[np.arange(200), rng.integers(k, size=200)] = 0.0  # the leader
            want = softmax_up_bets(log_wealth, grid)
            got = bt._portfolio_bets(np.exp(log_wealth), grid)
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), (k, spread)


def test_cbce_wealth_stays_finite_at_long_horizons():
    # alternating extreme estimates drive the wealth of most grid points
    # down at every step; renormalization keeps each row's leader at 1.0
    bounds = (-1.0, 9.0)
    bettor = bt.CBCEBettor(bt.lambda_interval(bounds), bounds)
    o_prev = None
    for t in range(1, (1 << 15) + 1):
        bettor.step(o_prev)
        wealth = bettor._up_wealth
        assert np.all(np.isfinite(wealth)) and np.all(wealth >= 0.0), t
        if t % bt.RENORMALIZE_EVERY == 0:
            assert np.array_equal(wealth.max(axis=-1), np.ones(t.bit_length())), t
        o_prev = bounds[t % 2]


def test_cbce_process_state_stays_bounded_at_long_horizons():
    # the birth orders kept for the whole process cover the steps below
    # BIRTH_ORDER_CACHED and a few recent ones, so the last 2^13 of 2^16
    # steps leave memory flat (the interpreter's tuple free lists fill
    # before the traced window)
    bounds = (-3.0, 3.0)
    bettor = bt.CBCEBettor(bt.lambda_interval(bounds), bounds)
    steps, window = 1 << 16, 1 << 13
    stream = np.random.default_rng(65536).uniform(*bounds, size=steps).tolist()
    bettor.step(None)
    for t in range(2, steps - window):
        bettor.step(stream[t - 2])
    tracemalloc.start()
    try:
        for t in range(steps - window, steps + 1):
            bettor.step(stream[t - 2])
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # an entry per step for the whole process holds about 0.7 KB, 6 MB here
    assert held < 100_000


def _block_steps(bettor, stream, last):
    """Step bettor on to step last in the longest lookahead blocks its steps
    allow, passing stream[t - 2] at step t; yields (t, steps) of each block
    after its first step."""
    t = bettor.t
    while t <= last:
        count = min(bt.lookahead_block(t), last + 1 - t)
        bettor.step(stream[t - 2] if t > 1 else None, stream[t - 1:t + count - 2])
        yield t, count
        for s in range(t + 1, t + count):
            bettor.step(stream[s - 2])
        t += count


def test_cbce_bettors_that_share_block_rows_bet_as_each_does_alone():
    # the bettors of one grid size build their lookahead blocks in turn in
    # one set of rows, the one started later over fewer levels, and a
    # bettor of another grid size takes the rows over for each of its blocks
    configs = [  # interval, bounds, grid, first step of the run
        (bt.lambda_interval((-3.0, 3.0)), (-3.0, 3.0), bt.UP_GRID_SIZE, 1),
        (bt.lambda_interval((-1.0, 9.0)).nonnegative(), (-1.0, 9.0), bt.UP_GRID_SIZE, 1),
        (bt.lambda_interval((-2.0, 5.0)), (-2.0, 5.0), bt.UP_GRID_SIZE, 300),
        (bt.lambda_interval((-1.0, 9.0)), (-1.0, 9.0), 7, 1),
    ]
    steps = 1100
    rng = np.random.default_rng(32)
    streams = [rng.uniform(*bounds, size=steps).tolist() for _, bounds, _, _ in configs]
    blocks = _block_lengths(bt.LOOKAHEAD_BLOCK, steps)

    def trace(bettor, stream, t):
        ahead = stream[t - 1:t + blocks[t] - 2] if t in blocks else None
        lam = bettor.step(None if t == 1 else stream[t - 2], ahead)
        return lam, bettor.last_weights.tobytes(), bettor._up_wealth.tobytes()

    bettors = [bt.CBCEBettor(iv, bounds, k) for iv, bounds, k, _ in configs]
    together = [[] for _ in configs]
    for step in range(1, steps + 1):
        for b, stream, (*_, first), out in zip(bettors, streams, configs, together):
            if step >= first:
                out.append(trace(b, stream, step - first + 1))
    assert len(bt._block_buffers) == 1  # the rows of one grid size at a time
    for (iv, bounds, k, _), stream, want in zip(configs, streams, together):
        bt._block_buffers.clear()
        alone = bt.CBCEBettor(iv, bounds, k)
        assert [trace(alone, stream, t) for t in range(1, len(want) + 1)] == want


def test_cbce_block_rows_stay_finite_at_long_horizons():
    # the estimates of test_cbce_wealth_stays_finite_at_long_horizons in
    # full lookahead blocks: every row of a block, read from the shared rows
    # after its first step, is renormalized at each step RENORMALIZE_EVERY
    # divides, those in the middle of a block included
    bounds = (-1.0, 9.0)
    bettor = bt.CBCEBettor(bt.lambda_interval(bounds), bounds)
    steps = 1 << 15
    stream = [bounds[t % 2] for t in range(1, steps)]
    middles = 0
    for t, count in _block_steps(bettor, stream, steps):
        levels = t.bit_length()
        rows = (bt._block_buffers[bettor.k][0][:count, :levels] if count > 1
                else bettor._up_wealth[None])
        assert np.all(np.isfinite(rows)) and np.all(rows >= 0.0), t
        for s in range(count):
            if (t + s) % bt.RENORMALIZE_EVERY == 0:
                assert np.array_equal(rows[s].max(axis=-1), np.ones(levels)), t + s
                middles += s > 0
    assert middles == steps // bt.LOOKAHEAD_BLOCK - 1  # every full block from 32 on


def test_cbce_block_steps_keep_process_state_bounded_at_long_horizons():
    # test_cbce_process_state_stays_bounded_at_long_horizons in full
    # lookahead blocks: the shared rows and plans of a grid size are
    # reallocated only for a new level count
    bounds = (-3.0, 3.0)
    bettor = bt.CBCEBettor(bt.lambda_interval(bounds), bounds)
    steps, window = 1 << 16, 1 << 13
    stream = np.random.default_rng(65536).uniform(*bounds, size=steps).tolist()
    for _ in _block_steps(bettor, stream, steps - window - 1):
        pass
    tracemalloc.start()
    try:
        for _ in _block_steps(bettor, stream, steps):
            pass
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 100_000


def sar_ratio(t_len, rng):
    """Worst windowed regret over windows of length t_len // 4, per step."""
    iv = bt.lambda_interval((-3.0, 3.0))
    bettor = bt.CBCEBettor(iv, o_bounds=(-3.0, 3.0))
    stream = rng.uniform(-1.0, 3.0, size=t_len)
    logs = np.empty(t_len)
    o_prev = None
    for t in range(t_len):
        lam = bettor.step(o_prev)
        logs[t] = math.log1p(lam * stream[t])
        o_prev = float(stream[t])
    grid = bt.chebyshev_grid(iv)
    per_grid = np.log1p(np.outer(stream, grid))  # (T, K)
    cum = np.vstack([np.zeros(grid.size), np.cumsum(per_grid, axis=0)])
    cum_algo = np.concatenate([[0.0], np.cumsum(logs)])
    width = t_len // 4
    worst = -np.inf
    for s in range(t_len - width + 1):
        oracle = (cum[s + width] - cum[s]).max()
        got = cum_algo[s + width] - cum_algo[s]
        worst = max(worst, oracle - got)
    return worst / width


def test_cbce_strongly_adaptive_regret_shrinks():
    rng = np.random.default_rng(11)
    ratios = [sar_ratio(t, rng) for t in (256, 1024, 4096)]
    assert ratios[0] > ratios[1] > ratios[2]


def test_growth_curve_folds_repeated_values():
    # merging atoms that share a value must not move the curve beyond
    # rounding: the joint d=2 table (46080 atoms) and a small hand table
    probs, values = sh.outcome_distribution(
        qc.make_theta_state(2, 0.6), [qc.rotated_observable(2, 0.3)], "joint")
    small = (np.array([0.1, 0.25, 0.05, 0.3, 0.2, 0.1]),
             np.array([1.0, -2.0, 1.0, 0.5, -2.0, 1.0]))
    for p, v in ((probs, values[:, 0]), small):
        interval = bt.lambda_interval((v.min(), v.max()))
        grid, curve = bt.growth_curve(p, v, interval)
        assert np.array_equal(grid, bt._growth_grid(interval))
        unfolded = p @ np.log1p(v[:, None] * grid[None, :])
        assert np.abs(curve - unfolded).max() <= 1e-12


def test_growth_rate_exact_single_qubit():
    # ô for X on the theta=1 state: 3 w.p. 1/3, else 0; best bet sits at the
    # slack-trimmed top of the interval
    rho = qc.make_theta_state(1, 1.0)
    obs = qc.rotated_observable(1, 0.0)
    got = bt.estimate_growth_rate(rho, [obs], "local")
    slack = bt.default_slack((-3.0, 3.0))
    lam_hi = 1 / 3 - slack
    want = math.log1p(3.0 * lam_hi) / 3.0
    assert got.d_star == pytest.approx(want, rel=1e-12)
    assert got.lambda_star == pytest.approx(lam_hi, rel=1e-12)
    assert got.i_star == 0


def test_growth_rate_zero_for_maximally_mixed_state():
    rho = qc.DensityMatrix(np.eye(2) / 2)
    obs = qc.pauli_string("X")
    got = bt.estimate_growth_rate(rho, [obs], "local")
    assert got.d_star == pytest.approx(0.0, abs=1e-12)
    assert got.lambda_star == pytest.approx(0.0, abs=1e-12)


def test_growth_rate_picks_strongest_observable():
    rho = qc.make_theta_state(1, 0.9)
    strong = qc.rotated_observable(1, 0.0)  # mean 0.9
    weak = qc.rotated_observable(1, 1.0)  # mean 0.9 cos(1)
    got = bt.estimate_growth_rate(rho, [weak, strong], "local")
    assert got.i_star == 1
    got = bt.estimate_growth_rate(rho, [strong, weak], "local")
    assert got.i_star == 0
    assert got.d_star == max(got.per_observable)
    assert all(v >= 0.0 for v in got.per_observable)


def test_growth_rate_monte_carlo_agrees_with_formula():
    # d=4 is past the enumeration limit, so this exercises the sampling path;
    # for theta=1 the estimate is 81 w.p. 1/81 and 0 otherwise
    rho = qc.make_theta_state(4, 1.0)
    obs = qc.pauli_string("XXXX")
    got = bt.estimate_growth_rate(
        rho, [obs], "local", shots=20000, rng=np.random.default_rng(3)
    )
    slack = bt.default_slack((-81.0, 81.0))
    lam_hi = 1 / 81 - slack
    want = math.log1p(81.0 * lam_hi) / 81.0
    assert got.d_star == pytest.approx(want, rel=0.2)


def test_growth_rate_input_validation():
    rho = qc.make_theta_state(1, 1.0)
    with pytest.raises(ValueError):
        bt.estimate_growth_rate(rho, [], "local")
