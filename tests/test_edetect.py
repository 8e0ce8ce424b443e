"""The SR/CUSUM detector recursion, mixture aggregation, and stopping semantics."""

import math

import numpy as np
import pytest

from shadowcpd import edetect as ed


def sr_closed_form(seq):
    """Sum over start times j of the product of multipliers from j on."""
    out = []
    for t in range(1, len(seq) + 1):
        total = 0.0
        for j in range(1, t + 1):
            total += math.prod(seq[j - 1 : t])
        out.append(total)
    return out


def cusum_closed_form(seq):
    out = []
    for t in range(1, len(seq) + 1):
        out.append(max(math.prod(seq[j - 1 : t]) for j in range(1, t + 1)))
    return out


def log_sr_closed_form(logs):
    """log of sr_closed_form, from the log-multipliers, without overflow."""
    out = []
    for t in range(1, len(logs) + 1):
        tails = [math.fsum(logs[j - 1 : t]) for j in range(1, t + 1)]
        out.append(float(np.logaddexp.reduce(tails)))
    return out


def log_cusum_closed_form(logs):
    return [max(math.fsum(logs[j - 1 : t]) for j in range(1, t + 1))
            for t in range(1, len(logs) + 1)]


def never_stopping(kind, weights=(1.0,)):
    # log(1/alpha) = 690.8 keeps any log-statistic below it from stopping
    return ed.SequentialDetector(ed.DetectorConfig(weights=weights, alpha=1e-300, kind=kind))


def mixtures(kind, seq):
    det = never_stopping(kind)
    out = []
    for L in seq:
        assert det.advance([L]) is False
        out.append(det.mixture())
    return out


def test_sr_worked_sequence():
    assert mixtures(ed.SR, (2.0, 0.5, 3.0)) == pytest.approx([2.0, 1.5, 7.5])


def test_cusum_worked_sequences():
    assert mixtures(ed.CUSUM, (2.0, 0.5, 3.0)) == pytest.approx([2.0, 1.0, 3.0])
    # restart at 1 beats compounding
    assert mixtures(ed.CUSUM, (0.5, 0.5)) == pytest.approx([0.5, 0.5])


def test_neutral_increments_count_time():
    assert mixtures(ed.SR, [1.0] * 8) == pytest.approx(list(range(1, 9)))
    assert mixtures(ed.CUSUM, [1.0] * 8) == pytest.approx([1.0] * 8)


def test_single_step_equals_increment():
    assert mixtures(ed.SR, [0.37]) == pytest.approx([0.37])
    assert mixtures(ed.CUSUM, [0.37]) == pytest.approx([0.37])


def test_recursions_match_closed_forms():
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(1, 13))
        seq = list(np.exp(rng.uniform(-1.5, 1.5, size=n)))
        sr = mixtures(ed.SR, seq)
        cu = mixtures(ed.CUSUM, seq)
        assert sr == pytest.approx(sr_closed_form(seq), rel=1e-9)
        assert cu == pytest.approx(cusum_closed_form(seq), rel=1e-9)
        # every max term is one of the summed products
        assert all(c <= s * (1 + 1e-12) for c, s in zip(cu, sr))


def test_update_rejects_nonpositive_multiplier():
    with pytest.raises(ValueError):
        never_stopping(ed.SR).advance([0.0])
    with pytest.raises(ValueError):
        never_stopping(ed.CUSUM).advance([-0.5])


def test_promotion_keeps_log_value_exact():
    # 290 rounds of L=10 push the statistics far past PROMOTE_AT; closed
    # form m_sr(t) = (10^(t+1) - 10) / 9, so log m = (t+1) log 10 - log 9
    # up to a correction below double precision at this size
    rounds = 290
    sr = mixtures(ed.SR, [10.0] * rounds)[-1]
    cu = mixtures(ed.CUSUM, [10.0] * rounds)[-1]
    assert sr > ed.PROMOTE_AT**20
    assert math.log(sr) == pytest.approx((rounds + 1) * math.log(10.0) - math.log(9.0), rel=1e-12)
    assert math.log(cu) == pytest.approx(rounds * math.log(10.0), rel=1e-12)


def test_mixture_examples():
    det = never_stopping(ed.SR, weights=(0.5, 0.5))
    det.advance([2.0, 4.0])
    assert det.mixture() == pytest.approx(3.0)
    det = never_stopping(ed.SR)
    det.advance([7.0])
    assert det.mixture() == pytest.approx(7.0)
    det = never_stopping(ed.SR, weights=(0.2, 0.3, 0.5))
    det.advance([1.0, 1.0, 1.0])
    assert det.mixture() == pytest.approx(1.0)


def test_mixture_permutation_invariance():
    rng = np.random.default_rng(8)
    w = rng.uniform(0.1, 1.0, size=4)
    w = w / w.sum()
    ms = rng.uniform(0.0, 9.0, size=4)
    det = never_stopping(ed.SR, weights=tuple(w))
    det.advance(list(ms))
    perm = rng.permutation(4)
    det_p = never_stopping(ed.SR, weights=tuple(w[perm]))
    det_p.advance(list(ms[perm]))
    assert det_p.mixture() == pytest.approx(det.mixture(), rel=1e-12)


def test_mixture_with_promoted_state_uses_log_path():
    # 3e12 passes PROMOTE_AT, so the first statistic moves into its log offset
    det = never_stopping(ed.SR, weights=(0.25, 0.75))
    det.advance([3.0 * ed.PROMOTE_AT, 5.0])
    want = 0.25 * 3.0 * ed.PROMOTE_AT + 0.75 * 5.0
    assert det.mixture() == pytest.approx(want, rel=1e-12)


def test_mixture_length_mismatch():
    det = never_stopping(ed.SR, weights=(0.5, 0.5))
    with pytest.raises(ValueError):
        det.advance([1.0])


def test_config_validation():
    with pytest.raises(ValueError):
        ed.DetectorConfig(weights=(), alpha=0.1)
    with pytest.raises(ValueError):
        ed.DetectorConfig(weights=(0.5, -0.5), alpha=0.1)
    with pytest.raises(ValueError):
        ed.DetectorConfig(weights=(0.5, 0.4), alpha=0.1)  # sums to 0.9
    with pytest.raises(ValueError):
        ed.DetectorConfig(weights=(1.0,), alpha=1.5)
    with pytest.raises(ValueError):
        ed.DetectorConfig(weights=(1.0,), alpha=0.1, kind="other")
    cfg = ed.DetectorConfig(weights=(1.0,), alpha=0.25)
    assert cfg.threshold == pytest.approx(4.0)
    cfg = ed.DetectorConfig(weights=(1.0,), alpha=0.25, kind=ed.CUSUM)
    assert cfg.threshold == pytest.approx(4.0)


def test_neutral_bets_stop_sr_at_two():
    det = ed.SequentialDetector(ed.DetectorConfig(weights=(1.0,), alpha=0.5))
    assert det.advance([1.0]) is False  # M = 1
    assert det.advance([1.0]) is True  # M = 2 >= 1/alpha
    assert det.t == 2


def test_neutral_bets_never_stop_cusum():
    det = ed.SequentialDetector(
        ed.DetectorConfig(weights=(1.0,), alpha=0.5, kind=ed.CUSUM)
    )
    for _ in range(50):
        assert det.advance([1.0]) is False
    assert det.mixture() == pytest.approx(1.0)


def test_boundary_hit_stops():
    det = ed.SequentialDetector(ed.DetectorConfig(weights=(1.0,), alpha=0.5))
    assert det.advance([2.0]) is True  # M = 2 = 1/alpha exactly


def test_stopped_detector_latches():
    det = ed.SequentialDetector(ed.DetectorConfig(weights=(1.0,), alpha=0.5))
    det.advance([5.0])
    assert det.stopped
    with pytest.raises(RuntimeError):
        det.advance([1.0])


def test_none_increment_skips_observable():
    det = never_stopping(ed.SR, weights=(0.5, 0.5))
    det.advance([2.0, None])
    assert det.mixture() == pytest.approx(0.5 * 2.0)
    det.advance([None, 3.0])
    assert det.mixture() == pytest.approx(0.5 * 2.0 + 0.5 * 3.0)


def test_detector_matches_log_closed_forms_with_offsets():
    # long stream with occasional huge multipliers forces promotions; the
    # mixture must follow the log-space closed forms throughout
    rng = np.random.default_rng(13)
    seqs = np.exp(rng.uniform(-1.0, 8.0, size=(80, 2)))
    logs = np.log(seqs)
    for kind, closed in ((ed.SR, log_sr_closed_form), (ed.CUSUM, log_cusum_closed_form)):
        det = never_stopping(kind, weights=(0.5, 0.5))
        want = np.logaddexp(*(np.log(0.5) + np.array(closed(list(logs[:, i]))) for i in range(2)))
        # worst-case log-statistic 80 * 8 = 640 stays below log(1/alpha) = 690
        for t, ls in enumerate(seqs):
            assert det.advance(list(ls)) is False
            assert math.log(det.mixture()) == pytest.approx(want[t], rel=1e-12)


def test_average_run_length_floor_under_null_feed():
    # unbiased estimates with nonpositive mean; any fixed admissible bet.
    # Theory guarantees E[T] >= 1/alpha; check the Monte Carlo mean at
    # alpha = 1/50 over 300 capped runs.
    alpha = 1.0 / 50.0
    cap = int(50 / alpha)
    lam = 0.2
    stops = []
    rng = np.random.default_rng(123)
    for _ in range(300):
        det = ed.SequentialDetector(ed.DetectorConfig(weights=(1.0,), alpha=alpha))
        t = cap
        for step in range(1, cap + 1):
            o = 1.0 if rng.random() < 0.45 else -1.0  # mean -0.1
            if det.advance([1.0 + lam * o]):
                t = step
                break
        stops.append(t)
    stops = np.asarray(stops, dtype=float)
    se = stops.std(ddof=1) / math.sqrt(len(stops))
    assert stops.mean() >= 1.0 / alpha - se


class ReferenceDetector:
    """The SR/CUSUM recursion on numpy state vectors, with the mixture
    taken the same way; the production detector must match it bit for bit."""

    def __init__(self, config):
        n = config.n_observables
        self.config = config
        self.w = np.asarray(config.weights, dtype=float)
        self.logw = np.log(self.w)
        self.msr, self.mcu, self.osr, self.ocu = (np.zeros(n) for _ in range(4))

    def advance(self, increments):
        for i, incr in enumerate(increments):
            if incr is None:
                continue
            self.msr[i] = incr * (self.msr[i] + math.exp(-self.osr[i]))
            while self.msr[i] > ed.PROMOTE_AT:
                self.msr[i] /= ed.PROMOTE_AT
                self.osr[i] += math.log(ed.PROMOTE_AT)
            self.mcu[i] = incr * max(self.mcu[i], math.exp(-self.ocu[i]))
            while self.mcu[i] > ed.PROMOTE_AT:
                self.mcu[i] /= ed.PROMOTE_AT
                self.ocu[i] += math.log(ed.PROMOTE_AT)
        return self.decide()

    def decide(self):
        if self.config.kind == ed.SR:
            m, off = self.msr, self.osr
        else:
            m, off = self.mcu, self.ocu
        if not off.any():
            # summed over the observables in their declared order
            mixture = 0.0
            for w, x in zip(self.w.tolist(), m.tolist()):
                mixture += w * x
            return mixture, mixture >= self.config.threshold
        with np.errstate(divide="ignore"):
            lm = float(np.logaddexp.reduce(self.logw + np.log(m) + off))
        return (math.exp(lm) if lm < 709.0 else math.inf), lm >= math.log(self.config.threshold)


@pytest.mark.parametrize("kind", [ed.SR, ed.CUSUM])
@pytest.mark.parametrize("n", [1, 3, 8])
def test_detector_matches_reference_bit_for_bit(kind, n):
    # one observable, dense rows for three (each observable its own
    # multiplier), one-hot sparse rows for eight; 3e12 multipliers push
    # statistics through PROMOTE_AT into the log offsets
    rng = np.random.default_rng(1000 + n)
    for alpha in (1e-300, 0.01):
        config = ed.DetectorConfig(weights=ed.uniform_weights(n), alpha=alpha, kind=kind)
        det = ed.SequentialDetector(config)
        ref = ReferenceDetector(config)
        for t in range(1, 3001):
            mult = 3e12 if rng.random() < 0.02 else float(np.exp(rng.normal(0.0, 0.3)))
            row = [None] * n
            row[int(rng.integers(n))] = mult
            if n == 3:
                row = [x if x is not None else float(np.exp(rng.normal(0.0, 0.3))) for x in row]
            stop = det.advance(row)
            mixture, ref_stop = ref.advance(row)
            assert det.mixture() == mixture, (alpha, t)
            assert stop == ref_stop, (alpha, t)
            if stop:
                break
        assert det.t == t
        # the tiny alpha reaches the log offsets, the other one stops
        assert ref.osr.any() if alpha == 1e-300 else det.stopped
