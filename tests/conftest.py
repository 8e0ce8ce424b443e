"""Shared helpers for the test suite (imported, not fixtures)."""

import itertools
import math

import numpy as np

from shadowcpd import qcore as qc
from shadowcpd import shadows as sh


def random_density(rng, d):
    """Full-rank random density matrix via a Ginibre draw."""
    dim = 2**d
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_pauli_letters(rng, d):
    """Random nontrivial Pauli string (never the all-identity)."""
    while True:
        letters = "".join(rng.choice(list("IXYZ")) for _ in range(d))
        if set(letters) != {"I"}:
            return letters


# ---------------------------------------------------------------------------
# plain per-atom references for the shadows estimate kernel.  A setting is
# what shadows.sample_setting returns: basis labels (local) or a Clifford
# unitary (joint); outcome bits are qubit 0 first.


def ref_iter_settings(kind, d):
    """Every (setting, weight) of an enumerable ensemble, in enumeration order."""
    if kind == "local":
        n_settings = 3**d
        for bases in itertools.product(range(3), repeat=d):
            yield np.array(bases), 1.0 / n_settings
    else:
        group = sh.clifford_group(d)
        for u in group:
            yield u, 1.0 / len(group)


def ref_shadow_estimate(kind, setting, bits):
    """Snapshot matrix for outcome ``bits`` under ``setting``."""
    d = len(bits)
    if kind == "local":
        factors = []
        for k in range(d):
            u = sh.BASIS_GATES[setting[k]]
            ket = u.conj().T[:, bits[k]]
            factors.append(3.0 * np.outer(ket, ket.conj()) - qc.PAULI_I)
        mat = qc.kron_all(factors)
    else:
        dim = setting.shape[0]
        psi = setting.conj().T[:, qc.bits_to_index(bits)]
        mat = (dim + 1.0) * np.outer(psi, psi.conj()) - np.eye(dim, dtype=complex)
    tr = complex(np.trace(mat))
    if abs(tr - 1.0) > 1e-8:
        raise ValueError(f"snapshot trace {tr:.9g} differs from 1")
    return mat


def ref_estimate_observable(snapshot, obs):
    """Single-shot estimate Tr(O rho_hat) from a snapshot."""
    return float(np.trace(obs.mat @ snapshot).real)


def ref_local_factor_table(obs):
    """Entry [k, b, x] is Tr(O_k (3 U_b^dag |x><x| U_b - I))."""
    table = np.empty((obs.n_qubits, 3, 2))
    for k in range(obs.n_qubits):
        f = obs.factors[k]
        tr = float(np.trace(f).real)
        for b in range(3):
            rot = sh.BASIS_GATES[b] @ f @ sh.BASIS_GATES[b].conj().T
            for x in range(2):
                table[k, b, x] = 3.0 * rot[x, x].real - tr
    return table


def ref_estimate_from_setting(kind, setting, bits, obs):
    """Factor-table product for local product observables, else the snapshot trace."""
    if kind == "local" and obs.factors is not None:
        table = ref_local_factor_table(obs)
        val = 1.0
        for k in range(len(bits)):
            val *= table[k, setting[k], bits[k]]
        return val
    return ref_estimate_observable(ref_shadow_estimate(kind, setting, bits), obs)


def ref_state_key(ket):
    """Hashable key of a ket up to global phase: its first nonzero entry is
    rotated onto the positive reals, then every entry rounded."""
    j = int(np.flatnonzero(np.abs(ket) > 1e-12)[0])
    return tuple(np.round(ket * (abs(ket[j]) / ket[j]), 9).tolist())


def ref_fold_index(kets, table_kets):
    """Row of ``table_kets`` holding each of ``kets`` up to phase; the table
    rows must be distinct states."""
    index = {ref_state_key(t): i for i, t in enumerate(table_kets)}
    assert len(index) == len(table_kets)
    return np.array([index[ref_state_key(k)] for k in kets])


# ---------------------------------------------------------------------------
# the per-step escd trial loop: one draw and one plain bettor step per time
# step, as before lookahead blocks


def ref_draw(sampler, rng):
    """One estimate row: from one scalar uniform for a table sampler, from
    one shadow measurement for a direct sampler."""
    from shadowcpd import harness as hz

    if isinstance(sampler, hz._DirectSampler):
        return sh.sample_estimates(sampler.rho, sampler.observables, sampler.kind, rng)
    return sampler.values[int(np.searchsorted(sampler.cum, rng.random(), side="right"))]


def ref_run_trial_escd(scenario, seed, run_index, runtime):
    """An escd trial stepped one draw at a time; returns run_trial's result."""
    from shadowcpd import harness as hz

    sc, rt = scenario, runtime
    rng = np.random.default_rng(seed)
    detector = hz.SequentialDetector(rt.detector_config)
    bettors = [rt.make_bettor(i) for i in range(rt.n)]
    prev = [None] * rt.n
    stop_at = None
    for t in range(1, sc.run_cap + 1):
        post = sc.nu is not None and t >= sc.nu
        sampler = rt.sources[1] if post else rt.sources[0]
        lams = [bettor.step(o) for bettor, o in zip(bettors, prev)]
        ests = ref_draw(sampler, rng).tolist()
        if detector.advance([1.0 + lam * o for lam, o in zip(lams, ests)]):
            stop_at = t
            break
        prev = ests
    return _trial_result(sc, seed, run_index, stop_at)


# ---------------------------------------------------------------------------
# the array form of UCB scheduling and the per-step matched trial loop, as
# before scores were kept per index and fixed schedules took lookahead blocks

UCB_DEFAULT_DELTA = 0.1


class RefUCBStats:
    """Per-index selection counts and increment sums for UCB scheduling."""

    def __init__(self, n: int, delta: float = UCB_DEFAULT_DELTA):
        if n < 1:
            raise ValueError("need at least one index")
        if not 0.0 < delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
        self.delta = float(delta)
        self.counts = np.zeros(n, dtype=np.int64)
        self.increment_sums = np.zeros(n)

    @property
    def n(self) -> int:
        return self.counts.size

    def record(self, index: int, increment: float) -> None:
        self.counts[index] += 1
        self.increment_sums[index] += increment

    def scores(self) -> np.ndarray:
        if self.counts.min() < 1:
            raise ValueError("UCB scores need every index selected at least once")
        means = self.increment_sums / self.counts
        return means + np.sqrt(2.0 * math.log(1.0 / self.delta) / self.counts)


def ref_select_index(mode: str, t: int, n: int, stats=None) -> int:
    """Index (0-based) of the observable to measure at step t >= 1.

    Round-robin cycles in order.  UCB warms up by forcing each index
    once, in order, then plays the highest mean-plus-bonus score with
    ties going to the smallest index.
    """
    if t < 1:
        raise ValueError("time starts at 1")
    if n < 1:
        raise ValueError("need at least one index")
    if mode == "round_robin":
        return (t - 1) % n
    if mode != "ucb":
        raise ValueError(f"unknown scheduling mode {mode!r}")
    if stats is None:
        raise ValueError("ucb scheduling needs UCBStats")
    if stats.n != n:
        raise ValueError(f"stats cover {stats.n} indices, expected {n}")
    cold = np.flatnonzero(stats.counts == 0)
    if cold.size:
        return int(cold[0])
    return int(np.argmax(stats.scores()))


def ref_run_trial_matched(scenario, seed, run_index, runtime):
    """A matched trial stepped one draw at a time, with the array-form UCB
    and searchsorted draws; returns run_trial's result."""
    from shadowcpd import harness as hz

    sc, rt = scenario, runtime
    rng = np.random.default_rng(seed)
    detector = hz.SequentialDetector(rt.detector_config)
    n = rt.n
    stop_at = None
    ucb = sc.policy == "emcd_ucb"
    stats = RefUCBStats(n, sc.ucb_delta) if ucb else None
    mode = "ucb" if ucb else "round_robin"
    bettors = [rt.make_bettor(i) for i in range(n)]
    prev = [None] * n
    for t in range(1, sc.run_cap + 1):
        post = sc.nu is not None and t >= sc.nu
        tables = rt.sources[1] if post else rt.sources[0]
        idx = ref_select_index(mode, t, n, stats)
        lam = bettors[idx].step(prev[idx])
        table = tables[idx]
        outcome = float(table.values[int(np.searchsorted(table.cum, rng.random(), side="right"))])
        incr = 1.0 + lam * outcome
        if ucb:
            stats.record(idx, incr)
        row = [None] * n
        row[idx] = incr
        stopped = detector.advance(row)
        prev[idx] = outcome
        if stopped:
            stop_at = t
            break
    return _trial_result(sc, seed, run_index, stop_at)


def _trial_result(sc, seed, run_index, stop_at):
    from shadowcpd import harness as hz

    censored = stop_at is None
    stop_time = sc.run_cap if censored else stop_at
    return hz.TrialResult(
        run_index=run_index,
        seed=seed,
        stop_time=stop_time,
        censored=censored,
        false_alarm=sc.nu is not None and not censored and stop_time < sc.nu,
        delay=stop_time - sc.nu if sc.nu is not None and not censored
        and stop_time >= sc.nu else None,
        nu=sc.nu,
    )
