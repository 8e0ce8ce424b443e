"""Randomized measurements and single-snapshot estimators.

Two measurement ensembles are supported:

* ``local``: every qubit is measured in a uniformly random Pauli basis
  (Z, X or Y), realized by the per-qubit gates I, H and H S^dag;
* ``joint``: the whole register is rotated by a uniformly random d-qubit
  Clifford unitary before a computational-basis measurement.

A measurement (U, x) yields the snapshot matrix obtained by applying the
inverse of the measurement channel to U^dag |x><x| U.  For the local
ensemble the inverse factorizes into 3 U_k^dag |x_k><x_k| U_k - I per
qubit; for the joint ensemble it is (2^d + 1) U^dag |x><x| U - I.  Traces
of observables against the snapshot give unbiased single-shot estimates.

Joint Clifford elements are drawn by sampling the symplectic group
Sp(2d, 2) through the canonical transvection construction of Koenig and
Smolin, attaching uniform Pauli signs, and lifting the resulting tableau
to a dense unitary.  The construction is validated by the exact
depolarizing-channel identity, which this module can also evaluate by
full enumeration for small registers.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .qcore import (
    DensityMatrix,
    HADAMARD,
    Observable,
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PHASE_S,
    bits_to_index,
    born_probabilities,
    born_sample,
    kron_all,
)

#: basis labels for the local ensemble, index 0/1/2 = Z/X/Y
BASIS_LETTERS = "ZXY"
#: gate rotating each basis onto the computational one
BASIS_GATES = (PAULI_I.copy(), HADAMARD.copy(), HADAMARD @ PHASE_S.conj().T)

MAX_LOCAL_QUBITS = 10
MAX_JOINT_QUBITS = 6
#: largest register for which settings x outcomes enumeration is practical
MAX_ENUM_LOCAL = 3


@dataclass
class MeasurementSetting:
    """One sampled measurement configuration."""

    kind: str
    local_bases: np.ndarray | None = None
    joint_unitary: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("local", "joint"):
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if self.kind == "local":
            if self.local_bases is None or self.joint_unitary is not None:
                raise ValueError("local setting must carry basis labels only")
            self.local_bases = np.asarray(self.local_bases, dtype=np.int64)
            if self.local_bases.ndim != 1 or not np.all((0 <= self.local_bases) & (self.local_bases < 3)):
                raise ValueError("basis labels must be a vector over {0, 1, 2}")
        else:
            if self.joint_unitary is None or self.local_bases is not None:
                raise ValueError("joint setting must carry a unitary only")

    @property
    def d(self):
        if self.kind == "local":
            return int(self.local_bases.size)
        return int(self.joint_unitary.shape[0]).bit_length() - 1


@dataclass
class ShadowEstimate:
    """Snapshot matrix produced by the inverse measurement channel."""

    mat: np.ndarray

    def __post_init__(self):
        tr = complex(np.trace(self.mat))
        if abs(tr - 1.0) > 1e-8:
            raise ValueError(f"snapshot trace {tr:.9g} differs from 1")


@dataclass(frozen=True)
class EstimatorBounds:
    """Deterministic range [lower, upper] of the single-shot estimate."""

    lower: float
    upper: float
    mode: str

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError(f"degenerate bounds ({self.lower}, {self.upper})")


# ---------------------------------------------------------------------------
# symplectic-group sampling over GF(2), interleaved (x1, z1, x2, z2, ...) order.
# Vectors live in bit-packed integers: bit 2k is the X part on qubit k and
# bit 2k+1 the Z part, so GF(2) addition is XOR.


@functools.lru_cache(maxsize=None)
def _even_mask(nn):
    m = 0
    for j in range(0, nn, 2):
        m |= 1 << j
    return m


def _symp_inner(v, w, nn):
    even = _even_mask(nn)
    t = (((v & even) << 1) & w).bit_count()
    t += (((v >> 1) & even) & w).bit_count()
    return t & 1


def _transvect(k, v, nn):
    if k == 0:
        return v
    return v ^ k if _symp_inner(k, v, nn) else v


def _pair(v, i):
    return (v >> (2 * i)) & 3


def _find_transvection(x, y, nn):
    # pair of transvection directions mapping x to y (either may be zero)
    if x == y:
        return 0, 0
    if _symp_inner(x, y, nn) == 1:
        return x ^ y, 0
    n = nn // 2
    # a position where both vectors have support
    for i in range(n):
        px, py = _pair(x, i), _pair(y, i)
        if px != 0 and py != 0:
            z = px ^ py
            if z == 0:
                z = 2
                if (px & 1) != ((px >> 1) & 1):
                    z = 3
            z <<= 2 * i
            return x ^ z, y ^ z
    # otherwise one contribution pairing with x, one pairing with y
    z = 0
    for i in range(n):
        px, py = _pair(x, i), _pair(y, i)
        if px != 0 and py == 0:
            if (px & 1) == ((px >> 1) & 1):
                z |= 2 << (2 * i)
            else:
                z |= (((px & 1) << 1) | ((px >> 1) & 1)) << (2 * i)
            break
    for i in range(n):
        px, py = _pair(x, i), _pair(y, i)
        if px == 0 and py != 0:
            if (py & 1) == ((py >> 1) & 1):
                z |= 2 << (2 * i)
            else:
                z |= (((py & 1) << 1) | ((py >> 1) & 1)) << (2 * i)
            break
    return x ^ z, y ^ z


def _symplectic_rows_from_levels(levels):
    """Canonical symplectic matrix (rows as packed ints) from coordinates.

    ``levels`` holds one (k, bits) pair per recursion depth, outermost
    first; the level for register size m requires 1 <= k <= 4**m - 1 and
    0 <= bits < 2**(2m - 1).  Uniform coordinates give a uniform group
    element, and iterating all coordinates enumerates the group.
    """
    k, bits_int = levels[0]
    n = len(levels)
    nn = 2 * n
    f1 = k
    t0, t1 = _find_transvection(1, f1, nn)
    mask = (1 << nn) - 1
    eprime = 1 | (((bits_int >> 1) << 2) & mask)
    h0 = _transvect(t0, eprime, nn)
    h0 = _transvect(t1, h0, nn)
    if bits_int & 1:
        f1 = 0
    if n == 1:
        rows = [1, 2]
    else:
        inner = _symplectic_rows_from_levels(levels[1:])
        rows = [1, 2] + [r << 2 for r in inner]
    out = []
    for row in rows:
        row = _transvect(t0, row, nn)
        row = _transvect(t1, row, nn)
        row = _transvect(h0, row, nn)
        row = _transvect(f1, row, nn)
        out.append(row)
    return out


def _rows_to_matrix(rows, nn):
    # bit b of packed row j becomes entry [j, b]
    return (np.array(rows, dtype=np.int64)[:, None] >> np.arange(nn)) & 1


def _symplectic_from_levels(levels):
    nn = 2 * len(levels)
    return _rows_to_matrix(_symplectic_rows_from_levels(levels), nn)


def sample_symplectic(d, rng):
    """Uniformly random element of Sp(2d, 2), rows are generator images."""
    levels = []
    for m in range(d, 0, -1):
        k = int(rng.integers(1, 4**m))
        bits = int(rng.integers(0, 1 << (2 * m - 1)))
        levels.append((k, bits))
    return _symplectic_from_levels(levels)


def enumerate_symplectic(d):
    """Iterate every element of Sp(2d, 2); practical for d <= 2."""
    ranges = []
    for m in range(d, 0, -1):
        ranges.append(
            [(k, b) for k in range(1, 4**m) for b in range(1 << (2 * m - 1))]
        )
    for combo in itertools.product(*ranges):
        yield _symplectic_from_levels(list(combo))


_VEC_PAULI = {(0, 0): PAULI_I, (1, 0): PAULI_X, (0, 1): PAULI_Z, (1, 1): PAULI_Y}


def _pauli_from_vec(vec, sign_bit):
    d = vec.size // 2
    mats = [_VEC_PAULI[(int(vec[2 * k]), int(vec[2 * k + 1]))] for k in range(d)]
    out = kron_all(mats)
    return -out if sign_bit else out


#: i^n, the phase of a Pauli with n Y factors (Y = iXZ), up to the largest register
_I_POWERS = np.array([1j**n for n in range(MAX_JOINT_QUBITS + 1)])


def clifford_unitaries(symps, signs):
    """Dense unitaries realizing a stack of stabilizer tableaux.

    ``symps`` has shape (n, 2d, 2d) and ``signs`` shape (n, 2d).  Row 2k of
    a tableau is the image of X_k, row 2k+1 the image of Z_k, with sign bits
    from ``signs``.  Each image P acts as a signed permutation of the basis,
    P|m> = phase * (-1)^popcount(zm & m) |m ^ xm> with qubit q at index bit
    d-1-q.  The image of |0...0> is the first nonzero column of the
    stabilizer projector, the product of (I + g)/2 over the Z images,
    normalized; the remaining columns follow by doubling over the X images.
    Returns shape (n, 2^d, 2^d); global phase is arbitrary.
    """
    symps = np.asarray(symps)
    signs = np.asarray(signs)
    n, nn = symps.shape[:2]
    d = nn // 2
    dim = 1 << d
    batch = np.arange(n)
    rows = batch[:, None]
    idx = np.arange(dim)
    place = 1 << np.arange(d - 1, -1, -1)
    xm = symps[:, :, 0::2] @ place
    zm = symps[:, :, 1::2] @ place
    phase = _I_POWERS[np.bitwise_count(xm & zm)]
    phase = np.where(signs == 1, -phase, phase)[:, :, None, None]
    flips = (1.0 - 2.0 * (np.bitwise_count(idx & zm[:, :, None]) & 1))[:, :, :, None]
    perm = idx ^ xm[:, :, None]

    def apply(g, vecs):
        # image of generator row g on the stacked column vectors
        return phase[:, g] * (flips[:, g] * vecs)[rows, perm[:, g]]

    proj = np.eye(dim, dtype=complex)
    for k in range(d):
        proj = (proj + apply(2 * k + 1, proj)) * 0.5
    norms = np.sqrt((proj.real**2 + proj.imag**2).sum(axis=1))
    nonzero = norms > 1e-6
    if not nonzero.any(axis=1).all():
        raise ValueError("tableau does not define a stabilizer state")
    first = nonzero.argmax(axis=1)
    out = np.empty((n, dim, dim), dtype=complex)
    out[:, :, 0] = proj[batch, :, first] / norms[batch, first][:, None]
    for k in range(d):
        # columns indexed by the top k bits alone are filled; X_k sets bit d-1-k
        split = out.reshape(n, dim, 1 << k, 2, dim >> (k + 1))
        split[:, :, :, 1, 0] = apply(2 * k, split[:, :, :, 0, 0])
    return out


def sample_clifford_unitary(d, rng):
    """Uniformly random d-qubit Clifford unitary (up to global phase)."""
    symp = sample_symplectic(d, rng)
    signs = rng.integers(0, 2, size=2 * d)
    return clifford_unitaries(symp[None], signs[None])[0]


MAX_ENUM_JOINT = 2

_CLIFFORD_GROUPS = {}


def clifford_group(d):
    """All d-qubit Clifford unitaries mod phase (cached, fixed order).

    |Sp(2d, 2)| * 4**d matrices: 24 at d=1, 11520 at d=2.  Higher d is
    refused because the group size grows too fast to materialize.
    """
    if not 1 <= d <= MAX_ENUM_JOINT:
        raise ValueError(f"clifford_group supports 1 <= d <= {MAX_ENUM_JOINT}")
    if d not in _CLIFFORD_GROUPS:
        symps = np.array(list(enumerate_symplectic(d)))
        signs = np.array(list(itertools.product((0, 1), repeat=2 * d)))
        group = clifford_unitaries(np.repeat(symps, len(signs), axis=0),
                                   np.tile(signs, (len(symps), 1)))
        group.flags.writeable = False
        _CLIFFORD_GROUPS[d] = group
    return _CLIFFORD_GROUPS[d]


# ---------------------------------------------------------------------------
# settings, snapshots and estimates


def sample_setting(kind, d, rng):
    """Draw one measurement setting for a d-qubit register."""
    if kind == "local":
        if not 1 <= d <= MAX_LOCAL_QUBITS:
            raise ValueError(f"local ensemble supports 1 <= d <= {MAX_LOCAL_QUBITS}")
        return MeasurementSetting(kind="local", local_bases=rng.integers(0, 3, size=d))
    if kind == "joint":
        if not 1 <= d <= MAX_JOINT_QUBITS:
            raise ValueError(f"joint ensemble supports 1 <= d <= {MAX_JOINT_QUBITS}")
        return MeasurementSetting(kind="joint", joint_unitary=sample_clifford_unitary(d, rng))
    raise ValueError(f"unknown ensemble kind {kind!r}")


def setting_unitary(setting):
    """Materialize the dense rotation for a setting."""
    if setting.kind == "local":
        return kron_all([BASIS_GATES[b] for b in setting.local_bases])
    return setting.joint_unitary


def shadow_estimate(setting, bits):
    """Snapshot matrix for outcome ``bits`` under ``setting``."""
    bits = np.asarray(bits, dtype=np.int64)
    d = setting.d
    if bits.shape != (d,) or not np.all((bits == 0) | (bits == 1)):
        raise ValueError(f"outcome must be {d} bits")
    if setting.kind == "local":
        factors = []
        for k in range(d):
            u = BASIS_GATES[setting.local_bases[k]]
            ket = u.conj().T[:, bits[k]]
            factors.append(3.0 * np.outer(ket, ket.conj()) - PAULI_I)
        return ShadowEstimate(mat=kron_all(factors))
    u = setting.joint_unitary
    dim = u.shape[0]
    psi = u.conj().T[:, bits_to_index(bits)]
    mat = (dim + 1.0) * np.outer(psi, psi.conj()) - np.eye(dim, dtype=complex)
    return ShadowEstimate(mat=mat)


def estimate_observable(shadow, obs):
    """Single-shot estimate Tr(O rho_hat) from a snapshot."""
    omat = obs.mat if isinstance(obs, Observable) else np.asarray(obs, dtype=complex)
    if shadow.mat.shape != omat.shape:
        raise ValueError(f"dimension mismatch {shadow.mat.shape} vs {omat.shape}")
    return float(np.trace(omat @ shadow.mat).real)


def local_factor_table(obs):
    """Per-qubit estimate factors, shape (d, 3, 2), for product observables.

    Entry [k, b, x] is Tr(O_k (3 U_b^dag |x><x| U_b - I)); the full estimate
    under a local setting is the product over qubits.  Only available when
    the observable carries a tensor-product factorization.
    """
    if obs.factors is None:
        return None
    cached = getattr(obs, "_factor_table", None)
    if cached is not None:
        return cached
    d = obs.n_qubits
    table = np.empty((d, 3, 2))
    for k in range(d):
        f = obs.factors[k]
        tr = float(np.trace(f).real)
        for b in range(3):
            rot = BASIS_GATES[b] @ f @ BASIS_GATES[b].conj().T
            for x in range(2):
                table[k, b, x] = 3.0 * rot[x, x].real - tr
    obs._factor_table = table
    return table


def estimate_from_setting(setting, bits, obs):
    """Estimate without materializing the snapshot when a fast path exists."""
    bits = np.asarray(bits, dtype=np.int64)
    if setting.kind == "local":
        table = local_factor_table(obs)
        if table is not None:
            val = 1.0
            for k in range(setting.d):
                val *= table[k, setting.local_bases[k], bits[k]]
            return val
    return estimate_observable(shadow_estimate(setting, bits), obs)


# ---------------------------------------------------------------------------
# deterministic estimate ranges


def estimator_bounds(obs, kind, mode="analytic"):
    """Range of the single-shot estimate for one observable and ensemble.

    ``analytic`` uses closed-form bounds: +-3^{|support|} ||O||_inf for the
    local ensemble and (2^d + 1) eig_minmax(O) - Tr(O) for the joint one.
    ``exhaustive`` enumerates every (setting, outcome) pair, which is
    supported for the local ensemble up to d = 3 and the joint ensemble up
    to d = 2, and always yields a range contained in the analytic one.
    """
    if kind not in ("local", "joint"):
        raise ValueError(f"unknown ensemble kind {kind!r}")
    if mode == "analytic":
        if kind == "local":
            r = (3.0 ** len(obs.support)) * obs.op_norm
            return EstimatorBounds(lower=-r, upper=r, mode=mode)
        dim = obs.dim
        return EstimatorBounds(
            lower=(dim + 1.0) * obs.eigmin - obs.trace,
            upper=(dim + 1.0) * obs.eigmax - obs.trace,
            mode=mode,
        )
    if mode != "exhaustive":
        raise ValueError(f"unknown bounds mode {mode!r}")
    (lower, upper), = value_range(outcome_values([obs], kind, obs.n_qubits))
    return EstimatorBounds(lower=lower, upper=upper, mode=mode)


def value_range(values):
    """(min, max) of each observable's column of an ``outcome_values`` table:
    the exhaustive estimate range, as float pairs."""
    return list(zip(values.min(axis=0).tolist(), values.max(axis=0).tolist()))


# ---------------------------------------------------------------------------
# exact enumeration of the measurement distribution


def can_enumerate(kind, d):
    """Whether the (ensemble, width) outcome distribution is enumerable."""
    if kind == "local":
        return d <= MAX_ENUM_LOCAL
    if kind == "joint":
        return d <= MAX_ENUM_JOINT
    raise ValueError(f"unknown ensemble kind {kind!r}")


def _iter_settings(kind, d):
    if kind == "local":
        if d > MAX_ENUM_LOCAL:
            raise ValueError(f"enumeration supports local d <= {MAX_ENUM_LOCAL}")
        n_settings = 3**d
        for bases in itertools.product(range(3), repeat=d):
            yield MeasurementSetting(kind="local", local_bases=np.array(bases)), 1.0 / n_settings
    elif kind == "joint":
        if d > MAX_ENUM_JOINT:
            raise ValueError(f"enumeration supports joint d <= {MAX_ENUM_JOINT}")
        group = clifford_group(d)
        for u in group:
            yield MeasurementSetting(kind="joint", joint_unitary=u), 1.0 / len(group)
    else:
        raise ValueError(f"unknown ensemble kind {kind!r}")


def _setting_unitaries(kind, d):
    """Every setting's rotation, stacked in enumeration order."""
    if kind == "joint":
        return clifford_group(d)
    return np.array([setting_unitary(setting) for setting, _ in _iter_settings(kind, d)])


def exact_channel_apply(rho, kind):
    """Exact measurement channel E[U^dag |X><X| U] by full enumeration."""
    # row x of conj(U) is the measured ket U^dag |x>, one row per atom
    kets = _setting_unitaries(kind, rho.n_qubits).conj().reshape(-1, rho.dim)
    return (kets.T * outcome_probabilities(rho, kind)) @ kets.conj()


def outcome_values(observables, kind, d):
    """Estimate of every observable at every (setting, outcome) atom.

    Returns shape (n_atoms, n_observables), atoms in the order of
    ``outcome_probabilities``.  An estimate depends on the atom and the
    observable only, so one table serves every state of the register.
    """
    if kind == "joint":
        # stacked snapshots (2^d + 1)|psi><psi| - I of every measured ket
        dim = 1 << d
        kets = _setting_unitaries(kind, d).conj().reshape(-1, dim)
        snaps = ((dim + 1.0) * (kets[:, :, None] * kets.conj()[:, None, :])
                 - np.eye(dim, dtype=complex))
        return np.stack([np.trace(o.mat @ snaps, axis1=1, axis2=2).real for o in observables],
                        axis=1)
    values = []
    for setting, _ in _iter_settings(kind, d):
        for idx in range(1 << d):
            bits = np.array([(idx >> (d - 1 - k)) & 1 for k in range(d)], dtype=np.int64)
            values.append([estimate_from_setting(setting, bits, o) for o in observables])
    return np.array(values)


def outcome_probabilities(rho, kind):
    """Probability of every (setting, outcome) atom under state ``rho``."""
    unitaries = _setting_unitaries(kind, rho.n_qubits)
    return ((1.0 / len(unitaries)) * born_probabilities(rho, unitaries)).ravel()


def outcome_distribution(rho, observables, kind):
    """All (setting, outcome) atoms with probabilities and estimates.

    Returns (probs, values) where probs has one entry per atom and values
    has shape (n_atoms, n_observables).  Only enumerable configurations
    are supported (local with d <= 3, joint with d <= 2).
    """
    return (outcome_probabilities(rho, kind),
            outcome_values(observables, kind, rho.n_qubits))


def sample_estimates(rho, observables, kind, rng):
    """One measurement step: draw a setting, measure, estimate all observables."""
    setting = sample_setting(kind, rho.n_qubits, rng)
    u = setting_unitary(setting)
    bits = born_sample(rho, u, rng)
    return np.array([estimate_from_setting(setting, bits, o) for o in observables])
