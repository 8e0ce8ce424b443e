"""Randomized measurements and single-snapshot estimators.

Two measurement ensembles are supported:

* ``local``: every qubit is measured in a uniformly random Pauli basis
  (Z, X or Y), realized by the per-qubit gates I, H and H S^dag;
* ``joint``: the whole register is rotated by a uniformly random d-qubit
  Clifford unitary before a computational-basis measurement.

An outcome (U, x) enters an estimate only through the measured state
U^dag |x>.  For the joint ensemble that is one ket psi, row x of conj(U);
for the local ensemble it is one Pauli eigenstate per qubit, named by the
code 2b + x of its basis b and outcome bit x.  One batched kernel,
``_estimates``, maps a stack of measured states to the single-shot
estimate Tr(O rho_hat) of every observable, where the snapshot rho_hat is
the inverse measurement channel applied to |psi><psi|:
(2^d + 1)|psi><psi| - I for the joint ensemble and the Kronecker product
of 3|psi_k><psi_k| - I over qubits for the local one.  Under the local
ensemble a product observable skips the snapshot: its estimate is the
product over qubits of the factors Tr(O_k (3|psi_k><psi_k| - I)).  Exact
enumeration passes every atom of the ensemble to the kernel; a direct
sampling step passes the one atom it drew.

The exact joint tables do not enumerate Cliffords.  A uniformly random
Clifford maps |x> back to a uniformly random one of the N_d stabilizer
states (N_d = 6, 60, 1080 at d = 1, 2, 3), so the joint outcome is that
state, drawn with probability 2^d / N_d <psi|rho|psi>.  ``stabilizer_bases``
lists the states in the affine/quadratic form of Dehaene and De Moor,
grouped into orthonormal bases that are measured like Clifford settings.

Joint Clifford elements are drawn by sampling the symplectic group
Sp(2d, 2) through the canonical transvection construction of Koenig and
Smolin, attaching uniform Pauli signs, and lifting the resulting stabilizer
tableau (Aaronson and Gottesman) to a dense unitary.  The lift is integer
Pauli-frame arithmetic: every entry is 0, +-v_r or +-i v_r with
v_r = 2^-r / sqrt(2^-r) and 2^r the support size of U|0...0>, so an entry
is a table lookup and carries the bits a floating-point projector lift
would compute exactly.  The stabilizer-state table takes its entries from
the same lookup, so a state gets the same estimate bits from the table as
from any Clifford that measures it.  Sp(2d, 2) is held in one form only,
its rows as bit-packed integers, and a tableau has one lift, ``_lift``.
``clifford_group`` applies that lift to every tableau at d <= 2 and stays
as the oracle that the folded stabilizer table is checked against.  The
construction is validated by the exact depolarizing-channel identity,
which this module can also evaluate by full enumeration for small
registers.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .qcore import (
    HADAMARD,
    MAX_QUBITS,
    PAULI_I,
    PHASE_S,
    bits_to_index,
    born_probabilities,
    born_sample,
    kron_all,
)

#: gate rotating each basis onto the computational one, index 0/1/2 = Z/X/Y
BASIS_GATES = (PAULI_I.copy(), HADAMARD.copy(), HADAMARD @ PHASE_S.conj().T)
#: per-qubit snapshot 3|psi><psi| - I of the Pauli eigenstate with code 2b + x,
#: psi = U_b^dag |x>, the row x of conj(U_b)
_LOCAL_SNAPSHOTS = np.array([3.0 * np.outer(ket, ket.conj()) - PAULI_I
                             for gate in BASIS_GATES for ket in gate.conj()])

MAX_LOCAL_QUBITS = MAX_QUBITS
MAX_JOINT_QUBITS = 6
#: largest register whose outcome tables are enumerated: 6^d local Pauli
#: eigenstate atoms, or N_d joint stabilizer states (1080 at d = 3)
MAX_ENUM = 3


# ---------------------------------------------------------------------------
# symplectic-group sampling over GF(2), interleaved (x1, z1, x2, z2, ...) order.
# Vectors live in bit-packed integers: bit 2k is the X part on qubit k and
# bit 2k+1 the Z part, so GF(2) addition is XOR.  With s = swap(k) exchanging
# the two bits of every pair of k, the symplectic form <k, v> is the parity
# of s & v, so a transvection v -> v + <k, v> k is one bit count.


def _find_transvection(y):
    """Pair of transvection directions mapping e1 = 1 to y (either may be zero)."""
    if y == 1:
        return 0, 0
    if y & 2:  # <1, y> = 1: one transvection by 1 + y
        return 1 ^ y, 0
    if y & 3:  # y has X on qubit 0, like e1: pass through Y there
        return 2, y ^ 3
    # e1 and y share no qubit: pass through Z on qubit 0 plus a Pauli that
    # anticommutes with y on its first nonidentity qubit
    i = ((y & -y).bit_length() - 1) >> 1
    p = (y >> (2 * i)) & 3
    z = 2 | ((2 if p == 3 else 3 - p) << (2 * i))
    return 1 ^ z, y ^ z


def _symplectic_rows_from_levels(levels):
    """Canonical symplectic matrix (rows as packed ints) from coordinates.

    ``levels`` holds one (k, bits) pair per recursion depth, outermost
    first; the level for register size m requires 1 <= k <= 4**m - 1 and
    0 <= bits < 2**(2m - 1).  Uniform coordinates give a uniform group
    element, and iterating all coordinates enumerates the group.  The
    levels are applied innermost first: each one prepends the pair (X, Z)
    of a new first qubit and transvects every row by its four directions.
    """
    even = (4 ** len(levels) - 1) // 3
    rows = []
    for m, (k, bits_int) in enumerate(reversed(levels), start=1):
        t0, t1 = _find_transvection(k)
        h0 = 1 | (((bits_int >> 1) << 2) & ((1 << (2 * m)) - 1))
        for t in (t0, t1):
            if ((((t & even) << 1) | ((t >> 1) & even)) & h0).bit_count() & 1:
                h0 ^= t
        rows = [1, 2] + [r << 2 for r in rows]
        for t in (t0, t1, h0, 0 if bits_int & 1 else k):
            if t:
                s = ((t & even) << 1) | ((t >> 1) & even)
                rows = [r ^ t if (s & r).bit_count() & 1 else r for r in rows]
    return rows


def _draw_levels(d, rng):
    return [(int(rng.integers(1, 4**m)), int(rng.integers(0, 1 << (2 * m - 1))))
            for m in range(d, 0, -1)]


def _enumerate_levels(d):
    return itertools.product(*(
        [(k, b) for k in range(1, 4**m) for b in range(1 << (2 * m - 1))]
        for m in range(d, 0, -1)))


# ---------------------------------------------------------------------------
# exact integer lift of a stabilizer tableau to a dense unitary.
# A Pauli frame (x, z, e) stands for i^e X^x Z^z with qubit q at bit d-1-q,
# acting as |m> -> i^e (-1)^popcount(z & m) |m ^ x>; the product
# (x1, z1, e1)(x2, z2, e2) is (x1 ^ x2, z1 ^ z2, e1 + e2 + 2 popcount(z1 & x2)).
# Every entry of a lifted unitary is 0 or i^p 2^-r / sqrt(2^-r), with 2^r the
# support size of the stabilizer state U|0>, so a lift is a lookup of an
# integer entry code in ``_LIFT_VALUES``.

#: entry code of a basis state outside the support of U|0>
_OFF = 9
#: _LIFT_VALUES[r, c] = i^c 2^-r / sqrt(2^-r) for c < _OFF, else 0; the
#: largest on-support code is 3 + 2 + 3
_LIFT_VALUES = np.array([
    [(complex(v, 0.0), complex(0.0, v), complex(-v, 0.0), complex(0.0, -v))[c % 4]
     for c in range(_OFF)] + [0j] * 6
    for v in (2.0**-r / math.sqrt(2.0**-r) for r in range(MAX_JOINT_QUBITS + 1))
])
#: 2 * parity of every index of the largest register
_PARITY2 = np.array([2 * (v.bit_count() & 1) for v in range(1 << MAX_JOINT_QUBITS)])


@functools.lru_cache(maxsize=None)
def _row_parts(d):
    """X and Z parts, qubit q at bit d-1-q, of every packed row."""
    rows, q = np.arange(4**d)[:, None], np.arange(d)
    xs = (((rows >> (2 * q)) & 1) << (d - 1 - q)).sum(axis=1)
    zs = (((rows >> (2 * q + 1)) & 1) << (d - 1 - q)).sum(axis=1)
    return xs.tolist(), zs.tolist()


def _frame(rows, signs, d):
    """Integer data of the Clifford lifted from one tableau.

    Row 2k of a tableau is the image of X_k, row 2k+1 the image of Z_k,
    with sign bits from ``signs``.  Returns (xc, zc, ec, psi, r): column c of
    the unitary is the frame (xc[c], zc[c], ec[c]), the product of the X
    images of the qubits set in c, applied to the stabilizer state U|0> of
    the Z images; that state has support size 2^r and is i^psi[m] 2^-r /
    sqrt(2^-r) at index m, with psi[m] = _OFF off the support.  Its global
    phase makes the entry at the smallest index of the support real and
    positive.
    """
    xs, zs = _row_parts(d)
    images = []
    for row, s in zip(rows, signs):
        x, z = xs[row], zs[row]
        images.append((x, z, (x & z).bit_count() + 2 * s))
    # eliminate the Z images on their X parts: pivots with distinct leading
    # bits, highest first, and diagonal stabilizers (-1)^rhs Z^z kept fully
    # reduced on their leading bits
    pivots, diag = [], []
    for x, z, e in images[1::2]:
        for lead, px, pz, pe in pivots:
            if x & lead:
                e += pe + 2 * (z & px).bit_count()
                x ^= px
                z ^= pz
        if x:
            pivots.append((1 << (x.bit_length() - 1), x, z, e))
            pivots.sort(reverse=True)
            continue
        rhs = (e >> 1) & 1
        for lead, dz, dr in diag:
            if z & lead:
                z ^= dz
                rhs ^= dr
        if not z:
            raise ValueError("tableau does not define a stabilizer state")
        lead = 1 << (z.bit_length() - 1)
        diag = [(ld, dz ^ z, dr ^ rhs) if dz & lead else (ld, dz, dr)
                for ld, dz, dr in diag] + [(lead, z, rhs)]
    # the support is {m : popcount(m & z) = rhs for each diagonal stabilizer};
    # reducing one solution on the pivots' leading bits gives its least index
    first = 0
    for lead, _, dr in diag:
        if dr:
            first |= lead
    for lead, px, _, _ in pivots:
        if first & lead:
            first ^= px
    # <first ^ x| psi> is the phase of the stabilizer (x, z, e) on |first>
    group = [(0, 0, 0)]
    for _, px, pz, pe in pivots:
        group += [(x ^ px, z ^ pz, e + pe + 2 * (z & px).bit_count()) for x, z, e in group]
    psi = [_OFF] * (1 << d)
    for x, z, e in group:
        psi[first ^ x] = (e + 2 * (first & z).bit_count()) & 3
    # columns by doubling: setting bit d-1-k applies the X image of qubit k
    xc, zc, ec = [0], [0], [0]
    for x, z, e in images[0::2]:
        nx, nz, ne = [], [], []
        for cx, cz, ce in zip(xc, zc, ec):
            nx += (cx, x ^ cx)
            nz += (cz, z ^ cz)
            ne += (ce, e + ce + 2 * (z & cx).bit_count())
        xc, zc, ec = nx, nz, ne
    return xc, zc, ec, psi, len(pivots)


def _lift_codes(xc, zc, ec, psi):
    """Entry codes of one lift from its frame, arrays of length dim.

    Entry [x, c] is <x| (xc, zc, ec)[c] |psi>: the phase of the column's
    frame on the basis state x ^ xc[c] plus psi there.
    """
    y = np.arange(len(xc))[:, None] ^ xc
    return (ec & 3) + _PARITY2[y & zc] + psi[y]


def _lift(rows, signs, d):
    """Dense unitary of one tableau, packed rows and sign bits as in ``_frame``."""
    xc, zc, ec, psi, r = _frame(rows, signs, d)
    return _LIFT_VALUES[r][_lift_codes(np.array(xc), np.array(zc), np.array(ec), np.array(psi))]


def sample_clifford_unitary(d, rng):
    """Uniformly random d-qubit Clifford unitary (up to global phase)."""
    rows = _symplectic_rows_from_levels(_draw_levels(d, rng))
    return _lift(rows, rng.integers(0, 2, size=2 * d).tolist(), d)


#: largest register whose full Clifford group ``clifford_group`` materializes
MAX_ENUM_JOINT = 2


@functools.lru_cache(maxsize=None)
def clifford_group(d):
    """All d-qubit Clifford unitaries mod phase (cached, read-only, fixed order).

    |Sp(2d, 2)| * 4**d matrices: 24 at d=1, 11520 at d=2.  Every tableau
    is lifted by ``_lift``: the symplectic elements in ``_enumerate_levels``
    order, each with the sign vectors of ``itertools.product((0, 1),
    repeat=2d)``.  Higher d is refused because the group size grows too
    fast to materialize.
    """
    if not 1 <= d <= MAX_ENUM_JOINT:
        raise ValueError(f"clifford_group supports 1 <= d <= {MAX_ENUM_JOINT}")
    tableaux = [_symplectic_rows_from_levels(levels) for levels in _enumerate_levels(d)]
    group = np.array([_lift(rows, signs, d) for rows in tableaux
                      for signs in itertools.product((0, 1), repeat=2 * d)])
    group.flags.writeable = False
    return group


def _subspace_spans(d, k):
    """Every k-dimensional subspace of GF(2)^d, once each, as its span list:
    entry y is the sum of the generators selected by the bits of y."""
    spans = {}
    for gens in itertools.combinations(range(1, 1 << d), k):
        span = [0]
        for g in gens:
            span += [s ^ g for s in span]
        key = frozenset(span)
        if len(key) == 1 << k:
            spans.setdefault(key, span)
    return list(spans.values())


@functools.lru_cache(maxsize=None)
def stabilizer_bases(d):
    """Every d-qubit stabilizer state mod phase, grouped into orthonormal bases.

    Returns a read-only stack of shape (N_d / 2^d, 2^d, 2^d): row x of basis
    j is the bra <psi|, so a basis is measured like a Clifford setting and
    row x of its conjugate is the measured ket.  A state with support on the
    coset x0 + V of a k-dimensional subspace V = span(g_1, ..., g_k) is
    2^-k/2 sum_y i^(c.y) (-1)^(q(y) + b.y) |x0 + sum_a y_a g_a> (Dehaene and
    De Moor), with c.y and b.y the integer dot products over y in GF(2)^k
    and q a sum of cross terms y_a y_b.  Each (V, q, c) gives one basis: its
    2^(d-k) cosets, each represented by its least element, times the 2^k
    sign vectors b.  Entries come from ``_LIFT_VALUES[k]``.
    """
    if not 1 <= d <= MAX_ENUM:
        raise ValueError(f"stabilizer_bases supports 1 <= d <= {MAX_ENUM}")
    bases = []
    for k in range(d + 1):
        bits = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
        dots = bits @ bits.T
        pairs = list(itertools.combinations(range(k), 2))
        cross = bits[:, [a for a, _ in pairs]] * bits[:, [b for _, b in pairs]]
        quads = ((np.arange(1 << len(pairs))[:, None] >> np.arange(len(pairs))) & 1) @ cross.T
        # phase code of <psi| at point y, axes (q, c, b, y): the conjugate of
        # i^(c.y) (-1)^(q(y) + b.y)
        bra = -(dots[None, :, None, :] + 2 * (quads[:, None, None, :] + dots[None, None])) & 3
        for span in _subspace_spans(d, k):
            reps = sorted({min(x ^ s for s in span) for x in range(1 << d)})
            codes = np.full(bra.shape[:2] + (len(reps), 1 << k, 1 << d), _OFF)
            for i, x0 in enumerate(reps):
                codes[:, :, i][..., np.bitwise_xor(x0, span)] = bra
            bases.append(_LIFT_VALUES[k][codes.reshape(-1, 1 << d, 1 << d)])
    out = np.concatenate(bases)
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# settings and the measured-state estimate kernel


def sample_setting(kind, d, rng):
    """Draw one measurement setting for a d-qubit register: an int array of
    basis labels (local) or a dense Clifford unitary (joint)."""
    if kind == "local":
        if not 1 <= d <= MAX_LOCAL_QUBITS:
            raise ValueError(f"local ensemble supports 1 <= d <= {MAX_LOCAL_QUBITS}")
        return rng.integers(0, 3, size=d)
    if kind == "joint":
        if not 1 <= d <= MAX_JOINT_QUBITS:
            raise ValueError(f"joint ensemble supports 1 <= d <= {MAX_JOINT_QUBITS}")
        return sample_clifford_unitary(d, rng)
    raise ValueError(f"unknown ensemble kind {kind!r}")


def setting_unitary(setting):
    """Materialize the dense rotation for a setting."""
    if setting.ndim == 1:
        return kron_all([BASIS_GATES[b] for b in setting])
    return setting


def _factor_table(obs):
    """Per-qubit estimate factors of a product observable, shape (d, 6), or None.

    Entry [k, 2b + x] is Tr(O_k (3 U_b^dag |x><x| U_b - I)); the local
    estimate is their product over qubits.  Built once per observable.
    """
    if obs.factors is None:
        return None
    table = getattr(obs, "_factor_table", None)
    if table is None:
        table = np.empty((obs.n_qubits, 3, 2))
        for k, f in enumerate(obs.factors):
            tr = float(np.trace(f).real)
            for b, gate in enumerate(BASIS_GATES):
                rot = gate @ f @ gate.conj().T
                for x in range(2):
                    table[k, b, x] = 3.0 * rot[x, x].real - tr
        table = obs._factor_table = table.reshape(obs.n_qubits, 6)
    return table


def _snapshots(kind, states):
    """Trace-checked snapshot matrix of every measured state, stacked."""
    if kind == "joint":
        dim = states.shape[1]
        snaps = ((dim + 1.0) * (states[:, :, None] * states.conj()[:, None, :])
                 - np.eye(dim, dtype=complex))
    else:
        # kron_all over qubits, one stacked np.kron per qubit
        n = len(states)
        snaps = np.ones((n, 1, 1), dtype=complex)
        for codes in states.T:
            m = 2 * snaps.shape[1]
            snaps = (snaps[:, :, None, :, None]
                     * _LOCAL_SNAPSHOTS[codes][:, None, :, None, :]).reshape(n, m, m)
    tr = np.trace(snaps, axis1=1, axis2=2)
    bad = np.abs(tr - 1.0) > 1e-8
    if bad.any():
        raise ValueError(f"snapshot trace {tr[bad][0]:.9g} differs from 1")
    return snaps


def _estimates(kind, states, observables):
    """Estimate of every observable at every measured state.

    ``states`` holds one measured state per row: a ket psi = U^dag |x> of
    length 2^d (joint) or one code 2b + x per qubit (local).  Returns shape
    (n_states, n_observables).  A local product observable takes the
    product of its factor table in qubit order; every other estimate is
    Tr(O rho_hat) against the stacked snapshots, built once per call.
    """
    out = np.empty((len(states), len(observables)))
    snaps = None
    for j, obs in enumerate(observables):
        table = _factor_table(obs) if kind == "local" else None
        if table is not None:
            # a running product keeps qubit order in every row
            factors = table[np.arange(len(table)), states]
            out[:, j] = np.multiply.accumulate(factors, axis=1)[:, -1]
        else:
            if snaps is None:
                snaps = _snapshots(kind, states)
            out[:, j] = np.trace(obs.mat @ snaps, axis1=1, axis2=2).real
    return out


# ---------------------------------------------------------------------------
# deterministic estimate ranges


def estimator_bounds(obs, kind, mode="analytic"):
    """(lower, upper) range of the single-shot estimate for one observable
    and ensemble, as a float pair.

    ``analytic`` uses closed-form bounds: +-3^{|support|} ||O||_inf for the
    local ensemble and (2^d + 1) eig_minmax(O) - Tr(O) for the joint one.
    ``exhaustive`` enumerates every outcome atom, (setting, outcome) pairs
    for the local ensemble and stabilizer states for the joint one, up to
    d = 3, and always yields a range contained in the analytic one.
    """
    if kind not in ("local", "joint"):
        raise ValueError(f"unknown ensemble kind {kind!r}")
    if mode == "analytic":
        if kind == "local":
            r = (3.0 ** len(obs.support)) * obs.op_norm
            return -r, r
        scale = obs.dim + 1.0
        return scale * obs.eigmin - obs.trace, scale * obs.eigmax - obs.trace
    if mode != "exhaustive":
        raise ValueError(f"unknown bounds mode {mode!r}")
    (bounds,) = value_range(outcome_values([obs], kind, obs.n_qubits))
    return bounds


def value_range(values):
    """(min, max) of each observable's column of an ``outcome_values`` table:
    the exhaustive estimate range, as float pairs."""
    return list(zip(values.min(axis=0).tolist(), values.max(axis=0).tolist()))


def resolve_bounds_mode(kind, d, mode):
    """The bounds mode that ``mode`` stands for on a d-qubit register:
    ``auto`` is exhaustive where the outcomes can be enumerated and analytic
    elsewhere; exhaustive bounds of a wider register raise ValueError."""
    enumerable = can_enumerate(kind, d)
    if mode == "auto":
        return "exhaustive" if enumerable else "analytic"
    if mode == "exhaustive" and not enumerable:
        raise ValueError(f"exhaustive bounds are not enumerable for ensemble={kind!r}, d={d}")
    return mode


def estimate_table(observables, kind, d, mode="auto"):
    """(values, ranges): the ``outcome_values`` table where the register can
    be enumerated, else None, and the (lower, upper) estimate range of each
    observable under the bounds ``mode``; exhaustive ranges are read off the
    table."""
    mode = resolve_bounds_mode(kind, d, mode)
    values = outcome_values(observables, kind, d) if can_enumerate(kind, d) else None
    if mode == "exhaustive":
        return values, value_range(values)
    return values, [estimator_bounds(o, kind, mode=mode) for o in observables]


# ---------------------------------------------------------------------------
# exact enumeration of the measurement distribution


def can_enumerate(kind, d):
    """Whether the (ensemble, width) outcome distribution is enumerable."""
    if kind not in ("local", "joint"):
        raise ValueError(f"unknown ensemble kind {kind!r}")
    return d <= MAX_ENUM


def _enumerated_bases(d):
    """Basis labels of every local setting, shape (3^d, d), enumeration order."""
    if d > MAX_ENUM:
        raise ValueError(f"enumeration supports local d <= {MAX_ENUM}")
    return np.array(list(itertools.product(range(3), repeat=d)))


def _setting_unitaries(kind, d):
    """Every setting's rotation, stacked in enumeration order: the 3^d local
    basis choices, or the joint ``stabilizer_bases``."""
    if kind == "joint":
        return stabilizer_bases(d)
    if kind == "local":
        return np.array([setting_unitary(bases) for bases in _enumerated_bases(d)])
    raise ValueError(f"unknown ensemble kind {kind!r}")


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
    if kind == "local":
        bases = _enumerated_bases(d)
        bits = (np.arange(1 << d)[:, None] >> np.arange(d - 1, -1, -1)) & 1
        states = (2 * bases[:, None, :] + bits).reshape(-1, d)
    else:
        states = _setting_unitaries(kind, d).conj().reshape(-1, 1 << d)
    return _estimates(kind, states, observables)


def outcome_probabilities(rho, kind):
    """Probability of every (setting, outcome) atom under state ``rho``."""
    unitaries = _setting_unitaries(kind, rho.n_qubits)
    return ((1.0 / len(unitaries)) * born_probabilities(rho, unitaries)).ravel()


def outcome_distribution(rho, observables, kind):
    """All (setting, outcome) atoms with probabilities and estimates.

    Returns (probs, values) where probs has one entry per atom and values
    has shape (n_atoms, n_observables).  Only enumerable configurations
    are supported (d <= 3): the local atoms are (setting, outcome) pairs,
    the joint ones the stabilizer states.
    """
    return (outcome_probabilities(rho, kind),
            outcome_values(observables, kind, rho.n_qubits))


def sample_estimates(rho, observables, kind, rng):
    """One measurement step: draw a setting, measure, estimate all observables."""
    setting = sample_setting(kind, rho.n_qubits, rng)
    bits = born_sample(rho, setting_unitary(setting), rng)
    if kind == "local":
        state = 2 * setting + bits
    else:
        state = setting[bits_to_index(bits)].conj()
    return _estimates(kind, state[None], observables)[0]


class DirectSampler:
    """Estimate rows of fresh shadow measurements of ``rho``, one per row;
    for registers whose outcomes are not enumerated."""

    def __init__(self, rho, observables, kind):
        self.rho = rho
        self.observables = observables
        self.kind = kind

    def draw(self, rng, count):
        return np.array([sample_estimates(self.rho, self.observables, self.kind, rng)
                         for _ in range(count)])
