"""Symplectic sampling, Clifford tableau lift, snapshots and estimator bounds."""

import itertools
import math

import numpy as np
import pytest

from conftest import (
    random_density,
    random_pauli_letters,
    ref_estimate_from_setting,
    ref_estimate_observable,
    ref_fold_index,
    ref_iter_settings,
    ref_shadow_estimate,
    ref_state_key,
)
from shadowcpd import qcore as qc
from shadowcpd import shadows as sh


def symplectic_form(d):
    # interleaved (x1, z1, x2, z2, ...) pairing
    j = np.zeros((2 * d, 2 * d), dtype=np.int64)
    for k in range(d):
        j[2 * k, 2 * k + 1] = 1
        j[2 * k + 1, 2 * k] = 1
    return j


def is_symplectic(g, d):
    j = symplectic_form(d)
    return np.array_equal((g @ j @ g.T) % 2, j)


def depolarize_one_qubit(mat, k, d):
    """Independent oracle for the single-qubit shadow channel on qubit k.

    rho -> (rho + I_k tensor tr_k rho) / 3, written with axis reshapes so it
    shares no code with the implementation under test.
    """
    a, b = 2**k, 2 ** (d - k - 1)
    t = mat.reshape(a, 2, b, a, 2, b)
    partial = np.trace(t, axis1=1, axis2=4)  # shape (a, b, a, b)
    lifted = np.einsum("ij,akbl->aikbjl", np.eye(2), partial).reshape(mat.shape)
    return (mat + lifted) / 3.0


# ---------------------------------------------------------------------------
# symplectic layer


def bit_loop_matrix(rows, nn):
    # entry [j, b] is bit b of packed row j, one bit at a time
    g = np.zeros((nn, nn), dtype=np.int64)
    for j, row in enumerate(rows):
        for b in range(nn):
            g[j, b] = (row >> b) & 1
    return g


def enumerated_rows(d):
    return [sh._symplectic_rows_from_levels(levels) for levels in sh._enumerate_levels(d)]


def sampled_rows(d, rng):
    return sh._symplectic_rows_from_levels(sh._draw_levels(d, rng))


def test_symplectic_enumeration_sizes():
    assert len(enumerated_rows(1)) == 6
    assert len(enumerated_rows(2)) == 720


def test_symplectic_elements_distinct_and_valid():
    for d in (1, 2):
        seen = set()
        for rows in enumerated_rows(d):
            assert is_symplectic(bit_loop_matrix(rows, 2 * d), d)
            seen.add(tuple(rows))
        assert len(seen) == (6, 720)[d - 1]


def test_sample_symplectic_hits_whole_group_at_d1():
    rng = np.random.default_rng(0)
    seen = {tuple(sampled_rows(1, rng)) for _ in range(200)}
    assert len(seen) == 6


def test_sample_symplectic_valid_at_larger_d():
    rng = np.random.default_rng(1)
    for d in (2, 3, 4):
        for _ in range(10):
            assert is_symplectic(bit_loop_matrix(sampled_rows(d, rng), 2 * d), d)


# ---------------------------------------------------------------------------
# reference implementations: the recursive transvection sampler and the
# floating-point projector lift, kept as plain oracles for the integer code


def ref_symp_inner(v, w, nn):
    even = sum(1 << j for j in range(0, nn, 2))
    t = (((v & even) << 1) & w).bit_count()
    t += (((v >> 1) & even) & w).bit_count()
    return t & 1


def ref_transvect(k, v, nn):
    if k == 0:
        return v
    return v ^ k if ref_symp_inner(k, v, nn) else v


def ref_find_transvection(x, y, nn):
    # pair of transvection directions mapping x to y (either may be zero)
    def pair(v, i):
        return (v >> (2 * i)) & 3

    if x == y:
        return 0, 0
    if ref_symp_inner(x, y, nn) == 1:
        return x ^ y, 0
    n = nn // 2
    for i in range(n):
        px, py = pair(x, i), pair(y, i)
        if px != 0 and py != 0:
            z = px ^ py
            if z == 0:
                z = 2
                if (px & 1) != ((px >> 1) & 1):
                    z = 3
            z <<= 2 * i
            return x ^ z, y ^ z
    z = 0
    for i in range(n):
        px, py = pair(x, i), pair(y, i)
        if px != 0 and py == 0:
            if (px & 1) == ((px >> 1) & 1):
                z |= 2 << (2 * i)
            else:
                z |= (((px & 1) << 1) | ((px >> 1) & 1)) << (2 * i)
            break
    for i in range(n):
        px, py = pair(x, i), pair(y, i)
        if px == 0 and py != 0:
            if (py & 1) == ((py >> 1) & 1):
                z |= 2 << (2 * i)
            else:
                z |= (((py & 1) << 1) | ((py >> 1) & 1)) << (2 * i)
            break
    return x ^ z, y ^ z


def ref_symplectic_rows_from_levels(levels):
    k, bits_int = levels[0]
    n = len(levels)
    nn = 2 * n
    f1 = k
    t0, t1 = ref_find_transvection(1, f1, nn)
    mask = (1 << nn) - 1
    eprime = 1 | (((bits_int >> 1) << 2) & mask)
    h0 = ref_transvect(t0, eprime, nn)
    h0 = ref_transvect(t1, h0, nn)
    if bits_int & 1:
        f1 = 0
    if n == 1:
        rows = [1, 2]
    else:
        inner = ref_symplectic_rows_from_levels(levels[1:])
        rows = [1, 2] + [r << 2 for r in inner]
    out = []
    for row in rows:
        row = ref_transvect(t0, row, nn)
        row = ref_transvect(t1, row, nn)
        row = ref_transvect(h0, row, nn)
        row = ref_transvect(f1, row, nn)
        out.append(row)
    return out


def ref_clifford_unitaries(symps, signs):
    """Dense unitaries of a stack of tableaux through the stabilizer projector.

    The image of |0...0> is the first nonzero column of the product of
    (I + g)/2 over the Z images, normalized; the remaining columns follow
    by doubling over the X images.
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
    phase = np.array([1j**k for k in range(d + 1)])[np.bitwise_count(xm & zm)]
    phase = np.where(signs == 1, -phase, phase)[:, :, None, None]
    flips = (1.0 - 2.0 * (np.bitwise_count(idx & zm[:, :, None]) & 1))[:, :, :, None]
    perm = idx ^ xm[:, :, None]

    def apply(g, vecs):
        return phase[:, g] * (flips[:, g] * vecs)[rows, perm[:, g]]

    proj = np.eye(dim, dtype=complex)
    for k in range(d):
        proj = (proj + apply(2 * k + 1, proj)) * 0.5
    norms = np.sqrt((proj.real**2 + proj.imag**2).sum(axis=1))
    nonzero = norms > 1e-6
    assert nonzero.any(axis=1).all()
    first = nonzero.argmax(axis=1)
    out = np.empty((n, dim, dim), dtype=complex)
    out[:, :, 0] = proj[batch, :, first] / norms[batch, first][:, None]
    for k in range(d):
        split = out.reshape(n, dim, 1 << k, 2, dim >> (k + 1))
        split[:, :, :, 1, 0] = apply(2 * k, split[:, :, :, 0, 0])
    return out


#: seeded tableaux per register size in the oracle comparisons
ORACLE_DRAWS = {1: 2000, 2: 2000, 3: 2000, 4: 2000, 5: 300, 6: 300}


def test_symplectic_rows_match_recursive_reference():
    for d, n in ORACLE_DRAWS.items():
        rng = np.random.default_rng(100 + d)
        for _ in range(n):
            levels = [(int(rng.integers(1, 4**m)), int(rng.integers(0, 1 << (2 * m - 1))))
                      for m in range(d, 0, -1)]
            assert sh._symplectic_rows_from_levels(levels) == \
                ref_symplectic_rows_from_levels(levels)
    for d in (1, 2):
        ranges = [[(k, b) for k in range(1, 4**m) for b in range(1 << (2 * m - 1))]
                  for m in range(d, 0, -1)]
        for combo in itertools.product(*ranges):
            assert sh._symplectic_rows_from_levels(list(combo)) == \
                ref_symplectic_rows_from_levels(list(combo))


def test_sampled_unitaries_match_float_reference():
    # same unitaries and the same number of draws as the recursive sampler
    # followed by the float projector lift
    for d, n in ORACLE_DRAWS.items():
        draw, replay = np.random.default_rng(200 + d), np.random.default_rng(200 + d)
        got = np.array([sh.sample_clifford_unitary(d, draw) for _ in range(n)])
        symps, signs = [], []
        for _ in range(n):
            levels = [(int(replay.integers(1, 4**m)), int(replay.integers(0, 1 << (2 * m - 1))))
                      for m in range(d, 0, -1)]
            symps.append(bit_loop_matrix(ref_symplectic_rows_from_levels(levels), 2 * d))
            signs.append(replay.integers(0, 2, size=2 * d))
        want = ref_clifford_unitaries(np.array(symps), np.array(signs))
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert draw.random() == replay.random()


def test_clifford_group_matches_float_reference():
    for d in (1, 2):
        symps = np.array([bit_loop_matrix(rows, 2 * d) for rows in enumerated_rows(d)])
        signs = np.array(list(itertools.product((0, 1), repeat=2 * d)))
        want = ref_clifford_unitaries(np.repeat(symps, len(signs), axis=0),
                                      np.tile(signs, (len(symps), 1)))
        group = sh.clifford_group(d)
        assert group.dtype == want.dtype and np.array_equal(group, want)


# ---------------------------------------------------------------------------
# tableau lift


def test_clifford_group_sizes_and_unitarity():
    g1 = sh.clifford_group(1)
    assert len(g1) == 24
    for u in g1:
        assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-10)
    g2 = sh.clifford_group(2)
    assert len(g2) == 11520
    rng = np.random.default_rng(4)
    for i in rng.integers(0, len(g2), size=40):
        u = g2[int(i)]
        assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-10)


def test_clifford_group_distinct_mod_phase():
    def canon(u):
        flat = u.ravel()
        piv = flat[np.argmax(np.abs(flat) > 1e-9)]
        return tuple(np.round(flat / piv * (abs(piv)), 6))

    keys = {canon(u) for u in sh.clifford_group(1)}
    assert len(keys) == 24


def test_clifford_group_rejects_large_d():
    with pytest.raises(ValueError):
        sh.clifford_group(3)


def test_lifted_unitaries_permute_paulis():
    # a Clifford must map each Pauli to a signed Pauli; check U P U^dag for
    # sampled tableaus against the tableau's own row prescription
    rng = np.random.default_rng(9)
    for d in range(1, 7):
        for _ in range(3):
            rows = sampled_rows(d, rng)
            sign = rng.integers(0, 2, size=2 * d)
            u = sh._lift(rows, sign.tolist(), d)
            for k in range(d):
                for row, letter in ((2 * k, "X"), (2 * k + 1, "Z")):
                    letters = ["I"] * d
                    letters[k] = letter
                    src = qc.pauli_string("".join(letters)).mat
                    image = u @ src @ u.conj().T
                    # packed row: bit 2j is the X part on qubit j, bit 2j+1 the Z part
                    image_letters = "".join("IXZY"[(rows[row] >> (2 * j)) & 3] for j in range(d))
                    want = (-1) ** sign[row] * qc.pauli_string(image_letters).mat
                    assert np.allclose(image, want, atol=1e-9)


def test_lift_rejects_tableau_without_stabilizer_state():
    # packed rows X_0, Z_0, X_1, Z_0: both Z images equal Z_0, so they fix
    # no single state
    rows = [1, 2, 4, 2]
    with pytest.raises(ValueError, match="stabilizer state"):
        sh._lift(rows, [0, 0, 0, 0], 2)
    # Z_0 and -Z_0 would fix nothing at all
    with pytest.raises(ValueError, match="stabilizer state"):
        sh._lift(rows, [0, 0, 0, 1], 2)


def test_sample_clifford_unitary_is_unitary():
    rng = np.random.default_rng(12)
    for d in (1, 2, 3):
        u = sh.sample_clifford_unitary(d, rng)
        assert np.allclose(u @ u.conj().T, np.eye(2**d), atol=1e-9)


# ---------------------------------------------------------------------------
# measurement channel


def test_joint_channel_is_depolarizing():
    rng = np.random.default_rng(21)
    for d in (1, 2, 3, 3):  # two states at d = 3
        rho = qc.DensityMatrix(random_density(rng, d))
        out = sh.exact_channel_apply(rho, "joint")
        want = (rho.mat + np.eye(2**d)) / (2**d + 1.0)
        assert np.abs(out - want).max() <= 1e-14


def test_local_channel_matches_per_qubit_oracle():
    rng = np.random.default_rng(22)
    for d in (1, 2):
        rho = qc.DensityMatrix(random_density(rng, d))
        want = rho.mat.copy()
        for k in range(d):
            want = depolarize_one_qubit(want, k, d)
        out = sh.exact_channel_apply(rho, "local")
        assert np.abs(out - want).max() < 1e-10


def test_snapshot_reconstruction_is_unbiased():
    # enumerating settings x outcomes and averaging inverse-mapped snapshots
    # must give back the state exactly
    rng = np.random.default_rng(23)
    for kind, d in (("local", 1), ("local", 2), ("joint", 1)):
        rho = qc.DensityMatrix(random_density(rng, d))
        acc = np.zeros((2**d, 2**d), dtype=complex)
        for setting, w in ref_iter_settings(kind, d):
            u = sh.setting_unitary(setting)
            probs = qc.born_probabilities(rho, u)
            for idx in range(2**d):
                bits = np.array([(idx >> (d - 1 - k)) & 1 for k in range(d)])
                acc += w * probs[idx] * ref_shadow_estimate(kind, setting, bits)
        assert np.abs(acc - rho.mat).max() < 1e-10


def test_fast_estimate_matches_dense_snapshot_path():
    rng = np.random.default_rng(31)
    for kind in ("local", "joint"):
        for d in (1, 2, 3):
            rho = qc.DensityMatrix(random_density(rng, d))
            obs = qc.pauli_string(random_pauli_letters(rng, d))
            for _ in range(6):
                # the production step on a copy of the stream, then the same
                # draws for the dense reference
                fork = np.random.default_rng()
                fork.bit_generator.state = rng.bit_generator.state
                fast = sh.sample_estimates(rho, [obs], kind, fork)[0]
                setting = sh.sample_setting(kind, d, rng)
                bits = qc.born_sample(rho, sh.setting_unitary(setting), rng)
                dense = ref_estimate_observable(ref_shadow_estimate(kind, setting, bits), obs)
                assert abs(fast - dense) <= 1e-8 * max(1.0, abs(dense))



@pytest.mark.parametrize("kind, d", [("local", d) for d in range(1, 7)]
                         + [("joint", d) for d in range(1, 5)])
def test_sample_estimates_match_per_atom_reference(kind, d):
    # a seeded step must equal, bit for bit, the reference that draws the
    # setting and then the outcome and estimates one observable at a time,
    # and must leave the random stream at the same position
    rng = np.random.default_rng(300 + 10 * d + (kind == "joint"))
    dim = 2**d
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    observables = [qc.rotated_observable(d, 0.3),
                   qc.pauli_string(random_pauli_letters(rng, d)),
                   qc.Observable(g + g.conj().T)]
    rho = qc.DensityMatrix(random_density(rng, d))
    for seed in range(200 if d <= 4 else 20):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sh.sample_estimates(rho, observables, kind, got_rng)
        if kind == "local":
            setting = want_rng.integers(0, 3, size=d)
            u = qc.kron_all([sh.BASIS_GATES[b] for b in setting])
        else:
            setting = u = sh.sample_clifford_unitary(d, want_rng)
        bits = qc.born_sample(rho, u, want_rng)
        want = [ref_estimate_from_setting(kind, setting, bits, o) for o in observables]
        assert np.array_equal(got, np.array(want))
        assert got_rng.random() == want_rng.random()


# ---------------------------------------------------------------------------
# estimator bounds and outcome tables


def test_analytic_bounds_closed_forms():
    x = qc.pauli_string("X")
    assert sh.estimator_bounds(x, "local") == (-3.0, 3.0)
    xx = qc.pauli_string("XX")
    assert sh.estimator_bounds(xx, "local") == (-9.0, 9.0)
    xi = qc.pauli_string("XI")
    assert sh.estimator_bounds(xi, "local") == (-3.0, 3.0)  # support size 1
    assert sh.estimator_bounds(x, "joint") == (-3.0, 3.0)
    assert sh.estimator_bounds(xx, "joint") == (-5.0, 5.0)


def test_exhaustive_bounds_contained_in_analytic():
    rng = np.random.default_rng(41)
    for kind, d in (("local", 1), ("local", 2), ("joint", 1), ("joint", 2)):
        obs = qc.pauli_string(random_pauli_letters(rng, d))
        a_lower, a_upper = sh.estimator_bounds(obs, kind, mode="analytic")
        e_lower, e_upper = sh.estimator_bounds(obs, kind, mode="exhaustive")
        assert a_lower - 1e-9 <= e_lower <= e_upper <= a_upper + 1e-9


def test_exhaustive_bounds_attained_for_pauli_strings():
    for kind in ("local", "joint"):
        b = sh.estimator_bounds(qc.pauli_string("X"), kind, mode="exhaustive")
        assert b == pytest.approx((-3.0, 3.0))


def test_outcome_distribution_mean_and_support():
    rng = np.random.default_rng(51)
    for kind, d in (("local", 1), ("local", 2), ("joint", 1)):
        rho = qc.DensityMatrix(random_density(rng, d))
        obs = qc.pauli_string(random_pauli_letters(rng, d))
        probs, values = sh.outcome_distribution(rho, [obs], kind)
        assert probs.min() >= -1e-15
        assert abs(probs.sum() - 1.0) < 1e-10
        mean = float(probs @ values[:, 0])
        assert abs(mean - qc.expectation(rho, obs)) < 1e-10
        lower, upper = sh.estimator_bounds(obs, kind, mode="exhaustive")
        assert values.min() >= lower - 1e-9
        assert values.max() <= upper + 1e-9


def test_outcome_distribution_joint_two_qubits():
    rng = np.random.default_rng(52)
    rho = qc.DensityMatrix(random_density(rng, 2))
    obs = qc.pauli_string("XZ")
    probs, values = sh.outcome_distribution(rho, [obs], "joint")
    assert probs.shape == (60,)
    assert abs(probs.sum() - 1.0) < 1e-9
    assert abs(float(probs @ values[:, 0]) - qc.expectation(rho, obs)) < 1e-9


def test_outcome_tables_match_per_atom_reference():
    # the stacked tables must equal, bit for bit, estimates and Born weights
    # computed one setting and one outcome at a time; a joint table atom is
    # a stabilizer state, which every Clifford atom measuring it must match
    # bit for bit, and whose weight is the sum of theirs
    rng = np.random.default_rng(53)
    for kind, d in (("local", 1), ("local", 2), ("local", 3), ("joint", 1), ("joint", 2)):
        dim = 2**d
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        observables = [qc.rotated_observable(d, 0.3),
                       qc.pauli_string(random_pauli_letters(rng, d)),
                       qc.Observable(g + g.conj().T)]
        states = [qc.make_theta_state(d, 0.61), qc.DensityMatrix(random_density(rng, d))]
        values = sh.outcome_values(observables, kind, d)
        tables = [sh.outcome_probabilities(rho, kind) for rho in states]
        settings = list(ref_iter_settings(kind, d))
        if kind == "local":
            assert values.shape == (len(settings) * dim, len(observables))
            atom_row = np.arange(len(values))
        else:
            assert values.shape == ({1: 6, 2: 60}[d], len(observables))
            kets = np.array([u.conj() for u, _ in settings]).reshape(-1, dim)
            atom_row = ref_fold_index(kets, sh.stabilizer_bases(d).conj().reshape(-1, dim))
        outcomes = [[(x >> (d - 1 - k)) & 1 for k in range(d)] for x in range(dim)]
        folded = [np.zeros(len(values)) for _ in states]
        # every setting, except a stride over the 11520 joint d=2 settings
        stride = 7 if kind == "joint" and d == 2 else 1
        for s, (setting, w) in enumerate(settings):
            rows = atom_row[s * dim:(s + 1) * dim]
            for rho, acc in zip(states, folded):
                np.add.at(acc, rows, w * qc.born_probabilities(rho, sh.setting_unitary(setting)))
            if s % stride:
                continue
            want = [[ref_estimate_from_setting(kind, setting, bits, o) for o in observables]
                    for bits in outcomes]
            assert np.array_equal(values[rows], np.array(want))
        for probs, acc in zip(tables, folded):
            if kind == "local":
                assert np.array_equal(probs, acc)
            else:
                assert np.abs(probs - acc).max() <= 1e-15


# ---------------------------------------------------------------------------
# stabilizer-state tables of the joint ensemble


def test_stabilizer_table_folds_clifford_enumeration():
    # the Clifford-group atom table, folded by measured state: every atom's
    # estimates equal its state's row bit for bit, and the atoms' weights sum
    # to the state's weight
    rng = np.random.default_rng(54)
    for d in (1, 2):
        dim = 2**d
        group = sh.clifford_group(d)
        kets = group.conj().reshape(-1, dim)
        table = sh.stabilizer_bases(d).conj().reshape(-1, dim)
        atom_row = ref_fold_index(kets, table)
        assert np.array_equal(np.bincount(atom_row), np.full(len(table), len(kets) // len(table)))
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        observables = [qc.rotated_observable(d, 0.3),
                       qc.pauli_string(random_pauli_letters(rng, d)),
                       qc.Observable(g + g.conj().T)]
        values = sh.outcome_values(observables, "joint", d)
        assert np.array_equal(sh._estimates("joint", kets, observables), values[atom_row])
        for _ in range(2):
            rho = qc.DensityMatrix(random_density(rng, d))
            atom_probs = (qc.born_probabilities(rho, group) / len(group)).ravel()
            folded = np.bincount(atom_row, weights=atom_probs, minlength=len(table))
            assert np.abs(sh.outcome_probabilities(rho, "joint") - folded).max() <= 1e-15


def test_stabilizer_table_sizes_and_distinct_states():
    for d, n_states in ((1, 6), (2, 60), (3, 1080)):
        bases = sh.stabilizer_bases(d)
        assert bases.shape == (n_states >> d, 2**d, 2**d)
        for u in bases:
            assert np.abs(u @ u.conj().T - np.eye(2**d)).max() < 1e-15
        kets = bases.conj().reshape(-1, 2**d)
        assert len({ref_state_key(k) for k in kets}) == n_states
    assert sh.stabilizer_bases(3) is sh.stabilizer_bases(3)
    with pytest.raises(ValueError):
        sh.stabilizer_bases(sh.MAX_ENUM + 1)


def test_stabilizer_states_are_a_three_design():
    # frame potential mean |<psi|phi>|^(2t) over pairs equals the Haar value
    # 1 / C(D + t - 1, t) for t <= 3, and exceeds it at t = 4
    for d in (1, 2, 3):
        dim = 2**d
        kets = sh.stabilizer_bases(d).conj().reshape(-1, dim)
        overlaps = np.abs(kets.conj() @ kets.T) ** 2
        for t in (1, 2, 3, 4):
            haar = 1.0 / math.comb(dim + t - 1, t)
            potential = float((overlaps**t).mean())
            if t <= 3:
                assert abs(potential - haar) <= 1e-14
            else:
                assert potential > haar * (1.0 + 1e-3)


def _chi_square_stat(counts, probs, n):
    # pool the cells expected below 5 draws into one
    expected = n * probs
    small = expected < 5.0
    obs = np.append(counts[~small], counts[small].sum())
    exp = np.append(expected[~small], expected[small].sum())
    keep = exp > 0
    return float((((obs - exp) ** 2)[keep] / exp[keep]).sum()), int(keep.sum()) - 1


def _chi_square_critical(dof, z=3.09):
    # Wilson-Hilferty upper quantile, z = 3.09 for level 1e-3
    a = 2.0 / (9.0 * dof)
    return dof * (1.0 - a + z * math.sqrt(a)) ** 3


def test_direct_joint_draws_follow_stabilizer_table():
    # seeded direct steps at joint d = 3 land on the table's values, bit for
    # bit, with the table's frequencies; the same draws reject a table whose
    # states are weighted uniformly
    d, n = 3, 4000
    rho = qc.make_theta_state(d, 0.8)
    obs = [qc.rotated_observable(d, 0.3)]
    probs, values = sh.outcome_distribution(rho, obs, "joint")
    distinct, state_value = np.unique(values[:, 0], return_inverse=True)
    rng = np.random.default_rng(56)
    draws = np.array([sh.sample_estimates(rho, obs, "joint", rng)[0] for _ in range(n)])
    idx = np.searchsorted(distinct, draws)
    assert np.array_equal(distinct[idx], draws)
    counts = np.bincount(idx, minlength=distinct.size)
    for weights, accept in ((probs, True), (np.full(probs.size, 1.0 / probs.size), False)):
        stat, dof = _chi_square_stat(counts, np.bincount(state_value, weights), n)
        assert dof >= 3
        assert (stat <= _chi_square_critical(dof)) == accept


def test_sample_estimates_deterministic_and_in_bounds():
    rho = qc.make_theta_state(2, 0.6)
    obs = [qc.pauli_string("XX"), qc.pauli_string("ZI")]
    bounds = [sh.estimator_bounds(o, "local") for o in obs]
    a = [sh.sample_estimates(rho, obs, "local", np.random.default_rng(77)) for _ in range(4)]
    b = [sh.sample_estimates(rho, obs, "local", np.random.default_rng(77)) for _ in range(4)]
    assert np.array_equal(np.array(a), np.array(b))
    rng = np.random.default_rng(78)
    for _ in range(300):
        est = sh.sample_estimates(rho, obs, "local", rng)
        for j, (lower, upper) in enumerate(bounds):
            assert lower - 1e-9 <= est[j] <= upper + 1e-9


def test_monte_carlo_mean_tracks_expectation():
    rng = np.random.default_rng(61)
    rho = qc.DensityMatrix(random_density(rng, 2))
    obs = qc.pauli_string("YX")
    n = 4000
    draws = np.array([sh.sample_estimates(rho, [obs], "local", rng)[0] for _ in range(n)])
    lower, upper = sh.estimator_bounds(obs, "local")
    tol = 4.0 * (upper - lower) / np.sqrt(n)
    assert abs(draws.mean() - qc.expectation(rho, obs)) < tol


def test_can_enumerate_limits():
    assert sh.can_enumerate("local", 3)
    assert not sh.can_enumerate("local", 4)
    assert sh.can_enumerate("joint", 3)
    assert not sh.can_enumerate("joint", 4)
    with pytest.raises(ValueError):
        sh.can_enumerate("weird", 1)


def test_sample_setting_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sh.sample_setting("other", 1, rng)
    with pytest.raises(ValueError):
        sh.sample_setting("local", sh.MAX_LOCAL_QUBITS + 1, rng)
    with pytest.raises(ValueError):
        sh.sample_setting("joint", sh.MAX_JOINT_QUBITS + 1, rng)
    labels = sh.sample_setting("local", 3, rng)
    assert labels.shape == (3,) and set(labels.tolist()) <= {0, 1, 2}
    assert sh.setting_unitary(labels).shape == (8, 8)
    u = sh.sample_setting("joint", 2, rng)
    assert sh.setting_unitary(u) is u
