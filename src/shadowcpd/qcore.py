"""Dense qubit-register linear algebra.

Small-register (d <= 10) states and observables are held as explicit
complex matrices.  Conventions used throughout the package:

* qubit 0 is the leftmost Kronecker factor, so basis index x encodes the
  bitstring (x_1 ... x_d) with qubit 0 as the most significant bit;
* density matrices are Hermitian, unit trace, positive semidefinite up to
  a small numerical floor;
* eigensystems come from LAPACK with eigenvalues ascending.
"""

from __future__ import annotations

import math
import numpy as np

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
PHASE_S = np.array([[1.0, 0.0], [0.0, 1.0j]], dtype=complex)

PAULI_BY_LETTER = {"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}

HERMITIAN_ATOL = 1e-10
TRACE_ATOL = 1e-10
EIGVAL_FLOOR = -1e-9
UNITARY_ATOL = 1e-8
BORN_CLAMP = -1e-10
IMAG_RESIDUE_ATOL = 1e-9

MAX_QUBITS = 10


def kron_all(factors):
    """Kronecker product of a sequence of matrices, qubit 0 leftmost."""
    out = np.array([[1.0 + 0.0j]])
    for f in factors:
        out = np.kron(out, f)
    return out


def _as_matrix(obj):
    if isinstance(obj, DensityMatrix) or isinstance(obj, Observable):
        return obj.mat
    return np.asarray(obj, dtype=complex)


def _check_square_qubit_dim(mat, what):
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape {mat.shape}")
    dim = mat.shape[0]
    if dim < 2 or (dim & (dim - 1)) != 0:
        raise ValueError(f"{what} dimension {dim} is not a power of two")
    if not np.all(np.isfinite(mat.view(float))):
        raise ValueError(f"{what} contains non-finite entries")
    return dim


def _check_hermitian(mat, what, atol=HERMITIAN_ATOL):
    dev = np.max(np.abs(mat - mat.conj().T))
    if dev > atol:
        raise ValueError(f"{what} is not Hermitian (max deviation {dev:.3e})")


class DensityMatrix:
    """A validated d-qubit density matrix.

    Parameters
    ----------
    mat : array_like
        Square complex matrix of dimension 2**d.  Must be Hermitian within
        1e-10, have unit trace within 1e-10, and eigenvalues >= -1e-9.
    """

    def __init__(self, mat):
        mat = np.asarray(mat, dtype=complex)
        dim = _check_square_qubit_dim(mat, "density matrix")
        _check_hermitian(mat, "density matrix")
        tr = np.trace(mat)
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValueError(f"density matrix trace {tr:.12g} differs from 1")
        # eigvalsh is cheap here and only feeds this validity check
        evals = np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)
        if evals.min() < EIGVAL_FLOOR:
            raise ValueError(
                f"density matrix has eigenvalue {evals.min():.3e} below floor {EIGVAL_FLOOR}"
            )
        self.mat = mat
        self.dim = dim
        self.n_qubits = dim.bit_length() - 1

    def __repr__(self):
        return f"DensityMatrix(d={self.n_qubits})"


class Observable:
    """A Hermitian observable with cached support, norm and trace.

    The support is the set of qubit indices the operator acts on
    non-trivially.  ``factors`` may record a tensor-product decomposition
    (one 2x2 factor per qubit), which enables a fast estimator path but is
    never required.
    """

    def __init__(self, mat, factors=None):
        mat = np.asarray(mat, dtype=complex)
        dim = _check_square_qubit_dim(mat, "observable")
        _check_hermitian(mat, "observable")
        self.mat = mat
        self.dim = dim
        self.n_qubits = dim.bit_length() - 1
        evals = np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)
        self.eigmin = float(evals[0])
        self.eigmax = float(evals[-1])
        self.op_norm = float(np.max(np.abs(evals)))
        self.trace = float(np.trace(mat).real)
        self.support = self._compute_support()
        if factors is not None:
            factors = [np.asarray(f, dtype=complex) for f in factors]
            if len(factors) != self.n_qubits:
                raise ValueError("factor list length must equal qubit count")
        self.factors = factors

    def _compute_support(self):
        d = self.n_qubits
        tensor = self.mat.reshape((2,) * (2 * d))
        support = set()
        for k in range(d):
            tk = np.moveaxis(tensor, (k, d + k), (0, 1))
            off = max(np.max(np.abs(tk[0, 1])), np.max(np.abs(tk[1, 0])))
            diag_dev = np.max(np.abs(tk[0, 0] - tk[1, 1]))
            if off > HERMITIAN_ATOL or diag_dev > HERMITIAN_ATOL:
                support.add(k)
        return frozenset(support)

    def __repr__(self):
        return f"Observable(d={self.n_qubits}, support={sorted(self.support)})"


def make_theta_state(d, theta):
    """Build the d-qubit state (I + theta * X^{tensor d}) / 2**d.

    Valid for d in [1, 10] and |theta| <= 1; outside that range the matrix
    would not be a state or would be too large for the dense backend.
    """
    if not isinstance(d, (int, np.integer)) or d < 1 or d > MAX_QUBITS:
        raise ValueError(f"qubit count d={d} outside supported range [1, {MAX_QUBITS}]")
    if abs(theta) > 1.0:
        raise ValueError(f"theta={theta} outside [-1, 1], state would not be positive")
    xd = kron_all([PAULI_X] * d)
    mat = (np.eye(2**d, dtype=complex) + theta * xd) / (2**d)
    return DensityMatrix(mat)


def pauli_string(letters):
    """Observable for a Pauli string such as ``"XZY"`` (qubit 0 leftmost)."""
    letters = str(letters).upper()
    if not letters or any(c not in PAULI_BY_LETTER for c in letters):
        raise ValueError(f"invalid Pauli string {letters!r}")
    factors = [PAULI_BY_LETTER[c] for c in letters]
    return Observable(kron_all(factors), factors=factors)


def rotated_observable(d, gamma):
    """Observable (Rz(gamma)^dag X Rz(gamma))^{tensor d}.

    With Rz(gamma) = cos(gamma/2) I - i sin(gamma/2) Z the single-qubit
    factor works out to cos(gamma) X - sin(gamma) Y, so against the state
    from make_theta_state(d, theta) the expectation is theta * cos(gamma)**d.
    """
    if not isinstance(d, (int, np.integer)) or d < 1 or d > MAX_QUBITS:
        raise ValueError(f"qubit count d={d} outside supported range [1, {MAX_QUBITS}]")
    factor = math.cos(gamma) * PAULI_X - math.sin(gamma) * PAULI_Y
    return Observable(kron_all([factor] * d), factors=[factor] * d)


def expectation(rho, obs):
    """Real expectation value Tr(rho O).

    Raises if the dimensions disagree or the trace has an imaginary residue
    above 1e-9, which would indicate a non-Hermitian input.
    """
    rmat = _as_matrix(rho)
    omat = _as_matrix(obs)
    if rmat.shape != omat.shape:
        raise ValueError(f"dimension mismatch {rmat.shape} vs {omat.shape}")
    val = np.trace(rmat @ omat)
    if abs(val.imag) > IMAG_RESIDUE_ATOL * max(1.0, abs(val.real)):
        raise ValueError(f"expectation has imaginary residue {val.imag:.3e}")
    return float(val.real)


def hermitian_eig(obs):
    """Eigendecomposition of a Hermitian matrix by LAPACK (``numpy.linalg.eigh``).

    Returns (eigenvalues, eigenvectors): the eigenvalues ascending, the
    matching orthonormal eigenvectors as columns.  Inside a degenerate
    eigenspace the eigenvector basis is whatever LAPACK returns; callers
    that need basis-free quantities use eigenspace projectors.
    """
    mat = _as_matrix(obs)
    _check_square_qubit_dim(mat, "matrix")
    _check_hermitian(mat, "matrix")
    return np.linalg.eigh((mat + mat.conj().T) / 2.0)


def born_probabilities(rho, unitary):
    """Computational-basis outcome distribution of U rho U^dag.

    ``unitary`` may be a stack of shape (..., dim, dim); each setting's
    distribution, along the last axis, is checked and normalized on its own.
    Small negative diagonal entries above -1e-10 are clamped to zero and
    the vector is renormalized; anything more negative raises.
    """
    rmat = _as_matrix(rho)
    u = np.asarray(unitary, dtype=complex)
    if u.shape[-2:] != rmat.shape:
        raise ValueError(f"unitary shape {u.shape[-2:]} does not match state {rmat.shape}")
    # a padded output keeps numpy from merging the stack axis into the row
    # axis, which would change the order in which each row is summed
    dim = rmat.shape[0]
    out = np.empty(u.shape[:-2] + (dim + 1,), dtype=complex)[..., :dim]
    probs = np.real(np.einsum("...ij,jk,...ik->...i", u, rmat, u.conj(), out=out))
    if probs.min() < BORN_CLAMP:
        raise ValueError(f"outcome probability {probs.min():.3e} below clamp {BORN_CLAMP}")
    probs = np.clip(probs, 0.0, None)
    total = probs.sum(axis=-1)
    ok = (0.9999999 < total) & (total < 1.0000001)
    if not ok.all():
        raise ValueError(f"outcome probabilities sum to {np.extract(~ok, total)[0]:.9f}")
    return probs / total[..., None]


def born_sample(rho, unitary, rng):
    """Measure U rho U^dag in the computational basis.

    Returns the outcome bitstring as an int array of shape (d,), qubit 0
    first.  ``unitary`` must be unitary within 1e-8.
    """
    u = np.asarray(unitary, dtype=complex)
    dim = u.shape[0]
    if np.max(np.abs(u @ u.conj().T - np.eye(dim))) > UNITARY_ATOL:
        raise ValueError("matrix is not unitary within 1e-8")
    probs = born_probabilities(rho, u)
    idx = int(np.searchsorted(np.cumsum(probs), rng.random(), side="right"))
    idx = min(idx, dim - 1)
    d = dim.bit_length() - 1
    return np.array([(idx >> (d - 1 - k)) & 1 for k in range(d)], dtype=np.int64)


def bits_to_index(bits):
    """Bitstring (qubit 0 first) to computational-basis index."""
    idx = 0
    for b in bits:
        idx = (idx << 1) | int(b)
    return idx
