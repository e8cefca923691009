"""Finite-dimensional complex linear algebra and core quantum types.

Everything here is dense and immutable: operators and states wrap read-only
numpy arrays and all operations are pure functions, so values can be shared
freely across threads and worker processes. Target dimensions are small
(2-64); no sparse storage is provided. Natural units with hbar = 1 are used
throughout the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, ValidationError

HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-10
POSITIVITY_ATOL = 1e-9
NORM_ATOL = 1e-10


def _as_complex_matrix(entries, name: str) -> np.ndarray:
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"{name} must be a square matrix, got shape {m.shape}")
    return m


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class HermitianOperator:
    """Dense complex Hermitian matrix (Hamiltonians, measured observables)."""

    entries: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        m = _as_complex_matrix(self.entries, "HermitianOperator")
        if m.shape[0] < 2:
            raise ValidationError(f"operator dimension must be >= 2, got {m.shape[0]}")
        if not np.all(np.isfinite(m)):
            raise ValidationError("Hermitian matrix entries must be finite; replace nan or inf")
        defect = np.max(np.abs(m - m.conj().T))
        if defect > HERMITICITY_ATOL:
            i, j = np.unravel_index(
                np.argmax(np.abs(m - m.conj().T)), m.shape
            )
            raise ValidationError(
                f"matrix is not Hermitian: entry ({i},{j})={m[i, j]:.6g} does not "
                f"conjugate-match ({j},{i})={m[j, i]:.6g} (defect {defect:.3g})"
            )
        object.__setattr__(self, "entries", _frozen(0.5 * (m + m.conj().T)))
        object.__setattr__(self, "dim", m.shape[0])

    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (ascending) and orthonormal eigenvector columns."""
        return np.linalg.eigh(self.entries)

    def spectral_norm(self) -> float:
        return float(np.max(np.abs(np.linalg.eigvalsh(self.entries))))


@dataclass(frozen=True)
class NonHermitianOperator:
    """Dense complex matrix with no symmetry constraint (effective complex
    Hamiltonians, measurement-conditioned propagators)."""

    entries: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        m = _as_complex_matrix(self.entries, "NonHermitianOperator")
        if m.shape[0] < 2:
            raise ValidationError(f"operator dimension must be >= 2, got {m.shape[0]}")
        object.__setattr__(self, "entries", _frozen(m))
        object.__setattr__(self, "dim", m.shape[0])


@dataclass(frozen=True)
class QuantumState:
    """Pure state as a unit complex amplitude vector plus a log-norm.

    The physical (unnormalized) vector is ``exp(log_norm) * amplitudes``.
    Keeping the norm in log form lets strongly damped monitored evolutions
    run for long times without underflow; ordinary normalized states carry
    ``log_norm = 0``.
    """

    amplitudes: np.ndarray
    log_norm: float = 0.0

    def __post_init__(self):
        v = np.asarray(self.amplitudes, dtype=complex)
        if v.ndim != 1 or v.size < 2:
            raise ValidationError(f"state must be a vector of length >= 2, got shape {v.shape}")
        n = float(np.linalg.norm(v))
        if not np.isfinite(n) and not np.all(np.isfinite(v)):
            raise ValidationError(f"state amplitudes must be finite, got norm {n}; replace nan or inf")
        if abs(n - 1.0) > NORM_ATOL:
            raise ValidationError(f"stored amplitudes must be normalized: |norm - 1| = {abs(n - 1.0):.3g}")
        if not np.isfinite(self.log_norm):
            raise ValidationError("log_norm must be finite")
        object.__setattr__(self, "amplitudes", _frozen(v))
        object.__setattr__(self, "log_norm", float(self.log_norm))

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @staticmethod
    def from_vector(v, log_norm: float = 0.0) -> "QuantumState":
        """Normalize an arbitrary nonzero vector, folding its norm into log_norm."""
        v = np.asarray(v, dtype=complex)
        n = float(np.linalg.norm(v))
        if n == 0.0 or not np.isfinite(n):
            raise ValidationError("cannot normalize a zero or non-finite vector")
        return QuantumState(v / n, log_norm + np.log(n))

    def projector(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())


def _zero_non_finite(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(m with each matrix of a stack (..., d, d) that has a non-finite entry
    zeroed, the mask of those matrices): they fail a check whatever their
    values, and zeros keep numpy quiet and eigvalsh from raising LinAlgError."""
    non_finite = ~np.all(np.isfinite(m), axis=(-2, -1))
    if non_finite.any():
        m = np.where(non_finite[..., None, None], 0.0, m)
    return m, non_finite


def _lowest_eigenvalues(m: np.ndarray) -> np.ndarray:
    """The smallest eigenvalue of each Hermitian matrix of a stack (..., d, d),
    by one eigvalsh; a non-finite matrix reads 0."""
    return np.min(np.linalg.eigvalsh(_zero_non_finite(m)[0]), axis=-1)


def _densities(m: np.ndarray, min_eigenvalues=None) -> tuple[np.ndarray, np.ndarray]:
    """Check a stack (..., d, d) of matrices as density matrices: finite,
    Hermitian to 1e-12, trace 1 to 1e-10 and no eigenvalue of the Hermitian
    part 0.5 (m + m^H) below -1e-9. Raises ValidationError for the first matrix
    that fails, with the message of its first failing check, in that order.
    Returns (the Hermitian parts, their smallest eigenvalues); a caller that
    holds the smallest eigenvalues passes them instead. Each matrix gets the
    values a check of it alone would give."""
    m, non_finite = _zero_non_finite(m)
    mh = np.swapaxes(m.conj(), -1, -2)
    skew = np.max(np.abs(m - mh), axis=(-2, -1)) > HERMITICITY_ATOL
    tr = np.trace(m, axis1=-2, axis2=-1)
    off_trace = np.abs(tr - 1.0) > TRACE_ATOL
    sym = 0.5 * (m + mh)
    lo = min_eigenvalues
    if lo is None:
        lo = np.min(np.linalg.eigvalsh(sym), axis=-1)
    lo = np.asarray(lo, dtype=float)
    negative = lo < -POSITIVITY_ATOL
    failed = non_finite | skew | off_trace | negative
    if failed.any():
        k = np.flatnonzero(failed)[0]
        if non_finite.flat[k]:
            raise ValidationError("density matrix entries must be finite; replace nan or inf")
        if skew.flat[k]:
            raise ValidationError("density matrix must be Hermitian to 1e-12")
        if off_trace.flat[k]:
            raise ValidationError(f"density matrix trace must be 1: got {complex(tr.flat[k]):.12g}")
        raise ValidationError(f"density matrix has negative eigenvalue {lo.flat[k]:.3g}")
    return sym, lo


class _Checked:
    """A read-only view of one matrix of a stack that _density_stack has
    checked: DensityMatrix keeps it as its entries without a second check."""

    __slots__ = ("view",)

    def __init__(self, view: np.ndarray):
        self.view = view


@dataclass(frozen=True)
class DensityMatrix:
    """Dense positive semidefinite unit-trace matrix. The values of a stack
    checked at once come from _density_stack, with no second check each."""

    entries: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        if isinstance(self.entries, _Checked):
            m = self.entries.view
        else:
            m = _frozen(_densities(_as_complex_matrix(self.entries, "DensityMatrix"))[0])
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "dim", m.shape[0])

    @staticmethod
    def from_state(state: QuantumState) -> "DensityMatrix":
        return DensityMatrix(state.projector())

    @staticmethod
    def maximally_mixed(dim: int) -> "DensityMatrix":
        return DensityMatrix(np.eye(dim) / dim)


def _density_stack(m: np.ndarray, min_eigenvalues=None) -> list[DensityMatrix]:
    """The DensityMatrix of each matrix of a C-ordered stack (n, d, d), checked
    as one stack by _densities (which takes ``min_eigenvalues`` as it does).
    The Hermitian parts are written into m, and each value holds a read-only
    view of its matrix there: the bits and the checks of DensityMatrix(m[i]),
    without a second check per matrix."""
    m[...] = _densities(m, min_eigenvalues)[0]
    frozen = m.view()
    frozen.setflags(write=False)
    return [DensityMatrix(_Checked(entries)) for entries in frozen]


def _check_same_dim(a, b):
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimension mismatch: {a.dim} vs {b.dim}")


def expectation(state: QuantumState, obs: HermitianOperator) -> float:
    """Expectation value <psi|A|psi> of the normalized stored amplitudes.

    The result must be real up to roundoff; an imaginary part above 1e-9
    indicates a non-Hermitian operand and raises.
    """
    _check_same_dim(state, obs)
    val = complex(np.vdot(state.amplitudes, obs.entries @ state.amplitudes))
    if abs(val.imag) > 1e-9:
        raise ValidationError(f"expectation value has imaginary part {val.imag:.3g}; operator not Hermitian?")
    return val.real


# [13/13] Pade coefficients b_0..b_13 of exp, and the largest 1-norm at which
# that approximant is accurate to double precision (Higham 2005, Table 2.3)
_PADE_13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0,
    1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA_13 = 5.371920351148152


def _expm(m: np.ndarray) -> np.ndarray:
    """exp(m) of a finite square matrix: the [13/13] Pade approximant of
    m / 2^s, s = max(0, ceil(log2(||m||_1 / theta_13))), squared s times.
    The approximant is formed as I + 2 (V - U)^-1 U, which equals
    (V - U)^-1 (V + U) but rounds closer to the true exponential."""
    b = _PADE_13
    norm = float(np.max(np.sum(np.abs(m), axis=0)))
    s = max(0, math.ceil(math.log2(norm / _THETA_13))) if norm > _THETA_13 else 0
    a = m * 2.0**-s
    ident = np.eye(m.shape[0], dtype=a.dtype)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident
    )
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    r = ident + 2.0 * np.linalg.solve(v - u, u)
    for _ in range(s):
        r = r @ r
    return r


def matrix_exponential(op: NonHermitianOperator, t: float = 1.0) -> NonHermitianOperator:
    """exp(M * t) by scaling and squaring of the [13/13] Pade approximant
    (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)), in numpy alone.

    Measured accuracy, as the largest entry error over the largest entry,
    at ||M t||_1 from 1e-8 to 1e3: at most 2.8e-13 against the Al-Mohy &
    Higham (2009) implementation of the method over non-normal, diagonal,
    master-equation and record-slice generators of d = 2-64, and 3.2e-13
    against the closed form of defective (Jordan) blocks, both largest near
    ||M t||_1 = 1e3, where the s = 8 squarings multiply the approximant's
    rounding by up to 2^s. The zero matrix gives I exactly.
    """
    if not np.all(np.isfinite(op.entries)):
        raise ValidationError("matrix exponential requires finite entries")
    if not np.isfinite(t):
        raise ValidationError("time argument must be finite")
    return NonHermitianOperator(_expm(op.entries * t))


def trace_distance(r1: DensityMatrix, r2: DensityMatrix) -> float:
    """Half the sum of absolute eigenvalues of r1 - r2; lies in [0, 1]."""
    _check_same_dim(r1, r2)
    return float(_trace_distances(r1.entries, r2.entries))


def _trace_distances(r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """trace_distance of raw matrices, unchecked, over stacks (..., d, d)."""
    return 0.5 * np.sum(np.abs(np.linalg.eigvalsh(r1 - r2)), axis=-1)


def double_commutator(a: HermitianOperator, rho: DensityMatrix) -> np.ndarray:
    """[A, [A, rho]] = A^2 rho - 2 A rho A + rho A^2 (Hermitian, traceless)."""
    _check_same_dim(a, rho)
    return _double_commutator(a.entries, rho.entries)


def _double_commutator(a: np.ndarray, r: np.ndarray) -> np.ndarray:
    """[a, [a, r]] of raw matrices, unchecked: the master equation's dissipator."""
    ar = a @ r
    return a @ ar - 2.0 * (ar @ a) + (r @ a) @ a


# Two-level building blocks used across tests and presets.

def pauli_x() -> HermitianOperator:
    return HermitianOperator(np.array([[0.0, 1.0], [1.0, 0.0]]))


def pauli_z() -> HermitianOperator:
    return HermitianOperator(np.array([[1.0, 0.0], [0.0, -1.0]]))


def basis_state(dim: int, index: int) -> QuantumState:
    if not 0 <= index < dim:
        raise ValidationError(f"basis index {index} out of range for dim {dim}")
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return QuantumState(v)


def plus_state(dim: int = 2) -> QuantumState:
    """Equal-amplitude superposition of all basis states."""
    return QuantumState(np.full(dim, 1.0 / np.sqrt(dim), dtype=complex))
