import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm  # the oracle of matrix_exponential; qmeas never imports scipy

from qmeas.chm import effective_hamiltonian
from qmeas.errors import DimensionMismatchError, ValidationError
from qmeas.hilbert import (
    DensityMatrix,
    HermitianOperator,
    NonHermitianOperator,
    QuantumState,
    basis_state,
    double_commutator,
    expectation,
    matrix_exponential,
    pauli_x,
    pauli_z,
    plus_state,
    trace_distance,
)
from qmeas.hilbert import _density_stack
from qmeas.lindblad import MonitoringModel, _superoperator


def rand_hermitian(dim, rng):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianOperator(0.5 * (m + m.conj().T))


def rand_density(dim, rng):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = m @ m.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


class TestTypes:
    def test_hermitian_rejects_asymmetric(self):
        with pytest.raises(ValidationError, match="not Hermitian"):
            HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_hermitian_rejects_dim_one(self):
        with pytest.raises(ValidationError):
            HermitianOperator(np.array([[1.0]]))

    def test_constructed_operators_are_exactly_hermitian(self):
        rng = np.random.default_rng(1)
        for dim in (2, 3, 5, 8):
            op = rand_hermitian(dim, rng)
            assert np.max(np.abs(op.entries - op.entries.conj().T)) <= 1e-12

    def test_state_requires_unit_norm(self):
        with pytest.raises(ValidationError, match="normalized"):
            QuantumState(np.array([1.0, 1.0]))

    def test_state_from_vector_folds_norm(self):
        st_ = QuantumState.from_vector(np.array([3.0, 4.0]))
        assert np.isclose(np.linalg.norm(st_.amplitudes), 1.0)
        assert np.isclose(st_.log_norm, np.log(5.0))

    def test_density_matrix_validates(self):
        with pytest.raises(ValidationError, match="trace"):
            DensityMatrix(np.eye(2))
        with pytest.raises(ValidationError, match="eigenvalue"):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_stack_with_given_eigenvalues_keeps_the_other_checks(self):
        half = np.eye(2, dtype=complex) / 2
        with pytest.raises(ValidationError, match="Hermitian"):
            _density_stack(np.array([[[0.5, 0.1], [0.0, 0.5]]], dtype=complex), [0.4])
        with pytest.raises(ValidationError, match="trace"):
            _density_stack(2 * half[None], [1.0])
        with pytest.raises(ValidationError, match="eigenvalue"):
            _density_stack(half[None], [-1e-3])
        [rho] = _density_stack(half[None].copy(), [0.5])
        assert rho.entries.tobytes() == DensityMatrix(np.eye(2) / 2).entries.tobytes()

    @given(dim=st.integers(2, 8), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_stack_is_each_density_matrix(self, dim, seed, n):
        # Hermitian to roundoff, as propagated states are: each value has
        # the bits of DensityMatrix(m[i]), read-only, without a copy each
        rng = np.random.default_rng(seed)
        m = np.stack([rand_density(dim, rng).entries for _ in range(n)])
        m = m + 1e-15 * (rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape))
        m /= np.trace(m, axis1=-2, axis2=-1).real[:, None, None]
        alone = [DensityMatrix(x) for x in m]
        out = _density_stack(m)
        assert [r.entries.tobytes() for r in out] == [r.entries.tobytes() for r in alone]
        assert all(r.dim == dim and not r.entries.flags.writeable for r in out)
        assert all(np.shares_memory(r.entries, m) for r in out)

    @pytest.mark.parametrize(
        "kind,entries,message",
        [
            (HermitianOperator, [[np.nan, 0], [0, 1]], r"^Hermitian matrix entries must be finite"),
            (HermitianOperator, [[np.inf, 0], [0, 1]], r"^Hermitian matrix entries must be finite"),
            (HermitianOperator, [[1, 0], [np.nan, 1]], r"^Hermitian matrix entries must be finite"),
            (QuantumState, [np.nan, 1], r"^state amplitudes must be finite, got norm nan"),
            (QuantumState, [np.inf, 1], r"^state amplitudes must be finite, got norm inf"),
            (DensityMatrix, [[np.nan, 0], [0, 1]], r"^density matrix entries must be finite"),
            (DensityMatrix, [[np.inf, 0], [0, 1]], r"^density matrix entries must be finite"),
            # non-finite is checked first: this one is also off trace
            (DensityMatrix, [[np.nan, 0], [0, 2]], r"^density matrix entries must be finite"),
        ],
    )
    def test_non_finite_entries_are_rejected(self, kind, entries, message):
        with pytest.raises(ValidationError, match=message) as err:
            kind(entries)
        assert str(err.value).endswith("; replace nan or inf")

    def test_immutability(self):
        op = pauli_z()
        with pytest.raises(ValueError):
            op.entries[0, 0] = 2.0


class TestExpectation:
    def test_eigenstate(self):
        assert expectation(basis_state(2, 0), pauli_z()) == pytest.approx(1.0)

    def test_symmetric_superposition(self):
        assert expectation(plus_state(2), pauli_z()) == pytest.approx(0.0, abs=1e-12)

    def test_hand_evaluated(self):
        st_ = QuantumState(np.array([0.6, 0.8], dtype=complex))
        assert expectation(st_, pauli_z()) == pytest.approx(-0.28, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            expectation(basis_state(3, 0), pauli_z())

    @given(phase=st.floats(0.0, 2 * np.pi))
    @settings(max_examples=10, deadline=None)
    def test_global_phase_invariance(self, phase):
        st_ = QuantumState(np.array([0.6, 0.8], dtype=complex))
        rotated = QuantumState(st_.amplitudes * np.exp(1j * phase))
        assert expectation(rotated, pauli_z()) == pytest.approx(
            expectation(st_, pauli_z()), abs=1e-12
        )


def _abscissa_zero(m):
    """m minus its largest eigenvalue real part times I: scaled to a 1-norm up
    to 1e3, its exponential neither overflows nor underflows."""
    return m - np.max(np.linalg.eigvals(m).real) * np.eye(len(m))


def _non_normal(rng):
    d = int(rng.integers(2, 65))
    return _abscissa_zero(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))


def _diagonal(rng):
    d = int(rng.integers(2, 65))
    return _abscissa_zero(np.diag(rng.standard_normal(d) + 1j * rng.standard_normal(d)))


def _random_model(rng, d):
    return MonitoringModel(rand_hermitian(d, rng), rand_hermitian(d, rng), rng.uniform(0.1, 2.0))


def _lindblad_superoperator(rng):
    """lindblad_exact's L of random H and A at d = 2-4 (its abscissa is 0)."""
    return _superoperator(_random_model(rng, int(rng.integers(2, 5))))


def _record_slice_generator(rng):
    """-i H_eff(a), whose exponential at dt is one slice of ode_propagator,
    for random H and A at d = 2-8, with its abscissa moved to 0."""
    model = _random_model(rng, int(rng.integers(2, 9)))
    return _abscissa_zero(-1j * effective_hamiltonian(model, rng.uniform(-2.0, 2.0)).entries)


_GENERATORS = {
    "non-normal": _non_normal,
    "diagonal": _diagonal,
    "lindblad": _lindblad_superoperator,
    "record-slice": _record_slice_generator,
}


def _scaled(m, log_norm):
    """m scaled to the 1-norm 10**log_norm."""
    return m * (10.0**log_norm / np.max(np.sum(np.abs(m), axis=0)))


def _relative_error(m, ref):
    """The largest entry of |matrix_exponential(m) - ref| over the largest
    entry of |ref|."""
    out = matrix_exponential(NonHermitianOperator(m)).entries
    return np.max(np.abs(out - ref)) / np.max(np.abs(ref))


# Over 80,000 draws as below (20,000 of each generator, log10 ||M||_1
# uniform in [-8, 3]) the relative error against scipy's expm was at most
# 2.8e-13 (record slices; 2.5e-13 non-normal, 1.3e-13 diagonal, 8.0e-14
# lindblad), and over 40,000 Jordan blocks against their closed form at most
# 3.2e-13, each at ||M||_1 near 1e3, where the s = 8 squarings of the
# scaled approximant multiply its rounding by up to 2^s = 256. The bound is
# three times the largest.
EXPM_REL_TOL = 1e-12


class TestPadeKernel:
    @given(
        kind=st.sampled_from(sorted(_GENERATORS)),
        seed=st.integers(0, 2**32 - 1),
        log_norm=st.floats(-8.0, 3.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_scipy_expm(self, kind, seed, log_norm):
        m = _scaled(_GENERATORS[kind](np.random.default_rng(seed)), log_norm)
        assert _relative_error(m, expm(m)) <= EXPM_REL_TOL

    # A defective block is held to its closed form: scipy's expm takes an
    # upper-triangular input through its own path, which missed that form
    # by up to 2.4e-6 (relative to the largest entry) at ||M||_1 near 1e3.
    @given(
        size=st.integers(2, 16),
        re=st.floats(-1.0, 0.0),  # exp(alpha lam) >= exp(-500) at ||M||_1 = 1e3
        im=st.floats(-3.0, 3.0),
        log_norm=st.floats(-8.0, 3.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_jordan_block_closed_form(self, size, re, im, log_norm):
        lam = complex(re, im)
        alpha = 10.0**log_norm / (abs(lam) + 1.0)  # the 1-norm of lam*I + N is |lam| + 1
        m = alpha * (lam * np.eye(size) + np.eye(size, k=1))
        # exp(alpha (lam I + N)) = exp(alpha lam) sum_k alpha^k N^k / k!
        exact = sum(
            np.eye(size, k=k) * (np.exp(m[0, 0]) * alpha**k / math.factorial(k))
            for k in range(size)
        )
        assert _relative_error(m, exact) <= EXPM_REL_TOL


class TestMatrixExponential:
    def test_zero_matrix(self):
        out = matrix_exponential(NonHermitianOperator(np.zeros((3, 3))), 2.0)
        assert np.array_equal(out.entries, np.eye(3))

    def test_diagonal(self):
        out = matrix_exponential(NonHermitianOperator(np.diag([-1.0, -2.0])), 1.0)
        assert np.allclose(out.entries, np.diag([np.exp(-1.0), np.exp(-2.0)]), rtol=1e-12)

    def test_rotation_closed_form(self):
        gen = NonHermitianOperator(-1j * pauli_x().entries * np.pi / 2)
        out = matrix_exponential(gen, 1.0)
        assert np.allclose(out.entries, -1j * pauli_x().entries, atol=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            matrix_exponential(NonHermitianOperator(np.array([[np.inf, 0], [0, 1.0]])), 1.0)

    def test_semigroup_property(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            m = NonHermitianOperator(m / np.linalg.norm(m, 2))  # ||M|| = 1
            t1, t2 = rng.uniform(0.2, 2.0, size=2)  # ||M(t1+t2)|| <= 4 < 5
            lhs = matrix_exponential(m, t1).entries @ matrix_exponential(m, t2).entries
            rhs = matrix_exponential(m, t1 + t2).entries
            assert np.max(np.abs(lhs - rhs)) <= 1e-9


class TestTraceDistance:
    def test_identical(self):
        rho = rand_density(3, np.random.default_rng(3))
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-14)

    def test_orthogonal_pure_states(self):
        r0 = DensityMatrix.from_state(basis_state(2, 0))
        r1 = DensityMatrix.from_state(basis_state(2, 1))
        assert trace_distance(r0, r1) == pytest.approx(1.0)

    def test_pure_vs_maximally_mixed(self):
        r0 = DensityMatrix.from_state(basis_state(2, 0))
        assert trace_distance(r0, DensityMatrix.maximally_mixed(2)) == pytest.approx(0.5)

    def test_bounds(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            d = trace_distance(rand_density(4, rng), rand_density(4, rng))
            assert 0.0 <= d <= 1.0


class TestDoubleCommutator:
    def test_commuting_gives_zero(self):
        rho = DensityMatrix(np.diag([0.3, 0.7]))
        assert np.allclose(double_commutator(pauli_z(), rho), 0.0, atol=1e-14)

    def test_identity_gives_zero(self):
        rho = rand_density(2, np.random.default_rng(5))
        ident = HermitianOperator(np.eye(2))
        assert np.allclose(double_commutator(ident, rho), 0.0, atol=1e-14)

    def test_offdiagonal_eigenbasis_formula(self):
        c = 0.21 + 0.13j
        rho = DensityMatrix(np.array([[0.5, c], [np.conj(c), 0.5]]))
        out = double_commutator(pauli_z(), rho)
        # (a_m - a_n)^2 rho_mn with gap 2 -> factor 4 off-diagonal, 0 diagonal
        assert out[0, 1] == pytest.approx(4 * c, abs=1e-14)
        assert abs(out[0, 0]) <= 1e-14 and abs(out[1, 1]) <= 1e-14

    def test_hermitian_and_traceless(self):
        rng = np.random.default_rng(17)
        for dim in (2, 3, 6):
            out = double_commutator(rand_hermitian(dim, rng), rand_density(dim, rng))
            assert np.max(np.abs(out - out.conj().T)) <= 1e-12
            assert abs(np.trace(out)) <= 1e-12

    @given(dim=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_bits_match_the_frozen_body(self, dim, seed):
        # double_commutator's body as it was before the master equation
        # shared it; frozen here so the shared body is held to its bits
        rng = np.random.default_rng(seed)
        a, rho = rand_hermitian(dim, rng), rand_density(dim, rng)
        am, rm = a.entries, rho.entries
        ref = am @ (am @ rm) - 2.0 * (am @ rm @ am) + (rm @ am) @ am
        assert double_commutator(a, rho).tobytes() == ref.tobytes()
