import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeas import lindblad as lindblad_mod
from qmeas.errors import IntegrationError, ValidationError
from qmeas.hilbert import (
    DensityMatrix,
    HermitianOperator,
    NonHermitianOperator,
    basis_state,
    pauli_x,
    pauli_z,
    plus_state,
)
from qmeas.lindblad import (
    LindbladModel,
    integrate_lindblad,
    kappa_from_atoms,
    kappa_from_brownian,
    lindblad_exact,
    lindblad_rhs,
)
from qmeas.readout import TimeGrid

H_ZERO = HermitianOperator(np.zeros((2, 2)))


def test_one_model_type_for_every_description():
    import qmeas
    from qmeas.chm import MonitoringModel
    from qmeas.experiments import DrivenTwoLevel

    assert LindbladModel is MonitoringModel is qmeas.MonitoringModel is qmeas.LindbladModel
    assert DrivenTwoLevel.lindblad_model is DrivenTwoLevel.monitoring_model
    with pytest.raises(ValidationError, match="kappa must be positive and finite"):
        LindbladModel(H_ZERO, pauli_z(), float("inf"))


class TestRhs:
    def test_diagonal_state_untouched_by_dephasing(self):
        model = LindbladModel(H_ZERO, pauli_z(), 1.3)
        rho = DensityMatrix(np.diag([0.2, 0.8]))
        assert np.allclose(lindblad_rhs(model, rho), 0.0, atol=1e-14)

    def test_offdiagonal_decay_rate(self):
        model = LindbladModel(H_ZERO, pauli_z(), 0.5)
        rho = DensityMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
        out = lindblad_rhs(model, rho)
        # -(kappa/2) (gap)^2 rho01 = -2 kappa rho01 = -0.5
        assert out[0, 1] == pytest.approx(-0.5, abs=1e-14)

    def test_identity_observable_is_pure_unitary(self):
        model = LindbladModel(pauli_x(), HermitianOperator(np.eye(2)), 1.0)
        rho = DensityMatrix(np.array([[0.5, 0.2], [0.2, 0.5]]))
        h, r = pauli_x().entries, rho.entries
        assert np.allclose(lindblad_rhs(model, rho), -1j * (h @ r - r @ h), atol=1e-14)

    def test_hermitian_traceless(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        model = LindbladModel(
            HermitianOperator(0.5 * (m + m.conj().T)),
            HermitianOperator(np.diag([0.0, 1.0, 3.0])),
            0.7,
        )
        w = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rho = DensityMatrix((w @ w.conj().T) / np.trace(w @ w.conj().T).real)
        out = lindblad_rhs(model, rho)
        assert np.max(np.abs(out - out.conj().T)) <= 1e-12
        assert abs(np.trace(out)) <= 1e-12


class TestIntegration:
    def test_dephasing_closed_form(self):
        model = LindbladModel(H_ZERO, pauli_z(), 0.5)
        rho0 = DensityMatrix.from_state(plus_state(2))
        out = integrate_lindblad(model, rho0, TimeGrid(0.0, 0.005, 200))
        assert out[-1].entries[0, 1].real == pytest.approx(0.5 * np.exp(-1.0), rel=1e-8)

    def test_unitary_limit_full_flip(self):
        # kappa -> 0 limit: tiny kappa, H = sigma_x, T = pi/2 flips |0> to |1>
        model = LindbladModel(pauli_x(), pauli_z(), 1e-9)
        rho0 = DensityMatrix.from_state(basis_state(2, 0))
        out = integrate_lindblad(model, rho0, TimeGrid(0.0, np.pi / 2 / 500, 500))
        target = DensityMatrix.from_state(basis_state(2, 1))
        assert np.max(np.abs(out[-1].entries - target.entries)) <= 1e-7

    def test_maximally_mixed_fixed_point(self):
        model = LindbladModel(HermitianOperator(np.diag([1.0, -1.0])), pauli_z(), 2.0)
        rho0 = DensityMatrix.maximally_mixed(2)
        out = integrate_lindblad(model, rho0, TimeGrid(0.0, 0.01, 100))
        for rho in out:
            assert np.allclose(rho.entries, np.eye(2) / 2, atol=1e-12)

    def test_trace_and_hermiticity_preserved(self):
        model = LindbladModel(pauli_x(), pauli_z(), 0.5)
        rho0 = DensityMatrix.from_state(basis_state(2, 0))
        for rho in integrate_lindblad(model, rho0, TimeGrid(0.0, 0.01, 200)):
            assert abs(np.trace(rho.entries) - 1.0) <= 1e-10
            assert np.max(np.abs(rho.entries - rho.entries.conj().T)) <= 1e-10

    def test_purity_monotone_under_pure_dephasing(self):
        model = LindbladModel(HermitianOperator(np.diag([0.7, -0.7])), pauli_z(), 0.8)
        rho0 = DensityMatrix.from_state(plus_state(2))
        purities = [
            float(np.trace(r.entries @ r.entries).real)
            for r in integrate_lindblad(model, rho0, TimeGrid(0.0, 0.01, 300))
        ]
        assert all(b <= a + 1e-12 for a, b in zip(purities, purities[1:]))

    def test_fitted_decay_rate_within_half_percent(self):
        kappa = 0.8
        a = HermitianOperator(np.diag([0.5, -1.5]))  # gap 2
        model = LindbladModel(H_ZERO, a, kappa)
        dt = 0.01 / (kappa * 4)
        rho0 = DensityMatrix.from_state(plus_state(2))
        out = integrate_lindblad(model, rho0, TimeGrid(0.0, dt, 300))
        coh = np.array([abs(r.entries[0, 1]) for r in out])
        t = np.arange(301) * dt
        rate = -np.polyfit(t, np.log(coh), 1)[0]
        assert rate == pytest.approx(0.5 * kappa * 4.0, rel=0.005)

    def test_fourth_order_convergence(self):
        model = LindbladModel(pauli_x(), pauli_z(), 0.5)
        rho0 = DensityMatrix.from_state(basis_state(2, 0))
        t_final = 1.0
        dts = [0.1, 0.05, 0.025, 0.0125]
        ref = integrate_lindblad(
            model, rho0, TimeGrid(0.0, dts[-1] / 16, int(round(t_final / (dts[-1] / 16))))
        )[-1]
        errs = []
        for dt in dts:
            out = integrate_lindblad(model, rho0, TimeGrid(0.0, dt, int(round(t_final / dt))))
            errs.append(np.max(np.abs(out[-1].entries - ref.entries)))
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert slope == pytest.approx(4.0, abs=0.2)

    def test_positivity_abort_on_oversized_step(self):
        model = LindbladModel(H_ZERO, pauli_z(), 100.0)
        rho0 = DensityMatrix.from_state(plus_state(2))
        with pytest.raises(IntegrationError):
            integrate_lindblad(model, rho0, TimeGrid(0.0, 0.05, 50))

    def test_store_every_thins_output(self):
        model = LindbladModel(pauli_x(), pauli_z(), 0.5)
        rho0 = DensityMatrix.from_state(basis_state(2, 0))
        full = integrate_lindblad(model, rho0, TimeGrid(0.0, 0.01, 100))
        thin = integrate_lindblad(model, rho0, TimeGrid(0.0, 0.01, 100), store_every=100)
        assert len(thin) == 2
        assert np.allclose(thin[-1].entries, full[-1].entries, atol=1e-14)


def random_hermitian(rng, dim, evals):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(m)
    return HermitianOperator((q * evals) @ q.conj().T)


def random_density(rng, dim, rank):
    w = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    r = w @ w.conj().T
    return DensityMatrix(r / np.trace(r).real)


class TestExactPropagator:
    @given(
        dim=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
        degenerate=st.booleans(),
        kappa=st.floats(0.1, 2.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_fine_rk4_and_stays_a_density_matrix(self, dim, seed, degenerate, kappa):
        rng = np.random.default_rng(seed)
        h = random_hermitian(rng, dim, rng.uniform(-1.0, 1.0, dim))
        if degenerate:
            a_evals = rng.choice([-1.0, 0.0, 1.0], dim)
            a_evals[1] = a_evals[0]
        else:
            a_evals = rng.uniform(-1.0, 1.0, dim)
        model = LindbladModel(h, random_hermitian(rng, dim, a_evals), kappa)
        rho0 = random_density(rng, dim, int(rng.integers(1, dim + 1)))
        t, n = 1.0, 200
        dt = t / n
        exact = lindblad_exact(model, rho0, t)
        rk4 = integrate_lindblad(model, rho0, TimeGrid(0.0, dt, n), store_every=n)[-1]
        # global RK4 error on a linear ODE with ||L|| <= lam: n steps of the
        # Taylor remainder (lam dt)^5 / 120 * exp(lam dt), plus roundoff
        lam = 2.0 * h.spectral_norm() + 2.0 * kappa * model.A.spectral_norm() ** 2
        tol = n * (lam * dt) ** 5 / 120.0 * np.exp(lam * dt) + 1e-12
        assert np.max(np.abs(exact.entries - rk4.entries)) <= tol
        e = exact.entries
        assert np.array_equal(e, e.conj().T)
        assert abs(np.trace(e) - 1.0) <= 1e-12
        assert np.min(np.linalg.eigvalsh(e)) >= -1e-9

    def test_large_dimension_rejected(self):
        d = lindblad_mod.EXACT_MAX_DIM + 1
        op = HermitianOperator(np.diag(np.arange(d, dtype=float)))
        rho0 = DensityMatrix.maximally_mixed(d)
        with pytest.raises(ValidationError, match="integrate_lindblad"):
            lindblad_exact(LindbladModel(op, op, 1.0), rho0, 1.0)

    def test_trace_drift_aborts(self, monkeypatch):
        def drifting(op, t):
            return NonHermitianOperator((1.0 + 1e-8) * np.eye(op.dim))

        monkeypatch.setattr(lindblad_mod, "matrix_exponential", drifting)
        rho0 = DensityMatrix.from_state(basis_state(2, 0))
        with pytest.raises(IntegrationError, match="split t or integrate"):
            lindblad_exact(LindbladModel(pauli_x(), pauli_z(), 0.5), rho0, 1.0)

    def test_non_finite_aborts(self, monkeypatch):
        def diverging(op, t):
            return NonHermitianOperator(np.full((op.dim, op.dim), np.nan))

        monkeypatch.setattr(lindblad_mod, "matrix_exponential", diverging)
        rho0 = DensityMatrix.from_state(basis_state(2, 0))
        with pytest.raises(IntegrationError, match="non-finite"):
            lindblad_exact(LindbladModel(pauli_x(), pauli_z(), 0.5), rho0, 1.0)


def _reference_rhs_raw(h, a, kappa, r):
    """The master-equation RHS as it was with a @ r formed twice, the form
    lindblad_rhs took through hilbert.double_commutator; frozen here so the
    version that forms it once is held to its bits."""
    dc = a @ (a @ r) - 2.0 * (a @ r @ a) + (r @ a) @ a
    return -1j * (h @ r - r @ h) - 0.5 * kappa * dc


class TestRhsBits:
    @given(
        dim=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
        degenerate=st.booleans(),
        n_steps=st.integers(1, 20),
    )
    @settings(max_examples=40, deadline=None)
    def test_integration_matches_the_frozen_rhs(self, dim, seed, degenerate, n_steps):
        rng = np.random.default_rng(seed)
        h = random_hermitian(rng, dim, rng.uniform(-1.0, 1.0, dim))
        if degenerate:
            a_evals = rng.choice([-1.0, 0.0, 1.0], dim)
            a_evals[1] = a_evals[0]
        else:
            a_evals = rng.uniform(-1.0, 1.0, dim)
        model = LindbladModel(h, random_hermitian(rng, dim, a_evals), rng.uniform(0.1, 2.0))
        rho0 = random_density(rng, dim, int(rng.integers(1, dim + 1)))
        grid = TimeGrid(0.0, rng.uniform(1e-3, 0.02), n_steps)
        args = (model.H.entries, model.A.entries, model.kappa, rho0.entries)
        assert lindblad_mod._rhs_raw(*args).tobytes() == _reference_rhs_raw(*args).tobytes()
        assert lindblad_rhs(model, rho0).tobytes() == _reference_rhs_raw(*args).tobytes()

        out = integrate_lindblad(model, rho0, grid)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(lindblad_mod, "_rhs_raw", _reference_rhs_raw)
            ref = integrate_lindblad(model, rho0, grid)
        assert len(out) == len(ref) == n_steps + 1
        for x, y in zip(out, ref):
            assert x.entries.tobytes() == y.entries.tobytes()


class TestStoredStates:
    @given(
        dim=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
        n_steps=st.integers(1, 20),
        store_every=st.integers(1, 7),
    )
    @settings(max_examples=40, deadline=None)
    def test_reused_spectrum_builds_the_public_density_matrix(
        self, dim, seed, n_steps, store_every
    ):
        # each stored state reuses the positivity abort's eigenvalue; it must
        # be the state and the eigenvalue that DensityMatrix(rho) computes
        rng = np.random.default_rng(seed)
        h = random_hermitian(rng, dim, rng.uniform(-1.0, 1.0, dim))
        a = random_hermitian(rng, dim, rng.uniform(-1.0, 1.0, dim))
        model = LindbladModel(h, a, rng.uniform(0.1, 2.0))
        rho0 = random_density(rng, dim, int(rng.integers(1, dim + 1)))
        built = []

        def recording(m, _min_eigenvalue=None):
            built.append((m.copy(), _min_eigenvalue))
            return DensityMatrix(m, _min_eigenvalue=_min_eigenvalue)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lindblad_mod, "DensityMatrix", recording)
            out = integrate_lindblad(model, rho0, TimeGrid(0.0, 0.01, n_steps), store_every)
        assert len(built) == len(out) - 1 == -(-n_steps // store_every)
        for (m, lo), state in zip(built, out[1:]):
            public = DensityMatrix(m)
            assert state.entries.tobytes() == public.entries.tobytes()
            assert lo == float(np.min(np.linalg.eigvalsh(0.5 * (m + m.conj().T))))


class TestKappaConstructors:
    def test_brownian_values(self):
        assert kappa_from_brownian(1.0, 0.5) == pytest.approx(1.0)
        assert kappa_from_brownian(0.5, 1.0) == pytest.approx(1.0)
        assert kappa_from_brownian(2.0, 3.0) == pytest.approx(12.0)

    def test_atomic_values(self):
        assert kappa_from_atoms(1.0, 2.0) == pytest.approx(1.0)
        assert kappa_from_atoms(2.0, 0.5) == pytest.approx(1.0)
        assert kappa_from_atoms(1.0, 1.0) == pytest.approx(2.0)

    def test_reject_nonpositive(self):
        with pytest.raises(ValidationError):
            kappa_from_brownian(-1.0, 1.0)
        with pytest.raises(ValidationError):
            kappa_from_atoms(1.0, 0.0)
