import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
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
        # the abort, not another guard, names the step and the dt to reduce
        with pytest.raises(IntegrationError, match=r"positivity violated at step 1 .*; dt=0\.05 "):
            integrate_lindblad(model, rho0, TimeGrid(0.0, 0.05, 50))

    @staticmethod
    def _rhs_from_step(monkeypatch, step, extra):
        """The real right-hand side, plus ``extra`` from the four RK4 stages
        of step ``step`` on."""
        real, calls = lindblad_mod._rhs_raw, []

        def rhs(h, a, kappa, r):
            calls.append(None)
            out = real(h, a, kappa, r)
            return out + extra if len(calls) > 4 * (step - 1) else out

        monkeypatch.setattr(lindblad_mod, "_rhs_raw", rhs)

    def test_rk4_trace_drift_aborts(self, monkeypatch):
        # a trace-changing term from step 3 on: the one-step drift is
        # dt * tr(extra) = 0.01 * 2e-6, above the 1e-9 bound
        self._rhs_from_step(monkeypatch, 3, 1e-6 * np.eye(2))
        rho0 = DensityMatrix.from_state(basis_state(2, 0))
        grid = TimeGrid(0.0, 0.01, 10)
        message = r"^trace drift 2e-08 at step 3 exceeds 1e-9; reduce dt$"
        with pytest.raises(IntegrationError, match=message):
            integrate_lindblad(LindbladModel(pauli_x(), pauli_z(), 0.5), rho0, grid)

    def test_rk4_non_finite_aborts(self, monkeypatch):
        self._rhs_from_step(monkeypatch, 2, np.full((2, 2), np.nan))
        rho0 = DensityMatrix.from_state(basis_state(2, 0))
        grid = TimeGrid(0.0, 0.01, 10)
        message = (
            r"^non-finite density matrix at step 2; "
            r"dt=0\.01 is too large for kappa=0\.5 \(RK4 unstable\)$"
        )
        with pytest.raises(IntegrationError, match=message):
            integrate_lindblad(LindbladModel(pauli_x(), pauli_z(), 0.5), rho0, grid)


def random_hermitian(rng, dim, evals):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(m)
    return HermitianOperator((q * evals) @ q.conj().T)


def random_density(rng, dim, rank):
    w = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    r = w @ w.conj().T
    return DensityMatrix(r / np.trace(r).real)


# kappa*dt*(spread of A)^2 = 5.5706 puts the coherence's RK4 factor just past
# the real-axis stability edge z = -2.785: the lowest eigenvalue after one
# step is -7.5e-7, below the one bound -1e-9 by less than 1e-6
WINDOW = (
    LindbladModel(H_ZERO, pauli_z(), 139.264728),
    DensityMatrix.from_state(plus_state(2)),
    TimeGrid(0.0, 0.01, 1),
)


@st.composite
def _histories(draw):
    """(model, initial state, grid) with random H and A in d 2-8, A
    degenerate in about half, and kappa*dt*(spread of A)^2 from 1 to 12, on
    both sides of RK4's real-axis stability edge at 2 * 2.785."""
    dim = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        a_evals = rng.choice([-1.0, 0.0, 1.0], dim)
        a_evals[1] = a_evals[0]
    else:
        a_evals = rng.uniform(-1.0, 1.0, dim)
    spread = float(np.ptp(a_evals)) or 1.0
    dt = draw(st.floats(1e-3, 0.05))
    kappa = draw(st.floats(1.0, 12.0)) / (dt * spread**2)
    h = random_hermitian(rng, dim, rng.uniform(-1.0, 1.0, dim))
    model = LindbladModel(h, random_hermitian(rng, dim, a_evals), kappa)
    rho0 = random_density(rng, dim, int(rng.integers(1, dim + 1)))
    return model, rho0, TimeGrid(0.0, dt, draw(st.integers(1, 30)))


class TestOneBound:
    """The history holds the DensityMatrix bound itself: a state it cannot
    hold is a numerical failure that names its step, never a ValidationError."""

    def test_window_between_the_old_bounds_is_a_numerical_failure(self):
        model, rho0, grid = WINDOW
        message = (
            r"^positivity violated at step 1 \(eigenvalue -7\.51e-07 < -1e-09\); "
            r"dt=0\.01 is too large for the dissipation rate ~139\*\(spread of A\)\^2$"
        )
        with pytest.raises(IntegrationError, match=message):
            integrate_lindblad(model, rho0, grid)

    @given(case=_histories())
    @example(case=WINDOW)
    @settings(max_examples=60, deadline=None)
    def test_a_history_holds_or_fails_numerically(self, case):
        model, rho0, grid = case
        try:
            out = integrate_lindblad(model, rho0, grid)
        except IntegrationError as exc:
            assert " at step " in str(exc)
            return
        assert len(out) == grid.n_steps + 1
        for rho in out:
            assert isinstance(rho, DensityMatrix)
            DensityMatrix(rho.entries)


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
        rk4 = integrate_lindblad(model, rho0, TimeGrid(0.0, dt, n))[-1]
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

    def test_positivity_aborts(self, monkeypatch):
        # coherences of |+><+| tripled, the trace kept: eigenvalues 2 and -1
        def non_positive(op, t):
            return NonHermitianOperator(np.diag([1.0, 3.0, 3.0, 1.0]))

        monkeypatch.setattr(lindblad_mod, "matrix_exponential", non_positive)
        rho0 = DensityMatrix.from_state(plus_state(2))
        message = (
            r"^positivity violated at step 1 \(eigenvalue -1 < -1e-09\); "
            r"split t or integrate with integrate_lindblad$"
        )
        with pytest.raises(IntegrationError, match=message):
            lindblad_exact(LindbladModel(pauli_x(), pauli_z(), 0.5), rho0, 1.0)

    def test_non_finite_aborts(self, monkeypatch):
        def diverging(op, t):
            return NonHermitianOperator(np.full((op.dim, op.dim), np.nan))

        monkeypatch.setattr(lindblad_mod, "matrix_exponential", diverging)
        rho0 = DensityMatrix.from_state(basis_state(2, 0))
        with pytest.raises(IntegrationError, match="non-finite"):
            lindblad_exact(LindbladModel(pauli_x(), pauli_z(), 0.5), rho0, 1.0)


def _reference_superoperator(model):
    """L of lindblad_exact as it was, from the row-major vec identity
    vec(X rho Y) = (X kron Y^T) vec(rho); frozen here so the L assembled from
    the right-hand side is held to it."""
    d = model.dim
    h = model.H.entries
    a = model.A.entries
    a2 = a @ a
    eye = np.eye(d)
    return -1j * (np.kron(h, eye) - np.kron(eye, h.T)) - 0.5 * model.kappa * (
        np.kron(a2, eye) - 2.0 * np.kron(a, a.T) + np.kron(eye, a2.T)
    )


def _assembled_superoperator(model, rho0):
    """The L that lindblad_exact hands to the matrix exponential."""
    seen = []
    expm = lindblad_mod.matrix_exponential

    def recording(op, t):
        seen.append(op.entries)
        return expm(op, t)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lindblad_mod, "matrix_exponential", recording)
        lindblad_exact(model, rho0, 1.0)
    (sup,) = seen
    return sup


class TestSuperoperatorAssembly:
    @pytest.mark.parametrize("kappa", [0.1, 1.0, 10.0, 100.0])
    def test_zeno_models_keep_the_kron_bits(self, kappa):
        from qmeas.experiments import DrivenTwoLevel

        system = DrivenTwoLevel(level_splitting=2.0, rabi=1.0, kappa=kappa)
        model = system.monitoring_model()
        sup = _assembled_superoperator(model, DensityMatrix.from_state(system.ground_state()))
        assert sup.tobytes() == _reference_superoperator(model).tobytes()

    @given(
        dim=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
        degenerate=st.booleans(),
        log_kappa=st.floats(np.log(0.1), np.log(100.0)),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_models_match_the_kron_form(self, dim, seed, degenerate, log_kappa):
        rng = np.random.default_rng(seed)
        h = random_hermitian(rng, dim, rng.uniform(-1.0, 1.0, dim))
        if degenerate:
            a_evals = rng.choice([-1.0, 0.0, 1.0], dim)
            a_evals[1] = a_evals[0]
        else:
            a_evals = rng.uniform(-1.0, 1.0, dim)
        model = LindbladModel(h, random_hermitian(rng, dim, a_evals), float(np.exp(log_kappa)))
        sup = _assembled_superoperator(model, DensityMatrix.maximally_mixed(dim))
        # the two forms sum A^2 in different orders; over 10,000 such models
        # (d 2-8, kappa 0.1-100) they differed by at most 2.13 eps times the
        # scale ||H|| + kappa ||A||^2
        scale = h.spectral_norm() + model.kappa * model.A.spectral_norm() ** 2
        bound = 4.0 * np.finfo(float).eps * scale
        assert np.max(np.abs(sup - _reference_superoperator(model))) <= bound


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


def _reference_integrate(model, rho0, grid):
    """integrate_lindblad as it was, checking each step alone before the next
    one and building each DensityMatrix on its own, with the one positivity
    bound of DensityMatrix (-1e-9); frozen here so that the block-checked
    stack is held to its bits and its errors. It steps through
    the module's _rk4 and _rhs_raw, so a test that patches them patches both."""
    h, a, kappa, dt = model.H.entries, model.A.entries, model.kappa, grid.dt
    rho = rho0.entries.copy()
    out = [rho0]
    unstable = f"dt={dt:.3g} is too large for kappa={kappa:.3g} (RK4 unstable)"
    for k in range(grid.n_steps):
        rho = lindblad_mod._rk4(lambda r: lindblad_mod._rhs_raw(h, a, kappa, r), rho, dt)
        if not np.all(np.isfinite(rho)):
            raise IntegrationError(f"non-finite density matrix at step {k + 1}; {unstable}")
        drift = abs(complex(np.trace(rho)) - 1.0)
        if drift > 1e-9:
            raise IntegrationError(f"trace drift {drift:.3g} at step {k + 1} exceeds 1e-9; reduce dt")
        rho = 0.5 * (rho + rho.conj().T)
        rho = rho / np.trace(rho).real
        lo = float(np.min(np.linalg.eigvalsh(rho)))
        if lo < -1e-9:
            raise IntegrationError(
                f"positivity violated at step {k + 1} (eigenvalue {lo:.3g} < -1e-09); "
                f"dt={dt:.3g} is too large for the dissipation rate ~{kappa:.3g}*(spread of A)^2"
            )
        out.append(DensityMatrix(rho))
    return out


class TestStoredStates:
    @given(
        dim=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
        degenerate=st.booleans(),
        per_block=st.integers(1, 6),
        blocks=st.integers(2, 4),
        extra=st.integers(0, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_block_checks_keep_the_per_step_bits(self, dim, seed, degenerate, per_block, blocks, extra):
        # per_block steps a block, and a grid of more than one block
        rng = np.random.default_rng(seed)
        h = random_hermitian(rng, dim, rng.uniform(-1.0, 1.0, dim))
        if degenerate:
            a_evals = rng.choice([-1.0, 0.0, 1.0], dim)
            a_evals[1] = a_evals[0]
        else:
            a_evals = rng.uniform(-1.0, 1.0, dim)
        model = LindbladModel(h, random_hermitian(rng, dim, a_evals), rng.uniform(0.1, 2.0))
        rho0 = random_density(rng, dim, int(rng.integers(1, dim + 1)))
        n_steps = (blocks - 1) * per_block + 1 + min(extra, per_block - 1)
        grid = TimeGrid(0.0, rng.uniform(1e-3, 0.02), n_steps)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lindblad_mod, "BLOCK_CELLS", per_block * dim * dim)
            assert len(lindblad_mod._blocks(n_steps, dim)) == blocks
            out = integrate_lindblad(model, rho0, grid)
        ref = _reference_integrate(model, rho0, grid)
        assert out[0] is rho0
        assert len(out) == len(ref) == n_steps + 1
        for x, y in zip(out, ref):
            assert x.entries.tobytes() == y.entries.tobytes()
            assert x.dim == dim and not x.entries.flags.writeable

    @pytest.mark.parametrize("dim,n_steps", [(8, 2 * 128 + 5), (64, 5)])
    def test_default_blocks_keep_the_per_step_bits(self, dim, n_steps):
        # BLOCK_CELLS = 8192 makes blocks of 128 steps at d = 8 and 2 at d = 64
        rng = np.random.default_rng(dim)
        h = random_hermitian(rng, dim, rng.uniform(-1.0, 1.0, dim))
        model = LindbladModel(h, random_hermitian(rng, dim, rng.uniform(-1.0, 1.0, dim)), 0.5)
        rho0 = random_density(rng, dim, 2)
        grid = TimeGrid(0.0, 0.01, n_steps)
        assert len(lindblad_mod._blocks(n_steps, dim)) == 3
        out = integrate_lindblad(model, rho0, grid)
        ref = _reference_integrate(model, rho0, grid)
        assert [x.entries.tobytes() for x in out] == [y.entries.tobytes() for y in ref]

    @given(
        dim=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
        n_steps=st.integers(1, 20),
    )
    @settings(max_examples=40, deadline=None)
    def test_stack_builds_the_public_density_matrix(self, dim, seed, n_steps):
        # the stored states are checked as one stack per block, reusing the
        # positivity abort's eigenvalues; each must be the state and the
        # eigenvalue that DensityMatrix(rho) computes
        rng = np.random.default_rng(seed)
        h = random_hermitian(rng, dim, rng.uniform(-1.0, 1.0, dim))
        a = random_hermitian(rng, dim, rng.uniform(-1.0, 1.0, dim))
        model = LindbladModel(h, a, rng.uniform(0.1, 2.0))
        rho0 = random_density(rng, dim, int(rng.integers(1, dim + 1)))
        built = []
        stack = lindblad_mod._density_stack

        def recording(m, min_eigenvalues=None):
            built.extend(zip(m.copy(), min_eigenvalues))
            return stack(m, min_eigenvalues)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lindblad_mod, "_density_stack", recording)
            out = integrate_lindblad(model, rho0, TimeGrid(0.0, 0.01, n_steps))
        assert len(built) == len(out) - 1 == n_steps
        for (m, lo), state in zip(built, out[1:]):
            public = DensityMatrix(m)
            assert state.entries.tobytes() == public.entries.tobytes()
            assert lo == float(np.min(np.linalg.eigvalsh(0.5 * (m + m.conj().T))))


class TestBlockGuards:
    """A failing run raises the error of its first failing step, with the
    type and text of the frozen per-step loop, and steps at most to the end
    of that step's block."""

    MODEL = LindbladModel(pauli_x(), pauli_z(), 0.5)
    RHO0 = DensityMatrix.from_state(basis_state(2, 0))

    @staticmethod
    def _both(monkeypatch, step, fault, model, rho0, grid):
        """[(text, steps run)] of integrate_lindblad and of the frozen loop,
        each run with RK4 results passed through ``fault`` from step ``step``
        on and numpy warnings raised as errors; both raise IntegrationError."""
        real = lindblad_mod._rk4
        got = []
        for run in (integrate_lindblad, _reference_integrate):
            steps = []

            def rk4(f, y, dt):
                steps.append(None)
                out = real(f, y, dt)
                return fault(out) if len(steps) >= step else out

            monkeypatch.setattr(lindblad_mod, "_rk4", rk4)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(IntegrationError) as info:
                    run(model, rho0, grid)
            got.append((str(info.value), len(steps)))
        return got

    def test_drift_in_a_later_block_reports_its_own_step(self, monkeypatch):
        # four steps a block; a trace drift of 2e-8 from step 6 on
        monkeypatch.setattr(lindblad_mod, "BLOCK_CELLS", 16)
        grid = TimeGrid(0.0, 0.01, 12)
        new, frozen = self._both(monkeypatch, 6, lambda r: r + 1e-8 * np.eye(2), self.MODEL, self.RHO0, grid)
        assert new == ("trace drift 2e-08 at step 6 exceeds 1e-9; reduce dt", 8)
        assert frozen == (new[0], 6)

    def test_positivity_before_non_finite_in_one_block(self, monkeypatch):
        # kappa = 100 at dt = 0.05 breaks positivity at step 1; from step 3
        # on, the states of the same block are NaN
        model = LindbladModel(H_ZERO, pauli_z(), 100.0)
        rho0 = DensityMatrix.from_state(plus_state(2))
        grid = TimeGrid(0.0, 0.05, 50)
        new, frozen = self._both(monkeypatch, 3, lambda r: np.nan * r, model, rho0, grid)
        assert new[0] == frozen[0]
        assert new[0].startswith("positivity violated at step 1 (eigenvalue ")
        assert new[1] == 50 and frozen[1] == 1

    @pytest.mark.parametrize(
        "fault", [lambda r: np.full_like(r, np.nan), lambda r: r + np.diag([np.inf, 0.0])]
    )
    def test_non_finite_state_raises_the_non_finite_text(self, monkeypatch, fault):
        # the states from step 2 on are non-finite, and the stacked eigvalsh
        # sees them all; it must not raise LinAlgError
        grid = TimeGrid(0.0, 0.01, 10)
        new, frozen = self._both(monkeypatch, 2, fault, self.MODEL, self.RHO0, grid)
        assert new[0] == frozen[0] == (
            "non-finite density matrix at step 2; dt=0.01 is too large for kappa=0.5 (RK4 unstable)"
        )

    def test_zero_trace_step_raises_the_drift_text(self, monkeypatch):
        # a finite RK4 result of trace 0 has no finite renormalization; the
        # drift check before it names the step
        grid = TimeGrid(0.0, 0.01, 10)
        new, frozen = self._both(monkeypatch, 2, np.zeros_like, self.MODEL, self.RHO0, grid)
        assert new[0] == frozen[0] == "trace drift 1 at step 2 exceeds 1e-9; reduce dt"


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
