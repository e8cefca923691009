import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeas import lindblad as lindblad_mod
from qmeas.chm import (
    RESOLUTION_GUARD,
    SUBSTEP_TARGET,
    MonitoringModel,
    PartialPropagator,
    effective_hamiltonian,
    generalized_unitarity_defect,
    marginalize_readouts,
    ode_propagator,
    propagate_chm,
    propagate_chm_series,
    single_step_log_density,
    sliced_propagator,
)
from qmeas.errors import (
    IntegrationError,
    QuadratureError,
    ResolutionMismatchError,
    ValidationError,
)
from qmeas.hilbert import (
    DensityMatrix,
    HermitianOperator,
    NonHermitianOperator,
    QuantumState,
    basis_state,
    pauli_x,
    pauli_z,
    plus_state,
    trace_distance,
)
from qmeas.hilbert import _expm
from qmeas.lindblad import LindbladModel, integrate_lindblad
from qmeas.readout import (
    FuzzySlice,
    ReadoutRecord,
    TimeGrid,
    constant_record,
    reference_log_weight,
)

H_ZERO = HermitianOperator(np.zeros((2, 2)))


class TestEffectiveHamiltonian:
    def test_dephasing_on_mismatched_eigenvalue(self):
        model = MonitoringModel(H_ZERO, pauli_z(), 1.0)
        out = effective_hamiltonian(model, 1.0)
        assert np.allclose(out.entries, -1j * np.diag([0.0, 4.0]), atol=1e-14)

    def test_proportional_observable_gives_plain_hamiltonian(self):
        model = MonitoringModel(pauli_x(), HermitianOperator(np.eye(2)), 1.0)
        out = effective_hamiltonian(model, 1.0)
        assert np.allclose(out.entries, pauli_x().entries, atol=1e-14)

    def test_uniform_damping(self):
        model = MonitoringModel(pauli_x(), pauli_z(), 0.5)
        out = effective_hamiltonian(model, 0.0)
        assert np.allclose(out.entries, pauli_x().entries - 0.5j * np.eye(2), atol=1e-14)

    def test_anti_hermitian_part_negative_semidefinite(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        model = MonitoringModel(
            HermitianOperator(0.5 * (m + m.conj().T)),
            HermitianOperator(np.diag([-1.0, 0.0, 2.0])),
            0.9,
        )
        out = effective_hamiltonian(model, 0.3).entries
        anti = (out - out.conj().T) / 2j
        assert np.max(np.linalg.eigvalsh(anti)) <= 1e-12


class TestPropagate:
    def test_closed_form_damping(self):
        model = MonitoringModel(H_ZERO, pauli_z(), 0.5)
        rec = constant_record(TimeGrid(0.0, 0.05, 20), 1.0)
        state, density = propagate_chm(model, plus_state(2), rec)
        # +1 component undamped, -1 damped at rate kappa*4 = 2 over T=1
        norm_sq = np.exp(2 * state.log_norm)
        assert norm_sq == pytest.approx((1 + np.exp(-4.0)) / 2, rel=1e-6)
        ratio = abs(state.amplitudes[1] / state.amplitudes[0])
        assert ratio == pytest.approx(np.exp(-2.0), rel=1e-6)

    def test_matching_eigenstate_undamped(self):
        model = MonitoringModel(HermitianOperator(np.diag([0.3, -0.3])), pauli_z(), 1.0)
        rec = constant_record(TimeGrid(0.0, 0.1, 10), 1.0)
        state, _ = propagate_chm(model, basis_state(2, 0), rec)
        assert state.log_norm == pytest.approx(0.0, abs=1e-9)
        assert abs(state.amplitudes[0]) == pytest.approx(1.0, abs=1e-9)

    def test_identity_observable_pure_unitary(self):
        model = MonitoringModel(pauli_x(), HermitianOperator(np.eye(2)), 3.0)
        rec = constant_record(TimeGrid(0.0, 0.02, 25), 1.0)
        state, _ = propagate_chm(model, basis_state(2, 0), rec)
        assert state.log_norm == pytest.approx(0.0, abs=1e-9)
        # exp(-i sx T)|0> with T = 0.5
        assert abs(state.amplitudes[0]) == pytest.approx(np.cos(0.5), rel=1e-8)

    def test_resolution_guard(self):
        model = MonitoringModel(H_ZERO, pauli_z(), 1.0)
        rec = constant_record(TimeGrid(0.0, 0.1, 5), 2.0)  # kappa*(1+2)^2*dt = 0.9
        with pytest.raises(ResolutionMismatchError, match="reduce the record dt or kappa"):
            propagate_chm(model, plus_state(2), rec)

    def test_resolution_guard_through_series(self):
        # propagate_chm_series is the path the chm CLI scenario takes
        model = MonitoringModel(H_ZERO, pauli_z(), 1.0)
        rec = constant_record(TimeGrid(0.0, 0.1, 5), 2.0)
        with pytest.raises(ResolutionMismatchError, match="exceeds 0.5; .*reduce the record dt"):
            propagate_chm_series(model, plus_state(2), rec)

    def test_contraction_log_norm_never_positive(self):
        rng = np.random.default_rng(9)
        model = MonitoringModel(pauli_x(), pauli_z(), 0.8)
        for _ in range(5):
            vals = rng.uniform(-1.5, 1.5, size=12)
            rec = ReadoutRecord(TimeGrid(0.0, 0.05, 12), vals)
            state, _ = propagate_chm(model, plus_state(2), rec)
            assert state.log_norm <= 1e-9

    def test_series_matches_endpoint(self):
        model = MonitoringModel(pauli_x(), pauli_z(), 0.5)
        rec = constant_record(TimeGrid(0.0, 0.05, 10), 0.5)
        state, _ = propagate_chm(model, plus_state(2), rec)
        logs, amps = propagate_chm_series(model, plus_state(2), rec)
        assert logs[-1] == state.log_norm
        assert np.array_equal(amps[-1], state.amplitudes)

    def test_eigenstate_selectivity_rate(self):
        # component at a_n decays at kappa*(a_n - a_m)^2 when recording a_m
        kappa = 0.6
        model = MonitoringModel(HermitianOperator(np.diag([0.4, -0.4])), pauli_z(), kappa)
        n, dt = 400, 0.005
        rec = constant_record(TimeGrid(0.0, dt, n), 1.0)
        logs, amps = propagate_chm_series(model, plus_state(2), rec)
        # reconstruct unnormalized component magnitudes
        mags = np.abs(amps[:, 1]) * np.exp(logs)
        t = np.arange(n + 1) * dt
        rate = -np.polyfit(t, np.log(mags), 1)[0]
        assert rate == pytest.approx(kappa * 4.0, rel=0.005)


def _reference_rk4(gen, m, dt, n_sub):
    h = dt / n_sub
    for _ in range(n_sub):
        k1 = gen @ m
        k2 = gen @ (m + 0.5 * h * k1)
        k3 = gen @ (m + 0.5 * h * k2)
        k4 = gen @ (m + h * k3)
        m = m + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return m


def _reference_slices(model, record, min_substeps):
    """(generator, substep count) of each record slice, both norms taken per
    slice as the separate loops of propagate_chm, propagate_chm_series and
    ode_propagator did; frozen here so the merged loop is held to it."""
    for a in record.values:
        shifted = model.A.entries - float(a) * np.eye(model.dim)
        gen = -1j * model.H.entries - model.kappa * (shifted @ shifted)
        stiffness = (
            model.kappa * (model.A.spectral_norm() + abs(float(a))) ** 2 + model.H.spectral_norm()
        )
        auto = int(np.ceil(stiffness * record.grid.dt / SUBSTEP_TARGET))
        yield gen, max(min_substeps, auto, 1)


def _reference_series(model, psi0, record):
    psi, log_norm = psi0.amplitudes.copy(), psi0.log_norm
    amps, logs = [psi], [log_norm]
    for gen, n_sub in _reference_slices(model, record, 1):
        psi = _reference_rk4(gen, psi, record.grid.dt, n_sub)
        n = float(np.linalg.norm(psi))
        log_norm += np.log(n)
        psi = psi / n
        amps.append(psi)
        logs.append(log_norm)
    return np.array(logs), np.array(amps)


def _random_hermitian(rng, dim, evals):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return HermitianOperator((q * evals) @ q.conj().T)


class TestMergedRecordLoop:
    @given(
        dim=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
        degenerate=st.booleans(),
        n_steps=st.integers(1, 30),
    )
    @settings(max_examples=60, deadline=None)
    def test_bits_match_the_per_slice_loops(self, dim, seed, degenerate, n_steps):
        rng = np.random.default_rng(seed)
        h = _random_hermitian(rng, dim, rng.uniform(-1.0, 1.0, dim))
        if degenerate:
            a_evals = rng.choice([-1.0, 0.0, 1.0], dim)
            a_evals[1] = a_evals[0]
        else:
            a_evals = rng.uniform(-1.0, 1.0, dim)
        model = MonitoringModel(h, _random_hermitian(rng, dim, a_evals), rng.uniform(0.1, 2.0))
        dt = rng.uniform(1e-3, 0.05)
        # largest |a| that keeps kappa*(||A|| + |a|)^2*dt within the guard
        a_lim = 0.99 * np.sqrt(RESOLUTION_GUARD / (model.kappa * dt)) - model.A.spectral_norm()
        rec = ReadoutRecord(TimeGrid(0.0, dt, n_steps), rng.uniform(-a_lim, a_lim, n_steps))
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi0 = QuantumState.from_vector(v, rng.uniform(-1.0, 1.0))

        ref_logs, ref_amps = _reference_series(model, psi0, rec)
        logs, amps = propagate_chm_series(model, psi0, rec)
        assert np.array_equal(logs, ref_logs) and np.array_equal(amps, ref_amps)
        state, density = propagate_chm(model, psi0, rec)
        assert state.log_norm == ref_logs[-1] and np.array_equal(state.amplitudes, ref_amps[-1])
        assert density.log_density == 2.0 * ref_logs[-1] + reference_log_weight(rec, model.kappa)

    def test_norms_taken_once_per_record(self, monkeypatch):
        calls = []
        real = HermitianOperator.spectral_norm

        def counted(op):
            calls.append(op)
            return real(op)

        monkeypatch.setattr(HermitianOperator, "spectral_norm", counted)
        model = MonitoringModel(pauli_x(), pauli_z(), 0.5)
        rec = ReadoutRecord(TimeGrid(0.0, 0.01, 50), np.linspace(-1.0, 1.0, 50))
        propagate_chm(model, plus_state(2), rec)
        propagate_chm_series(model, plus_state(2), rec)
        ode_propagator(model, rec)
        assert len(calls) == 4

    @pytest.mark.parametrize("propagate", [propagate_chm, propagate_chm_series])
    @pytest.mark.parametrize(
        "bad_norm, message",
        [
            (np.nan, "state norm lost at record step 3; reduce the record dt or kappa"),
            (0.0, "state norm lost at record step 3; reduce the record dt or kappa"),
            (1.0 + 1e-3, "norm grew by 0.001 in record step 3; .*reduce the record dt or kappa"),
        ],
    )
    def test_norm_checks_trip(self, monkeypatch, propagate, bad_norm, message):
        steps = []

        def rk4(gen, m, dt, n_sub):
            steps.append(n_sub)
            if len(steps) < 3:
                return m
            return np.full(m.shape, bad_norm / np.sqrt(m.size), dtype=complex)

        monkeypatch.setattr("qmeas.chm._rk4", rk4)
        model = MonitoringModel(pauli_x(), pauli_z(), 0.5)
        rec = constant_record(TimeGrid(0.0, 0.01, 10), 0.2)
        with pytest.raises(IntegrationError, match=message):
            propagate(model, plus_state(2), rec)


def _reference_sliced(model, record):
    """sliced_propagator with the exponential kernel called directly on the
    raw matrix; frozen here so the route through matrix_exponential is held
    to its bits."""
    dt = record.grid.dt
    u = _expm(-1j * model.H.entries * dt)
    evals, q = model.A.eigh()
    prod = np.eye(model.dim, dtype=complex)
    cache = {}
    for a in record.values:
        a = float(a)
        step = cache.get(a)
        if step is None:
            r = (q * np.exp(-model.kappa * (evals - a) ** 2 * dt)) @ q.conj().T
            step = u @ r
            cache[a] = step
        prod = step @ prod
    return prod


def _reference_single_step(model, a, dt, psi0):
    grid = TimeGrid(t0=0.0, dt=dt, n_steps=1)
    evals, q = model.A.eigh()
    r = (q * np.exp(-model.kappa * (evals - a) ** 2 * dt)) @ q.conj().T
    v = _expm(-1j * model.H.entries * dt) @ (r @ psi0.amplitudes)
    n = float(np.linalg.norm(v))
    return 2.0 * np.log(n) + reference_log_weight(constant_record(grid, a), model.kappa)


def _reference_marginalized(model, rho0, grid, quad_order):
    slice_kernel = FuzzySlice(model.A, model.kappa, grid.dt)
    q, kernel = slice_kernel.q, slice_kernel.dephasing_kernel(quad_order)
    u_half = _expm(-0.5j * model.H.entries * grid.dt)
    qh = q.conj().T
    rho = rho0.entries.copy()
    out = [rho]
    for _ in range(grid.n_steps):
        rho = u_half @ rho @ u_half.conj().T
        rho = q @ (kernel * (qh @ rho @ q)) @ qh
        rho = u_half @ rho @ u_half.conj().T
        rho = 0.5 * (rho + rho.conj().T)
        rho = rho / np.trace(rho).real
        out.append(DensityMatrix(rho).entries)
    return out


class TestExpmRouting:
    @given(
        dim=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
        degenerate=st.booleans(),
        n_steps=st.integers(1, 20),
    )
    @settings(max_examples=40, deadline=None)
    def test_bits_match_direct_kernel_calls(self, dim, seed, degenerate, n_steps):
        rng = np.random.default_rng(seed)
        h = _random_hermitian(rng, dim, rng.uniform(-1.0, 1.0, dim))
        if degenerate:
            a_evals = rng.choice([-1.0, 0.0, 1.0], dim)
            a_evals[1] = a_evals[0]
        else:
            a_evals = rng.uniform(-1.0, 1.0, dim)
        model = MonitoringModel(h, _random_hermitian(rng, dim, a_evals), rng.uniform(0.1, 2.0))
        dt = rng.uniform(1e-3, 0.05)
        grid = TimeGrid(0.0, dt, n_steps)
        # repeated values exercise the per-value cache of sliced_propagator
        rec = ReadoutRecord(grid, rng.choice(rng.uniform(-2.0, 2.0, 4), n_steps))
        psi0 = QuantumState.from_vector(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        rho0 = DensityMatrix.from_state(psi0)

        sliced = sliced_propagator(model, rec).matrix.entries
        assert sliced.tobytes() == _reference_sliced(model, rec).tobytes()
        a = float(rec.values[0])
        assert single_step_log_density(model, a, dt, psi0) == _reference_single_step(
            model, a, dt, psi0
        )
        # an array of readouts gives each readout the bits of its own call
        many = single_step_log_density(model, rec.values, dt, psi0)
        one_by_one = [_reference_single_step(model, float(x), dt, psi0) for x in rec.values]
        assert many.tobytes() == np.array(one_by_one).tobytes()
        out = marginalize_readouts(model, rho0, grid, 40)
        ref = _reference_marginalized(model, rho0, grid, 40)
        assert len(out) == len(ref) == n_steps + 1
        for x, y in zip(out, ref):
            assert x.entries.tobytes() == y.tobytes()


def _reference_exact(model, record):
    """ode_propagator as the product of the exponential kernel of -i*H_eff*dt,
    one call per slice; frozen here so the shared slice-product loop is held
    to it."""
    prod = np.eye(model.dim, dtype=complex)
    for a in record.values:
        shifted = model.A.entries - float(a) * np.eye(model.dim)
        heff = model.H.entries - 1j * model.kappa * (shifted @ shifted)
        prod = _expm(-1j * heff * record.grid.dt) @ prod
    return prod


def _random_model(rng, dim, degenerate):
    h = _random_hermitian(rng, dim, rng.uniform(-1.0, 1.0, dim))
    if degenerate:
        a_evals = rng.choice([-1.0, 0.0, 1.0], dim)
        a_evals[1] = a_evals[0]
    else:
        a_evals = rng.uniform(-1.0, 1.0, dim)
    return MonitoringModel(h, _random_hermitian(rng, dim, a_evals), rng.uniform(0.1, 2.0))


class TestExactSliceProduct:
    @given(
        dim=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
        degenerate=st.booleans(),
        n_runs=st.integers(1, 8),
    )
    @settings(max_examples=40, deadline=None)
    def test_bits_match_per_slice_expm(self, dim, seed, degenerate, n_runs):
        rng = np.random.default_rng(seed)
        model = _random_model(rng, dim, degenerate)
        # piecewise constant runs drawn from three values, so values repeat
        # within a run and across runs
        levels = rng.uniform(-2.0, 2.0, 3)
        values = np.repeat(rng.choice(levels, n_runs), rng.integers(1, 6, n_runs))
        rec = ReadoutRecord(TimeGrid(0.0, rng.uniform(1e-3, 0.05), values.size), values)
        assert ode_propagator(model, rec).tobytes() == _reference_exact(model, rec).tobytes()

    # Over 10,000 cases drawn as below (also on numpy's AVX2 code path) the
    # product stood within 0.76 n eps of the one-shot exponential in the
    # spectral norm; the bound is twice that.
    @given(
        dim=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
        degenerate=st.booleans(),
        n_steps=st.integers(1, 200),
    )
    @settings(max_examples=40, deadline=None)
    def test_constant_record_is_one_exponential(self, dim, seed, degenerate, n_steps):
        from scipy.linalg import expm

        rng = np.random.default_rng(seed)
        model = _random_model(rng, dim, degenerate)
        dt, a = rng.uniform(1e-3, 0.05), rng.uniform(-2.0, 2.0)
        prod = ode_propagator(model, constant_record(TimeGrid(0.0, dt, n_steps), a))
        exact = expm(-1j * effective_hamiltonian(model, a).entries * (n_steps * dt))
        assert np.linalg.norm(prod - exact, 2) <= 1.5 * n_steps * np.finfo(float).eps


class TestMarginalizedStates:
    @given(
        dim=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
        n_steps=st.integers(1, 10),
    )
    @settings(max_examples=30, deadline=None)
    def test_stack_builds_the_public_density_matrix(self, dim, seed, n_steps):
        # the states are checked as one stack per block, reusing the
        # positivity abort's eigenvalues; each must be the state and the
        # eigenvalue that DensityMatrix(rho) computes
        rng = np.random.default_rng(seed)
        h = _random_hermitian(rng, dim, rng.uniform(-1.0, 1.0, dim))
        a = _random_hermitian(rng, dim, rng.uniform(-1.0, 1.0, dim))
        model = MonitoringModel(h, a, rng.uniform(0.1, 2.0))
        psi0 = QuantumState.from_vector(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        built = []
        stack = lindblad_mod._density_stack

        def recording(m, min_eigenvalues=None):
            built.extend(zip(m.copy(), min_eigenvalues))
            return stack(m, min_eigenvalues)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lindblad_mod, "_density_stack", recording)
            grid = TimeGrid(0.0, rng.uniform(1e-3, 0.05), n_steps)
            out = marginalize_readouts(model, DensityMatrix.from_state(psi0), grid)
        assert len(built) == len(out) - 1 == n_steps
        for (m, lo), state in zip(built, out[1:]):
            public = DensityMatrix(m)
            assert state.entries.tobytes() == public.entries.tobytes()
            assert lo == float(np.min(np.linalg.eigvalsh(0.5 * (m + m.conj().T))))

    def test_positivity_abort_names_its_step_in_a_later_block(self, monkeypatch):
        # a kernel that grows coherences by 1 + 6e-10 a step takes the lower
        # eigenvalue of |+><+| to -3e-10 k at step k: -1.2e-9 first at step 4,
        # the second step of the second two-step block
        kernel = np.array([[1.0, 1.0 + 6e-10], [1.0 + 6e-10, 1.0]])
        monkeypatch.setattr(FuzzySlice, "dephasing_kernel", lambda self, order: kernel)
        monkeypatch.setattr(lindblad_mod, "BLOCK_CELLS", 8)
        model = MonitoringModel(H_ZERO, pauli_z(), 0.5)
        rho0 = DensityMatrix.from_state(plus_state(2))
        message = (
            r"^positivity violated at step 4 \(eigenvalue -1\.2e-09 < -1e-09\); "
            r"reduce dt or kappa, or raise quad_order$"
        )
        with pytest.raises(IntegrationError, match=message):
            marginalize_readouts(model, rho0, TimeGrid(0.0, 0.01, 6))
        out = marginalize_readouts(model, rho0, TimeGrid(0.0, 0.01, 3))
        assert float(np.min(np.linalg.eigvalsh(out[-1].entries))) < -8e-10


class TestSlicedPropagator:
    def test_commuting_case_exact(self):
        model = MonitoringModel(HermitianOperator(np.diag([1.0, -1.0])), pauli_z(), 0.7)
        rec = constant_record(TimeGrid(0.0, 0.1, 10), 0.4)
        sliced = sliced_propagator(model, rec).matrix.entries
        gen = -1j * model.H.entries - 0.7 * (pauli_z().entries - 0.4 * np.eye(2)) @ (
            pauli_z().entries - 0.4 * np.eye(2)
        )
        from scipy.linalg import expm

        assert np.max(np.abs(sliced - expm(gen))) <= 1e-12

    def test_single_step_definition(self):
        from scipy.linalg import expm

        model = MonitoringModel(pauli_x(), pauli_z(), 1.2)
        dt, a = 0.07, 0.3
        rec = constant_record(TimeGrid(0.0, dt, 1), a)
        shifted = pauli_z().entries - a * np.eye(2)
        expected = expm(-1j * pauli_x().entries * dt) @ expm(-1.2 * shifted @ shifted * dt)
        assert np.allclose(sliced_propagator(model, rec).matrix.entries, expected, atol=1e-13)

    def test_first_order_convergence_to_ode(self):
        model = MonitoringModel(pauli_x(), pauli_z(), 1.0)
        a_val = 1.0
        ref = ode_propagator(model, constant_record(TimeGrid(0.0, 1e-4, 10000), a_val))
        dts = [0.1, 0.05, 0.025, 0.0125]
        errs = []
        for dt in dts:
            rec = constant_record(TimeGrid(0.0, dt, int(round(1.0 / dt))), a_val)
            errs.append(np.linalg.norm(sliced_propagator(model, rec).matrix.entries - ref, 2))
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.1)

    def test_centered_record_value_has_no_trotter_error(self):
        # (sigma_z - 0)^2 is the identity, so the split is exact despite [H, A] != 0
        model = MonitoringModel(pauli_x(), pauli_z(), 1.0)
        ref = ode_propagator(model, constant_record(TimeGrid(0.0, 1e-3, 1000), 0.0))
        rec = constant_record(TimeGrid(0.0, 0.1, 10), 0.0)
        assert np.linalg.norm(sliced_propagator(model, rec).matrix.entries - ref, 2) <= 1e-10

    def test_contraction_invariant(self):
        rng = np.random.default_rng(21)
        model = MonitoringModel(pauli_x(), pauli_z(), 2.0)
        vals = rng.uniform(-2.0, 2.0, size=30)
        rec = ReadoutRecord(TimeGrid(0.0, 0.05, 30), vals)
        prop = sliced_propagator(model, rec)
        assert np.linalg.norm(prop.matrix.entries, 2) <= 1.0 + 1e-9

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_are_rejected(self, bad):
        # checked before the SVD, which raises LinAlgError on NaN and takes
        # [[inf, 0], [0, 0.5]] for a contraction
        rec = constant_record(TimeGrid(0.0, 0.1, 1), 0.0)
        matrix = NonHermitianOperator(np.array([[bad, 0.0], [0.0, 0.5]]))
        message = r"^partial propagator entries must be finite; replace nan or inf$"
        with pytest.raises(ValidationError, match=message):
            PartialPropagator(matrix, rec)


class TestMarginalizedSlice:
    # Bounds measured over 3000 random cases drawn as below: the trace moved
    # by at most the completeness defect + 2.4e-15, the smallest eigenvalue of
    # K was -2.4e-15, and K stood within the defect + 5.6e-16 of the closed form.
    @given(
        dim=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
        degenerate=st.booleans(),
        log10_kdt=st.floats(-4.0, 1.5),
        order=st.integers(10, 60),
    )
    @settings(max_examples=60, deadline=None)
    def test_trace_positivity_and_closed_form(self, dim, seed, degenerate, log10_kdt, order):
        rng = np.random.default_rng(seed)
        if degenerate:
            a_evals = rng.choice([-1.0, 0.0, 1.0], dim)
            a_evals[1] = a_evals[0]
        else:
            a_evals = rng.uniform(-1.0, 1.0, dim)
        kappa = 10.0 ** rng.uniform(-1.0, 1.0)
        dt = 10.0**log10_kdt / kappa
        kernel = FuzzySlice(_random_hermitian(rng, dim, a_evals), kappa, dt)
        k, defect = kernel.dephasing_kernel(order), kernel.completeness_defect(order)
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = z @ z.conj().T / np.trace(z @ z.conj().T).real
        q = kernel.q
        sliced = q @ (k * (q.conj().T @ rho @ q)) @ q.conj().T
        assert abs(np.trace(sliced).real - 1.0) <= defect + 1e-14
        assert np.min(np.linalg.eigvalsh(k)) >= -1e-14
        gaps = np.subtract.outer(kernel.evals, kernel.evals)
        assert np.max(np.abs(k - np.exp(-0.5 * kappa * gaps**2 * dt))) <= defect + 1e-14


class TestUnitarityAndMarginalization:
    def test_defect_examples(self):
        assert (
            generalized_unitarity_defect(MonitoringModel(H_ZERO, pauli_z(), 0.3), 0.1, 40) <= 1e-10
        )
        ident = MonitoringModel(pauli_x(), HermitianOperator(np.eye(2)), 5.0)
        assert generalized_unitarity_defect(ident, 0.3, 40) <= 1e-12
        three = MonitoringModel(
            HermitianOperator(np.zeros((3, 3))), HermitianOperator(np.diag([0.0, 1.0, 3.0])), 1.0
        )
        assert generalized_unitarity_defect(three, 0.05, 40) <= 1e-9

    def test_defect_rejects_low_order(self):
        with pytest.raises(ValidationError):
            generalized_unitarity_defect(MonitoringModel(H_ZERO, pauli_z(), 1.0), 0.1, 5)

    def test_non_converging_quadrature_is_rejected(self):
        wide = MonitoringModel(H_ZERO, HermitianOperator(np.diag([0.0, 3.0])), 1.0)
        with pytest.raises(QuadratureError, match="not decreasing.*raise quad_order$"):
            generalized_unitarity_defect(wide, 1.0, 10)

    def test_incomplete_kernel_stops_marginalization(self):
        # converging (0.0041 at order 20, less than at order 10) but not to 1e-6
        wide = MonitoringModel(H_ZERO, HermitianOperator(np.diag([0.0, 3.0])), 4.0)
        rho0 = DensityMatrix.from_state(plus_state(2))
        with pytest.raises(QuadratureError, match="not complete to 1e-6.*raise quad_order$"):
            marginalize_readouts(wide, rho0, TimeGrid(0.0, 1.0, 1), 20)

    def test_non_psd_kernel_trips_the_positivity_abort(self, monkeypatch):
        def non_psd(slice_kernel, order):
            return np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1

        monkeypatch.setattr(FuzzySlice, "dephasing_kernel", non_psd)
        model = MonitoringModel(H_ZERO, pauli_z(), 0.5)
        rho0 = DensityMatrix.from_state(plus_state(2))
        message = (
            r"^positivity violated at step 1 \(eigenvalue .* < -1e-09\); "
            r"reduce dt or kappa, or raise quad_order$"
        )
        with pytest.raises(IntegrationError, match=message):
            marginalize_readouts(model, rho0, TimeGrid(0.0, 0.01, 3), 40)

    def test_non_finite_kernel_is_a_numerical_failure(self, monkeypatch):
        monkeypatch.setattr(FuzzySlice, "dephasing_kernel", lambda self, order: np.full((2, 2), np.nan))
        model = MonitoringModel(H_ZERO, pauli_z(), 0.5)
        rho0 = DensityMatrix.from_state(plus_state(2))
        message = r"^non-finite density matrix at step 1; reduce dt or kappa, or raise quad_order$"
        with pytest.raises(IntegrationError, match=message):
            marginalize_readouts(model, rho0, TimeGrid(0.0, 0.01, 3), 40)

    def test_single_step_dephasing_kernel(self):
        kappa, dt = 0.5, 0.01
        model = MonitoringModel(H_ZERO, pauli_z(), kappa)
        rho0 = DensityMatrix.from_state(plus_state(2))
        out = marginalize_readouts(model, rho0, TimeGrid(0.0, dt, 1), 40)
        # rho01 -> rho01 * exp(-(kappa/2)(gap)^2 dt) = rho01 * exp(-dt)
        assert out[1].entries[0, 1].real == pytest.approx(0.5 * np.exp(-2 * kappa * dt), rel=1e-10)

    def test_identity_observable_is_unitary_channel(self):
        model = MonitoringModel(pauli_x(), HermitianOperator(np.eye(2)), 4.0)
        rho0 = DensityMatrix.from_state(basis_state(2, 0))
        out = marginalize_readouts(model, rho0, TimeGrid(0.0, 0.01, 50), 40)
        from scipy.linalg import expm

        u = expm(-1j * pauli_x().entries * 0.5)
        expected = u @ rho0.entries @ u.conj().T
        assert np.max(np.abs(out[-1].entries - expected)) <= 1e-10

    def test_matches_lindblad(self):
        model = MonitoringModel(pauli_x(), pauli_z(), 0.5)
        rho0 = DensityMatrix.from_state(basis_state(2, 0))
        grid = TimeGrid(0.0, 0.01, 200)
        marg = marginalize_readouts(model, rho0, grid, 40)
        ref = integrate_lindblad(LindbladModel(pauli_x(), pauli_z(), 0.5), rho0, grid)
        worst = max(trace_distance(a, b) for a, b in zip(marg, ref))
        assert worst <= 1e-3

    def test_matches_lindblad_dim3_rotated_observable(self):
        # non-diagonal A exercises the eigenbasis rotation of the kernel
        a = HermitianOperator(
            np.array([[1.0, 0.3, 0.0], [0.3, 0.0, 0.2], [0.0, 0.2, -1.0]])
        )
        h = HermitianOperator(np.array([[0.0, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.0]]))
        model = MonitoringModel(h, a, 0.7)
        rho0 = DensityMatrix.from_state(basis_state(3, 0))
        grid = TimeGrid(0.0, 0.01, 150)
        marg = marginalize_readouts(model, rho0, grid, 40)
        ref = integrate_lindblad(LindbladModel(h, a, 0.7), rho0, grid)
        worst = max(trace_distance(x, y) for x, y in zip(marg, ref))
        assert worst <= 1e-3

    def test_density_normalization_single_step(self):
        model = MonitoringModel(pauli_x(), pauli_z(), 0.5)
        dt = 0.1
        psi0 = QuantumState(np.array([0.6, 0.8], dtype=complex))
        half_width = 1.0 + 8.0 / np.sqrt(2 * model.kappa * dt)
        aa = np.linspace(-half_width, half_width, 4001)
        dens = np.exp(single_step_log_density(model, aa, dt, psi0))
        assert float(np.trapezoid(dens, aa)) == pytest.approx(1.0, abs=1e-6)
