import numpy as np
import pytest

from qmeas.chm import MonitoringModel
from qmeas.errors import IntegrationError, ValidationError
from qmeas.hilbert import (
    DensityMatrix,
    HermitianOperator,
    QuantumState,
    basis_state,
    expectation,
    pauli_x,
    pauli_z,
    plus_state,
    trace_distance,
)
from qmeas.lindblad import LindbladModel, integrate_lindblad
from qmeas.readout import TimeGrid
from qmeas.sse import (
    _chunk_task,
    _run_batch,
    _step_batch,
    ensemble_accumulate,
    ensemble_average,
    simulate_trajectory,
    sse_step,
)

H_ZERO = HermitianOperator(np.zeros((2, 2)))


def dephasing_model(kappa=1.0, h=None):
    return MonitoringModel(h if h is not None else H_ZERO, pauli_z(), kappa)


class TestStep:
    def test_eigenstate_stochastic_terms_vanish(self):
        # A - <A> annihilates its eigenstate: the step is purely unitary
        model = MonitoringModel(pauli_x(), pauli_z(), 1.0)
        psi = basis_state(2, 0)
        dt = 1e-3
        for dw in (-0.05, 0.0, 0.08):
            out = sse_step(model, psi, dw, dt)
            drift_only = psi.amplitudes + dt * (-1j * pauli_x().entries @ psi.amplitudes)
            drift_only /= np.linalg.norm(drift_only)
            assert np.allclose(out.amplitudes, drift_only, atol=1e-12)

    def test_identity_observable_unitary(self):
        model = MonitoringModel(pauli_x(), HermitianOperator(np.eye(2)), 1.0)
        out = sse_step(model, plus_state(2), 0.3, 1e-3)
        expected = plus_state(2).amplitudes + 1e-3 * (-1j * pauli_x().entries @ plus_state(2).amplitudes)
        expected /= np.linalg.norm(expected)
        assert np.allclose(out.amplitudes, expected, atol=1e-12)

    def test_deterministic_given_inputs(self):
        model = dephasing_model()
        a = sse_step(model, plus_state(2), 0.017, 1e-3)
        b = sse_step(model, plus_state(2), 0.017, 1e-3)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_step_guard(self):
        model = dephasing_model(kappa=100.0)
        with pytest.raises(ValidationError, match="exceeds"):
            sse_step(model, plus_state(2), 0.0, 0.01)

    def test_ito_norm_balance_identity(self):
        # diffusion^2 = 2 * drift coefficient: the norm is conserved in the
        # Ito mean for any state
        rng = np.random.default_rng(3)
        model = dephasing_model(kappa=0.7)
        a = model.A.entries
        for _ in range(10):
            psi = QuantumState.from_vector(rng.standard_normal(2) + 1j * rng.standard_normal(2))
            psi = QuantumState(psi.amplitudes)
            exp_a = expectation(psi, model.A)
            b = a - exp_a * np.eye(2)
            noise_sq = model.kappa * np.vdot(b @ psi.amplitudes, b @ psi.amplitudes).real
            drift_herm = 2 * (0.5 * model.kappa) * np.vdot(
                psi.amplitudes, b @ b @ psi.amplitudes
            ).real
            assert noise_sq == pytest.approx(drift_herm, rel=1e-12)

    def test_renormalization_correction_is_higher_order(self):
        # pre-renormalization norm defect has zero mean at O(dt); the
        # systematic part measured over many steps stays below dt^(3/2)
        model = dephasing_model(kappa=1.0)
        rng = np.random.default_rng(11)
        for dt in (4e-3, 1e-3):
            defects = []
            psi = plus_state(2).amplitudes.copy()
            a = model.A.entries
            for _ in range(4000):
                exp_a = np.vdot(psi, a @ psi).real
                b = a - exp_a * np.eye(2)
                dw = rng.standard_normal() * np.sqrt(dt)
                raw = psi + dt * (-0.5 * model.kappa * (b @ (b @ psi))) + np.sqrt(
                    model.kappa
                ) * dw * (b @ psi)
                defects.append(np.linalg.norm(raw) - 1.0)
                psi = raw / np.linalg.norm(raw)
            assert abs(np.mean(defects)) <= 2.0 * dt**1.5


class TestTrajectory:
    def test_same_seed_identical(self):
        model = dephasing_model()
        grid = TimeGrid(0.0, 1e-3, 500)
        t1 = simulate_trajectory(model, plus_state(2), grid, 99)
        t2 = simulate_trajectory(model, plus_state(2), grid, 99)
        assert np.array_equal(t1.amplitudes, t2.amplitudes)
        assert np.array_equal(t1.record.values, t2.record.values)

    def test_identity_observable_record_is_pure_noise(self):
        kappa, dt = 1.0, 1e-3
        model = MonitoringModel(H_ZERO, HermitianOperator(np.eye(2)), kappa)
        grid = TimeGrid(0.0, dt, 5000)
        traj = simulate_trajectory(model, plus_state(2), grid, 5)
        vals = traj.record.values
        expected_var = 1.0 / (4 * kappa * dt)
        assert np.mean(vals) == pytest.approx(1.0, abs=4 * np.sqrt(expected_var / 5000))
        assert np.var(vals) == pytest.approx(expected_var, rel=0.1)

    def test_eigenstate_record_time_average(self):
        # time-averaged record converges to the eigenvalue with variance 1/(4 kappa T)
        kappa, dt, n = 1.0, 1e-3, 5000
        model = dephasing_model(kappa=kappa, h=HermitianOperator(np.diag([0.5, -0.5])))
        grid = TimeGrid(0.0, dt, n)
        t_total = n * dt
        sigma = np.sqrt(1.0 / (4 * kappa * t_total))
        _, recs, _ = _run_batch(model, basis_state(2, 0), grid, list(range(20)))
        means = recs.mean(axis=1)
        assert np.max(np.abs(means - 1.0)) <= 4 * sigma
        assert np.std(means) == pytest.approx(sigma, rel=0.5)

    def test_martingale_and_collapse(self):
        kappa, dt, n, n_traj = 1.0, 1e-3, 3000, 2000
        model = dephasing_model(kappa=kappa)
        grid = TimeGrid(0.0, dt, n)
        rho_sum, _ = ensemble_accumulate(model, plus_state(2), grid, n_traj, seed_base=500)
        mean_z = np.real(rho_sum[:, 0, 0] - rho_sum[:, 1, 1]) / n_traj
        # E[<sz>] constant at 0 within 3 standard errors
        assert np.max(np.abs(mean_z)) <= 3.0 / np.sqrt(n_traj)
        # individual trajectories collapse to +/-1 with Born frequency 1/2
        hist, _, _ = _run_batch(model, plus_state(2), grid, list(range(500, 700)))
        finals = np.abs(hist[:, -1, 0]) ** 2 - np.abs(hist[:, -1, 1]) ** 2
        assert np.all(np.abs(np.abs(finals) - 1.0) < 1e-3)
        up = np.mean(finals > 0)
        assert abs(up - 0.5) <= 3 * np.sqrt(0.25 / 200)


class TestEnsemble:
    def test_single_trajectory_degenerate_case(self):
        model = dephasing_model()
        grid = TimeGrid(0.0, 1e-3, 50)
        summary = ensemble_average(model, plus_state(2), grid, 1, seed_base=77)
        traj = simulate_trajectory(model, plus_state(2), grid, 77)
        for rho, amps in zip(summary.mean_rho, traj.amplitudes):
            assert np.allclose(rho.entries, np.outer(amps, amps.conj()), atol=1e-12)

    def test_identity_observable_mean_is_unitary_evolution(self):
        model = MonitoringModel(pauli_x(), HermitianOperator(np.eye(2)), 1.0)
        grid = TimeGrid(0.0, 1e-3, 200)
        summary = ensemble_average(model, basis_state(2, 0), grid, 8, seed_base=3)
        from scipy.linalg import expm

        u = expm(-1j * pauli_x().entries * grid.duration)
        expected = u @ np.diag([1.0, 0.0]).astype(complex) @ u.conj().T
        assert np.max(np.abs(summary.mean_rho[-1].entries - expected)) <= 1e-4

    def test_unraveling_matches_lindblad(self):
        h, a, kappa = pauli_x(), pauli_z(), 0.5
        grid = TimeGrid(0.0, 1e-3, 1000)
        n_traj = 1500
        summary = ensemble_average(
            MonitoringModel(h, a, kappa), basis_state(2, 0), grid, n_traj, seed_base=42
        )
        ref = integrate_lindblad(
            LindbladModel(h, a, kappa), DensityMatrix.from_state(basis_state(2, 0)), grid
        )
        worst = max(trace_distance(m, r) for m, r in zip(summary.mean_rho, ref))
        assert worst <= 0.025

    def test_unraveling_matches_lindblad_dim3_rotated_observable(self):
        a = HermitianOperator(
            np.array([[1.0, 0.3, 0.0], [0.3, 0.0, 0.2], [0.0, 0.2, -1.0]])
        )
        h = HermitianOperator(np.array([[0.0, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.0]]))
        grid = TimeGrid(0.0, 1e-3, 800)
        n_traj = 800
        summary = ensemble_average(
            MonitoringModel(h, a, 0.7), basis_state(3, 0), grid, n_traj, seed_base=21
        )
        ref = integrate_lindblad(
            LindbladModel(h, a, 0.7), DensityMatrix.from_state(basis_state(3, 0)), grid
        )
        worst = max(trace_distance(m, r) for m, r in zip(summary.mean_rho, ref))
        assert worst <= 0.05

    def test_record_mean_matches_lindblad_expectation(self):
        h, a, kappa = pauli_x(), pauli_z(), 0.5
        grid = TimeGrid(0.0, 1e-3, 1000)
        n_traj = 1200
        model = MonitoringModel(h, a, kappa)
        _, rec_sum = ensemble_accumulate(model, basis_state(2, 0), grid, n_traj, seed_base=11)
        mean_rec = rec_sum / n_traj
        ref = integrate_lindblad(
            LindbladModel(h, a, kappa), DensityMatrix.from_state(basis_state(2, 0)), grid
        )
        expect_ref = np.array([np.trace(a.entries @ r.entries).real for r in ref[:-1]])
        # record noise has per-step variance 1/(4 kappa dt); the mean over
        # trajectories keeps sigma/sqrt(n_traj) per step
        noise_sigma = np.sqrt(1.0 / (4 * kappa * grid.dt) / n_traj)
        assert np.max(np.abs(mean_rec - expect_ref)) <= 5 * noise_sigma

    def test_workers_and_chunking_do_not_change_results(self):
        model = dephasing_model(kappa=0.5, h=pauli_x())
        grid = TimeGrid(0.0, 1e-3, 120)
        one, rec_one = ensemble_accumulate(model, plus_state(2), grid, 150, seed_base=9, workers=1)
        two, rec_two = ensemble_accumulate(model, plus_state(2), grid, 150, seed_base=9, workers=3)
        assert np.array_equal(one, two)
        assert np.array_equal(rec_one, rec_two)

    def test_trajectory_identical_inside_and_outside_ensemble(self):
        model = dephasing_model(kappa=0.5, h=pauli_x())
        grid = TimeGrid(0.0, 1e-3, 100)
        summary = ensemble_average(model, plus_state(2), grid, 1, seed_base=1234)
        solo = simulate_trajectory(model, plus_state(2), grid, 1234)
        assert np.allclose(
            summary.mean_rho[-1].entries,
            np.outer(solo.amplitudes[-1], solo.amplitudes[-1].conj()),
            atol=1e-15,
        )

    def test_history_free_batch_keeps_every_ensemble_bit(self):
        model = dephasing_model(kappa=0.7, h=pauli_x())
        grid = TimeGrid(0.0, 1e-3, 150)
        seeds = list(range(40, 104))
        hist, recs, sums = _run_batch(model, plus_state(2), grid, seeds)
        assert hist.shape == (64, 151, 2)
        assert _run_batch(model, plus_state(2), grid, seeds, keep_history=False)[0] is None
        chunk_sums, chunk_recs = _chunk_task((model, plus_state(2), grid, seeds))
        assert np.array_equal(chunk_sums, sums)
        assert np.array_equal(chunk_recs, recs.sum(axis=0, keepdims=True))


def _reference_chunk(model, psi0, grid, seeds):
    """One chunk stepped on its own, as the per-chunk engine did: one long
    Wiener draw per trajectory; returns (history, records, projector sums)."""
    h, a, kappa, dt, n = model.H.entries, model.A.entries, model.kappa, grid.dt, grid.n_steps
    dws = np.stack(
        [np.random.Generator(np.random.Philox(key=s)).standard_normal(n) * np.sqrt(dt) for s in seeds]
    )
    rec_scale = 1.0 / (2.0 * np.sqrt(kappa) * dt)
    psi = np.tile(psi0.amplitudes, (len(seeds), 1))
    hist, recs, sums = [psi], np.empty((len(seeds), n)), [np.einsum("bi,bj->ij", psi, psi.conj())]
    for k in range(n):
        psi, exp_a = _step_batch(h, a, kappa, psi, dws[:, k], dt)
        recs[:, k] = exp_a + dws[:, k] * rec_scale
        hist.append(psi)
        sums.append(np.einsum("bi,bj->ij", psi, psi.conj()))
    return np.stack(hist, axis=1), recs, np.array(sums)


def _reference_accumulate(model, psi0, grid, n_traj, seed_base):
    """Chunks of 64 trajectories run one by one, folded left in chunk order."""
    parts = [
        _reference_chunk(model, psi0, grid, range(seed_base + lo, seed_base + min(lo + 64, n_traj)))
        for lo in range(0, n_traj, 64)
    ]
    rho_sum, rec_sum = parts[0][2].copy(), parts[0][1].sum(axis=0)
    for _, recs, sums in parts[1:]:
        rho_sum += sums
        rec_sum += recs.sum(axis=0)
    return rho_sum, rec_sum


def _reference_case(dim):
    if dim == 2:
        return MonitoringModel(pauli_x(), pauli_z(), 0.5), plus_state(2)
    a = HermitianOperator(np.array([[1.0, 0.3, 0.0], [0.3, 0.0, 0.2], [0.0, 0.2, -1.0]]))
    h = HermitianOperator(np.array([[0.0, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.0]]))
    return MonitoringModel(h, a, 0.7), basis_state(3, 0)


class TestAgainstPerChunkReference:
    # 257 steps is not a multiple of the 256-step draw block
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("n_traj", [1, 64, 65, 150])
    def test_ensemble_bits(self, dim, n_traj):
        model, psi0 = _reference_case(dim)
        for n_steps in (1, 257):
            grid = TimeGrid(0.0, 1e-3, n_steps)
            ref_rho, ref_rec = _reference_accumulate(model, psi0, grid, n_traj, 31)
            for workers in (1, 2, 3):
                rho, rec = ensemble_accumulate(model, psi0, grid, n_traj, 31, workers)
                assert np.array_equal(rho, ref_rho), (n_steps, workers)
                assert np.array_equal(rec, ref_rec), (n_steps, workers)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_trajectory_bits(self, dim):
        model, psi0 = _reference_case(dim)
        grid = TimeGrid(0.0, 1e-3, 600)
        hist, recs, _ = _reference_chunk(model, psi0, grid, [8])
        traj = simulate_trajectory(model, psi0, grid, 8)
        assert np.array_equal(traj.amplitudes, hist[0])
        assert np.array_equal(traj.record.values, recs[0])


class TestGuards:
    def test_negative_seed_rejected_before_the_pool_starts(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr("qmeas.sse.ProcessPoolExecutor", no_pool)
        model, grid = dephasing_model(), TimeGrid(0.0, 1e-3, 10)
        with pytest.raises(ValidationError, match="use a seed >= 0"):
            ensemble_accumulate(model, plus_state(2), grid, 150, seed_base=-1, workers=2)
        with pytest.raises(ValidationError, match="use a seed >= 0"):
            simulate_trajectory(model, plus_state(2), grid, -5)

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValidationError, match="n_traj must be >= 1"):
            ensemble_accumulate(dephasing_model(), plus_state(2), TimeGrid(0.0, 1e-3, 10), 0, 1)

    def test_step_guard_through_ensemble(self):
        model = dephasing_model(kappa=100.0)
        with pytest.raises(ValidationError, match="reduce dt"):
            ensemble_accumulate(model, plus_state(2), TimeGrid(0.0, 0.01, 10), 4, 1, workers=2)

    @pytest.mark.parametrize("bad", [0.0, np.nan])
    def test_zero_or_non_finite_state_trips_the_step_check(self, bad):
        psi = np.array([[1.0, 0.0], [bad, bad]], dtype=complex)
        a = pauli_z().entries
        with pytest.raises(IntegrationError, match="reduce dt or kappa"):
            _step_batch(np.zeros((2, 2)), a, 1.0, psi, np.zeros(2), 1e-3)
