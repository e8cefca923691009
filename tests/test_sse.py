import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    _step_kernel,
    ensemble_accumulate,
    ensemble_average,
    simulate_trajectory,
    sse_step,
)

H_ZERO = HermitianOperator(np.zeros((2, 2)))


def _same_bits(x, y) -> bool:
    """Same dtype, shape and bytes; unlike np.array_equal, -0.0 is not +0.0."""
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


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
        assert _same_bits(a.amplitudes, b.amplitudes)

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
        assert _same_bits(t1.amplitudes, t2.amplitudes)
        assert _same_bits(t1.record.values, t2.record.values)

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
        assert _same_bits(one, two)
        assert _same_bits(rec_one, rec_two)

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
        hist, recs, no_sums = _run_batch(model, plus_state(2), grid, seeds)
        assert hist.shape == (64, 151, 2) and no_sums is None
        no_hist, rec_sums, sums = _run_batch(model, plus_state(2), grid, seeds, 1)
        assert no_hist is None
        assert _same_bits(sums, _reference_chunk(model, plus_state(2), grid, seeds)[2][None])
        assert _same_bits(rec_sums, recs.sum(axis=0, keepdims=True))
        chunk_sums, chunk_recs = _chunk_task((model, plus_state(2), grid, 1, seeds))
        assert _same_bits(chunk_sums, sums) and _same_bits(chunk_recs, rec_sums)


def _reference_raw(h, a, kappa, psi, dw, dt):
    """The Euler-Maruyama step as a plain formula on fresh arrays, frozen
    here so that the step kernel is held to it; returns (states before
    normalization, their norms, <A>)."""

    def matvec(m, x):
        return (m[None, :, :] * x[:, None, :]).sum(axis=2)

    apsi = matvec(a, psi)
    exp_a = (psi.conj() * apsi).sum(axis=1).real
    bpsi = apsi - exp_a[:, None] * psi
    b2psi = matvec(a, bpsi) - exp_a[:, None] * bpsi
    hpsi = matvec(h, psi)
    out = psi + dt * (-1j * hpsi - 0.5 * kappa * b2psi) + (np.sqrt(kappa) * dw)[:, None] * bpsi
    norms = np.sqrt((np.abs(out) ** 2).sum(axis=1))
    return out, norms, exp_a


def _reference_step(h, a, kappa, psi, dw, dt):
    """The reference step normalized; returns (new states, <A>)."""
    out, norms, exp_a = _reference_raw(h, a, kappa, psi, dw, dt)
    return out / norms[:, None], exp_a


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
        psi, exp_a = _reference_step(h, a, kappa, psi, dws[:, k], dt)
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


def _random_hermitian(rng, dim, evals):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return HermitianOperator((q * evals) @ q.conj().T)


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
                assert _same_bits(rho, ref_rho), (n_steps, workers)
                assert _same_bits(rec, ref_rec), (n_steps, workers)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_trajectory_bits(self, dim):
        model, psi0 = _reference_case(dim)
        grid = TimeGrid(0.0, 1e-3, 600)
        hist, recs, _ = _reference_chunk(model, psi0, grid, [8])
        traj = simulate_trajectory(model, psi0, grid, 8)
        assert _same_bits(traj.amplitudes, hist[0])
        assert _same_bits(traj.record.values, recs[0])

    @given(
        dim=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
        degenerate=st.booleans(),
        batch=st.sampled_from([1, 3, 65]),
        n_steps=st.sampled_from([1, 257]),
    )
    @settings(max_examples=40, deadline=None)
    def test_kernel_bits_on_random_models(self, dim, seed, degenerate, batch, n_steps):
        rng = np.random.default_rng(seed)
        h = _random_hermitian(rng, dim, rng.uniform(-1.0, 1.0, dim))
        if degenerate:
            a_evals = rng.choice([-1.0, 0.0, 1.0], dim)
            a_evals[1] = a_evals[0]
        else:
            a_evals = rng.uniform(-1.0, 1.0, dim)
        model = MonitoringModel(h, _random_hermitian(rng, dim, a_evals), rng.uniform(0.1, 2.0))
        psi0 = QuantumState.from_vector(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        grid = TimeGrid(0.0, 1e-3, n_steps)
        seeds = range(seed % 1000, seed % 1000 + batch)
        parts = [_reference_chunk(model, psi0, grid, seeds[lo : lo + 64]) for lo in range(0, batch, 64)]
        hist, recs, _ = _run_batch(model, psi0, grid, seeds)
        assert _same_bits(hist, np.concatenate([p[0] for p in parts]))
        assert _same_bits(recs, np.concatenate([p[1] for p in parts]))
        _, rec_sums, sums = _run_batch(model, psi0, grid, seeds, 1)
        assert _same_bits(rec_sums, np.stack([p[1].sum(axis=0) for p in parts]))
        assert _same_bits(sums, np.stack([p[2] for p in parts]))
        # the one-step entry point runs the same kernel
        psi = hist[:, -1] * rng.uniform(0.5, 2.0)
        dw = rng.standard_normal(batch) * np.sqrt(grid.dt)
        a, kappa = model.A.entries, model.kappa
        out, exp_a = _step_batch(h.entries, a, kappa, psi, dw, grid.dt)
        ref_out, ref_exp = _reference_step(h.entries, a, kappa, psi, dw, grid.dt)
        assert _same_bits(out, ref_out) and _same_bits(exp_a, ref_exp)


def _with_zeros(rng, shape) -> np.ndarray:
    """Complex entries of which about a third of the real and of the
    imaginary parts are +0.0 or -0.0."""
    parts = rng.standard_normal((2, *shape))
    pick = rng.random(parts.shape)
    parts[pick < 0.35] = -0.0
    parts[pick < 0.17] = 0.0
    z = np.empty(shape, complex)
    z.real, z.imag = parts
    return z


def _zero_laden_hermitian(rng, dim) -> np.ndarray:
    """A Hermitian matrix with signed-zero entries and, in about one case of
    three per index, a zero row and column."""
    m = _with_zeros(rng, (dim, dim))
    lower = np.tril_indices(dim, -1)
    m.real[lower] = m.real.T[lower]
    m.imag[lower] = -m.imag.T[lower]
    m.imag[np.diag_indices(dim)] = 0.0
    for r in np.flatnonzero(rng.random(dim) < 0.3):
        z = rng.choice([0.0, -0.0])
        m.real[r], m.real[:, r], m.imag[r], m.imag[:, r] = z, z, z, -z
    return m


class TestKernelSignedZeros:
    # complex d <= 3 sums run in the summed-index-outermost layout, d >= 4
    # in the contiguous one; real norm sums switch above d = 7
    @pytest.mark.parametrize("dim", range(2, 9))
    @given(seed=st.integers(0, 2**32 - 1), batch=st.sampled_from([1, 3, 65, 1024]))
    @settings(max_examples=8, deadline=None)
    def test_kernel_bits_with_zeros(self, dim, seed, batch):
        rng = np.random.default_rng(seed)
        h, a = _zero_laden_hermitian(rng, dim), _zero_laden_hermitian(rng, dim)
        psi = _with_zeros(rng, (batch, dim))
        psi[rng.random(batch) < 0.2] = rng.choice([0.0, -0.0])  # zero states give NaN rows
        dw = rng.standard_normal(batch) * np.sqrt(1e-3)
        dw[rng.random(batch) < 0.3] = rng.choice([0.0, -0.0])
        kappa = rng.uniform(0.1, 2.0)
        out, exp_a, norms = np.empty((batch, dim), complex), np.empty(batch), np.empty(batch)
        with np.errstate(all="ignore"):
            _step_kernel(h, a, kappa, 1e-3, batch)(psi, dw, out, exp_a, norms)
            raw, ref_norms, ref_exp = _reference_raw(h, a, kappa, psi, dw, 1e-3)
            ref_out = raw / ref_norms[:, None]
        assert _same_bits(out, ref_out)
        assert _same_bits(exp_a, ref_exp)
        assert _same_bits(norms, ref_norms)


class TestStoreEvery:
    """Projector sums kept only at t0, every store_every-th step and the final
    node are the bits of those rows of the all-node sums."""

    @given(
        dim=st.integers(2, 4),
        seed=st.integers(0, 2**32 - 1),
        n_traj=st.sampled_from([1, 64, 65, 150]),
        n_steps=st.integers(1, 40),
        store_every=st.integers(1, 50),
        workers=st.sampled_from([1, 2]),
    )
    @example(dim=2, seed=0, n_traj=65, n_steps=30, store_every=10, workers=2)  # divides
    @example(dim=3, seed=1, n_traj=150, n_steps=30, store_every=7, workers=2)  # does not
    @example(dim=2, seed=2, n_traj=64, n_steps=12, store_every=12, workers=1)  # final only
    @settings(max_examples=15, deadline=None)
    def test_stored_rows_are_the_all_node_bits(
        self, dim, seed, n_traj, n_steps, store_every, workers
    ):
        rng = np.random.default_rng(seed)
        h = _random_hermitian(rng, dim, rng.uniform(-1.0, 1.0, dim))
        a = _random_hermitian(rng, dim, rng.uniform(-1.0, 1.0, dim))
        psi0 = QuantumState.from_vector(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        model, grid = MonitoringModel(h, a, 0.5), TimeGrid(0.0, 1e-3, n_steps)
        every, rec_every = ensemble_accumulate(model, psi0, grid, n_traj, seed_base=seed % 1000)
        some, rec_some = ensemble_accumulate(
            model, psi0, grid, n_traj, seed % 1000, workers, store_every=store_every
        )
        nodes = sorted({*range(0, n_steps + 1, store_every), n_steps})
        assert grid.stored_nodes(store_every) == nodes
        assert some.shape == (-(-n_steps // store_every) + 1, dim, dim)
        assert _same_bits(some, every[nodes])
        assert _same_bits(rec_some, rec_every)

    def test_share_records_ignore_the_stored_nodes(self):
        model, grid = dephasing_model(kappa=0.5, h=pauli_x()), TimeGrid(0.0, 1e-3, 20)
        seeds = list(range(5, 70))
        _, recs, sums = _run_batch(model, plus_state(2), grid, seeds, 1)
        _, recs3, sums3 = _run_batch(model, plus_state(2), grid, seeds, 3)
        assert _same_bits(recs3, recs)
        assert _same_bits(sums3, sums[:, [0, 3, 6, 9, 12, 15, 18, 20]])

    @pytest.mark.parametrize("bad", [0, -1, 2.5])
    def test_guard(self, bad, monkeypatch):
        # the ensemble and the master equation keep the same nodes, so they
        # reject the same store_every with the same message
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        model, grid = dephasing_model(), TimeGrid(0.0, 1e-3, 12)
        message = rf"store_every must be an integer >= 1, got {bad}; pass 1"
        with pytest.raises(ValidationError, match=message):
            ensemble_accumulate(model, plus_state(2), grid, 70, 1, 2, store_every=bad)
        with pytest.raises(ValidationError, match=message):
            integrate_lindblad(model, DensityMatrix.from_state(plus_state(2)), grid, bad)


class TestGuards:
    def test_negative_seed_rejected_before_the_pool_starts(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
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

    def test_nan_increment_mid_block_trips_the_block_check(self, monkeypatch):
        real = np.random.Generator

        def nan_in_trajectory(index):
            """Generators whose ``index``-th one started draws one NaN in the
            middle of its first block."""
            started = []

            class NanDraw:
                def __init__(self, bit_generator):
                    self.gen = real(bit_generator)
                    self.poison = len(started) == index
                    started.append(self)

                def standard_normal(self, m):
                    z = self.gen.standard_normal(m)
                    if self.poison:
                        z[m // 2], self.poison = np.nan, False
                    return z

            return NanDraw

        model, grid = dephasing_model(h=pauli_x()), TimeGrid(0.0, 1e-3, 300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            monkeypatch.setattr(np.random, "Generator", nan_in_trajectory(0))
            with pytest.raises(IntegrationError, match="reduce dt or kappa"):
                simulate_trajectory(model, plus_state(2), grid, 3)
            monkeypatch.setattr(np.random, "Generator", nan_in_trajectory(4))
            with pytest.raises(IntegrationError, match="reduce dt or kappa"):
                ensemble_accumulate(model, plus_state(2), grid, 70, 3, workers=1)
