import os
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
    _densities,
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
    CHUNK,
    _chunk_task,
    _noise,
    _projector_sums,
    _run_batch,
    _share_cuts,
    _step_batch,
    _step_kernel,
    compare_to_master,
    ensemble_accumulate,
    ensemble_average,
    ensemble_sums,
    map_shares,
    mean_density,
    mean_states,
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
        rho_sum = ensemble_accumulate(model, plus_state(2), grid, n_traj, seed_base=500)
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
        _, recs, _ = _run_batch(model, basis_state(2, 0), grid, range(11, 11 + n_traj))
        mean_rec = recs.sum(axis=0) / n_traj
        ref = integrate_lindblad(
            LindbladModel(h, a, kappa), DensityMatrix.from_state(basis_state(2, 0)), grid
        )
        expect_ref = np.array([np.trace(a.entries @ r.entries).real for r in ref[:-1]])
        # record noise has per-step variance 1/(4 kappa dt); the mean over
        # trajectories keeps sigma/sqrt(n_traj) per step
        noise_sigma = np.sqrt(1.0 / (4 * kappa * grid.dt) / n_traj)
        assert np.max(np.abs(mean_rec - expect_ref)) <= 5 * noise_sigma

    def test_workers_and_chunking_do_not_change_results(self, counted_pools):
        # 400 trajectories are seven chunks, the last partial: three shares
        # at 3 workers, on one pool
        model = dephasing_model(kappa=0.5, h=pauli_x())
        grid = TimeGrid(0.0, 1e-3, 120)
        one = ensemble_accumulate(model, plus_state(2), grid, 400, seed_base=9, workers=1)
        two = ensemble_accumulate(model, plus_state(2), grid, 400, seed_base=9, workers=3)
        assert counted_pools == [[3, 3]]
        assert _same_bits(one, two)

    @pytest.mark.parametrize(
        "n_seeds", [1, 63, 64, 65, 128, 130, 150, 192, 255, 256, 257, 400, 1000, 2000]
    )
    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 7])
    def test_one_job_keeps_one_share_per_worker(self, n_seeds, workers):
        # a single ensemble or chain ensemble is cut into one balanced share
        # of whole chunks per worker, none below two chunks, for any step count
        n_chunks = -(-n_seeds // 64)
        shares = max(1, min(workers, n_chunks // 2))
        cuts = [64 * (n_chunks * i // shares) for i in range(shares)] + [n_seeds]
        for steps in (1, 2000):
            assert _share_cuts([(n_seeds, steps)], workers) == [cuts]

    @given(
        jobs=st.lists(st.tuples(st.integers(1, 5000), st.integers(1, 50_000)), min_size=1, max_size=8),
        workers=st.integers(1, 8),
    )
    @settings(max_examples=200, deadline=None)
    def test_no_share_below_two_chunks(self, jobs, workers):
        cuts = _share_cuts(jobs, workers)
        assert len(cuts) == len(jobs)
        for (n, _), c in zip(jobs, cuts):
            assert c[0] == 0 and c[-1] == n
            assert all(lo < hi for lo, hi in zip(c, c[1:]))
            assert all(cut % CHUNK == 0 for cut in c[1:-1])
            assert len(c) - 1 <= workers
            if -(-n // CHUNK) < 4:
                assert c == [0, n]
            else:  # a share's chunks, its partial last one included
                assert all(-(-hi // CHUNK) - lo // CHUNK >= 2 for lo, hi in zip(c, c[1:]))

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
        hist, _, no_sums = _run_batch(model, plus_state(2), grid, seeds)
        assert hist.shape == (64, 151, 2) and no_sums is None
        no_hist, no_recs, sums = _run_batch(model, plus_state(2), grid, seeds, False)
        assert no_hist is None and no_recs is None
        assert _same_bits(sums, _reference_chunk(model, plus_state(2), grid, seeds)[2][None])
        assert _same_bits(_chunk_task((model, plus_state(2), grid, False, seeds)), sums)


def _reference_raw(h, a, kappa, psi, dw, dt):
    """The Euler-Maruyama step as a plain formula on fresh arrays, frozen
    here so that the step kernel is held to it; returns (states before
    normalization, their norms, <A>). Its sums run over the last axis, whose
    order numpy takes from the memory layout at d >= 4, so the inputs are
    taken C-contiguous."""
    h, a, psi = (np.ascontiguousarray(x) for x in (h, a, psi))

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
    rho_sum = parts[0][2].copy()
    for _, _, sums in parts[1:]:
        rho_sum += sums
    return rho_sum


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
    # 257 trajectories end in a chunk of one and are two shares at 2 and 3 workers
    @pytest.mark.parametrize("n_traj", [1, 64, 65, 150, 257])
    def test_ensemble_bits(self, dim, n_traj):
        model, psi0 = _reference_case(dim)
        for n_steps in (1, 257):
            grid = TimeGrid(0.0, 1e-3, n_steps)
            ref_rho = _reference_accumulate(model, psi0, grid, n_traj, 31)
            for workers in (1, 2, 3):
                rho = ensemble_accumulate(model, psi0, grid, n_traj, 31, workers)
                assert _same_bits(rho, ref_rho), (n_steps, workers)

    @pytest.mark.parametrize("dim", [4, 8])
    def test_reference_bits_do_not_depend_on_the_input_layout(self, dim):
        rng = np.random.default_rng(dim)
        h = _random_hermitian(rng, dim, rng.uniform(-1.0, 1.0, dim)).entries
        a = _random_hermitian(rng, dim, rng.uniform(-1.0, 1.0, dim)).entries
        psi = rng.standard_normal((65, dim)) + 1j * rng.standard_normal((65, dim))
        dw = rng.standard_normal(65) * np.sqrt(1e-3)
        c_order = _reference_raw(h, a, 0.7, psi, dw, 1e-3)
        h_f, a_f, psi_f = (np.asfortranarray(x) for x in (h, a, psi))
        f_order = _reference_raw(h_f, a_f, 0.7, psi_f, dw, 1e-3)
        for c, f in zip(c_order, f_order):
            assert _same_bits(c, f)

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
        _, _, sums = _run_batch(model, psi0, grid, seeds, False)
        assert _same_bits(sums, np.stack([p[2] for p in parts]))
        # the one-step entry point runs the same kernel
        psi = hist[:, -1] * rng.uniform(0.5, 2.0)
        dw = rng.standard_normal(batch) * np.sqrt(grid.dt)
        a, kappa = model.A.entries, model.kappa
        out, exp_a = _step_batch(h.entries, a, kappa, psi, dw, grid.dt)
        ref_out, ref_exp = _reference_step(h.entries, a, kappa, psi, dw, grid.dt)
        assert _same_bits(out, ref_out) and _same_bits(exp_a, ref_exp)

    @given(
        dim=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
        batch=st.sampled_from([2, 3, 65]),
        n_steps=st.sampled_from([1, 2, 257]),
    )
    @settings(max_examples=12, deadline=None)
    def test_batch_history_is_each_seeds_trajectory(self, dim, seed, batch, n_steps):
        # d-major states step every trajectory of the batch with the bits it
        # has alone, in the (batch, n+1, d) history and in the records
        rng = np.random.default_rng(seed)
        h = _random_hermitian(rng, dim, rng.uniform(-1.0, 1.0, dim))
        a = _random_hermitian(rng, dim, rng.uniform(-1.0, 1.0, dim))
        model = MonitoringModel(h, a, rng.uniform(0.1, 2.0))
        psi0 = QuantumState.from_vector(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        grid = TimeGrid(0.0, 1e-3, n_steps)
        seeds = range(seed % 1000, seed % 1000 + batch)
        hist, recs, _ = _run_batch(model, psi0, grid, seeds)
        assert hist.shape == (batch, n_steps + 1, dim) and hist.flags.c_contiguous
        for i, s in enumerate(seeds):
            solo = simulate_trajectory(model, psi0, grid, s)
            assert _same_bits(hist[i], solo.amplitudes), s
            assert _same_bits(recs[i], solo.record.values), s


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
        out, exp_a, norms = np.empty((dim, batch), complex), np.empty(batch), np.empty(batch)
        with np.errstate(all="ignore"):
            _step_kernel(h, a, kappa, 1e-3, batch)(psi.T, _noise(kappa, dw), out, exp_a, norms)
            out = out.T
            raw, ref_norms, ref_exp = _reference_raw(h, a, kappa, psi, dw, 1e-3)
            ref_out = raw / ref_norms[:, None]
        assert _same_bits(out, ref_out)
        assert _same_bits(exp_a, ref_exp)
        assert _same_bits(norms, ref_norms)


def _reference_projector_sums(states: np.ndarray) -> np.ndarray:
    """Per-chunk sums of |psi><psi| over states (batch, d), all full chunks of
    64 in one einsum on a C-contiguous (batch, d) copy and a partial last
    alone; frozen here so the sums on d-major states are held to it."""
    x = np.ascontiguousarray(states)
    full, parts = len(x) // 64, []
    if full:
        g = x[: full * 64].reshape(full, 64, -1)
        parts.append(np.einsum("gbi,gbj->gij", g, g.conj()))
    if full * 64 < len(x):
        g = x[full * 64 :][None]
        parts.append(np.einsum("gbi,gbj->gij", g, g.conj()))
    return np.concatenate(parts)


class TestProjectorSums:
    @pytest.mark.parametrize("dim", range(2, 9))
    @given(
        seed=st.integers(0, 2**32 - 1),
        batch=st.sampled_from([1, 63, 64, 65, 130, 1000]),
        zeros=st.booleans(),
    )
    @settings(max_examples=10, deadline=None)
    def test_d_major_sums_are_the_batch_major_bits(self, dim, seed, batch, zeros):
        rng = np.random.default_rng(seed)
        if zeros:
            states = _with_zeros(rng, (batch, dim))
            z = rng.choice([0.0, -0.0])
            states[rng.random(batch) < 0.2] = complex(z, z)  # zero rows
        else:
            states = rng.standard_normal((batch, dim)) + 1j * rng.standard_normal((batch, dim))
        out = np.empty((-(-batch // 64), dim, dim), complex)
        _projector_sums(np.ascontiguousarray(states.T), out)
        assert _same_bits(out, _reference_projector_sums(states))


def _size(args) -> int:
    return len(args[-1])


def _failing_share(args):
    raise IntegrationError(f"share of {len(args[-1])} seeds failed")


class TestLocal:
    """map_shares' ``local``: run once in this process, while a pool runs the
    shares, and after them without one."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_runs_once_in_this_process(self, workers):
        # 260 seeds are five chunks, so two shares at 2 and 3 workers
        calls = []
        model, grid = dephasing_model(h=pauli_x()), TimeGrid(0.0, 1e-3, 20)
        ensemble = (model, plus_state(2), grid, 260, 4)
        [sums], mine = ensemble_sums([ensemble], workers, local=lambda: calls.append(os.getpid()))
        assert calls == [os.getpid()] and mine is None
        [alone], nothing = ensemble_sums([ensemble], workers)
        assert nothing is None
        assert _same_bits(sums, alone)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_a_share_error_wins_over_local(self, workers):
        calls = []

        def local():
            calls.append(None)
            raise ValidationError("local failed")

        jobs = [((), range(260), 10)]
        with pytest.raises(IntegrationError, match="share of .* seeds failed"):
            map_shares(_failing_share, jobs, workers, local)
        # without a pool local runs after the shares, so not at all here
        assert len(calls) == (0 if workers == 1 else 1)
        with pytest.raises(ValidationError, match="local failed"):
            map_shares(_size, jobs, workers, local)
        assert map_shares(_size, jobs, workers, lambda: "mine")[1] == "mine"

    def test_a_single_share_starts_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        calls = []
        # three chunks are one share, as one chunk is
        for n in (64, 150):
            shares, mine = map_shares(_size, [((), range(n), 10)], 4, lambda: calls.append(None) or 7)
            assert shares == [[n]] and mine == 7
        assert len(calls) == 2


class TestStackedMeans:
    """The mean states of compare_to_master, checked and compared as one
    stack, against DensityMatrix, ensemble_average and trace_distance node
    by node."""

    GOOD = np.array([[0.5, 0.25j], [-0.25j, 0.5]])
    BAD = {
        "skew": GOOD + np.array([[0.0, 1e-9], [0.0, 0.0]]),
        "trace": 1.001 * GOOD,
        "negative": np.array([[1.1, 0.5], [0.5, -0.1]]),
        "non-finite": np.array([[np.nan, 0.0], [0.0, 1.0]]),
    }

    @pytest.mark.parametrize("defect", sorted(BAD))
    def test_the_first_bad_node_raises_the_density_matrix_text(self, defect):
        bad = self.BAD[defect]
        with pytest.raises(ValidationError) as alone:
            DensityMatrix(bad)
        stack = np.stack([self.GOOD, self.GOOD, bad, self.GOOD])
        with pytest.raises(ValidationError) as stacked:
            _densities(stack)
        assert str(stacked.value) == str(alone.value)
        if defect != "skew":  # mean_states takes the Hermitian part first
            sums = 3.0 * stack
            with pytest.raises(ValidationError) as per_node:
                mean_density(sums[2], 3)
            with pytest.raises(ValidationError) as stacked:
                mean_states(sums, 3)
            assert str(stacked.value) == str(per_node.value)

    def test_node_order_then_check_order(self):
        off_and_negative = 1.5 * self.BAD["negative"]
        stack = np.stack([self.GOOD, self.BAD["negative"], self.BAD["skew"]])
        with pytest.raises(ValidationError, match="negative eigenvalue"):
            _densities(stack)
        with pytest.raises(ValidationError, match="trace must be 1: got"):
            _densities(np.stack([self.GOOD, off_and_negative]))
        with pytest.raises(ValidationError, match="trace must be 1: got"):
            _densities(np.stack([self.GOOD, off_and_negative, self.BAD["non-finite"]]))
        with pytest.raises(ValidationError, match="entries must be finite"):
            _densities(np.stack([self.GOOD, np.inf * off_and_negative, off_and_negative]))

    @given(dim=st.sampled_from([2, 3, 4, 5, 8, 16, 64]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=14, deadline=None)
    def test_stacked_values_are_the_per_node_bits(self, dim, seed):
        rng = np.random.default_rng(seed)
        h = _random_hermitian(rng, dim, rng.uniform(-1.0, 1.0, dim))
        a = _random_hermitian(rng, dim, rng.uniform(-1.0, 1.0, dim))
        psi0 = QuantumState.from_vector(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        model, grid, n_traj = MonitoringModel(h, a, 0.5), TimeGrid(0.0, 1e-3, 6), 5
        expects, dists = compare_to_master(model, psi0, grid, n_traj, seed % 1000)
        rho_sum = ensemble_accumulate(model, psi0, grid, n_traj, seed % 1000)
        means = [DensityMatrix(0.5 * (s + s.conj().T) / n_traj) for s in rho_sum]
        ref = integrate_lindblad(model, DensityMatrix.from_state(psi0), grid)
        per_node = [float(np.trace(a.entries @ m.entries).real) for m in means]
        assert _same_bits(expects, np.array(per_node))
        assert _same_bits(dists, np.array([trace_distance(m, r) for m, r in zip(means, ref)]))
        summary = ensemble_average(model, psi0, grid, n_traj, seed % 1000)
        assert all(_same_bits(x.entries, y.entries) for x, y in zip(summary.mean_rho, means))


class TestFinalNode:
    """ensemble_sums' projector sums kept at the final node alone are the
    bits of the last row of the all-node sums."""

    @given(
        dim=st.integers(2, 4),
        seed=st.integers(0, 2**32 - 1),
        n_traj=st.sampled_from([1, 64, 65, 150, 257]),
        n_steps=st.integers(1, 40),
        workers=st.sampled_from([1, 2]),
    )
    # two shares at 2 workers, the second ending in a partial chunk
    @example(dim=2, seed=0, n_traj=257, n_steps=30, workers=2)
    @example(dim=3, seed=1, n_traj=257, n_steps=1, workers=2)  # one step
    @settings(max_examples=15, deadline=None)
    def test_final_sums_are_the_last_all_node_row(self, dim, seed, n_traj, n_steps, workers):
        rng = np.random.default_rng(seed)
        h = _random_hermitian(rng, dim, rng.uniform(-1.0, 1.0, dim))
        a = _random_hermitian(rng, dim, rng.uniform(-1.0, 1.0, dim))
        psi0 = QuantumState.from_vector(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        model, grid = MonitoringModel(h, a, 0.5), TimeGrid(0.0, 1e-3, n_steps)
        every = ensemble_accumulate(model, psi0, grid, n_traj, seed_base=seed % 1000)
        [last], _ = ensemble_sums([(model, psi0, grid, n_traj, seed % 1000)], workers, final=True)
        assert every.shape == (n_steps + 1, dim, dim) and last.shape == (1, dim, dim)
        assert last.tobytes() == every[-1].tobytes()

    def test_a_final_node_share_does_not_grow_with_the_step_count(self):
        # the zeno cross-check keeps the final node alone, so what a share
        # sends back from a worker has one size at any step count: 130 seeds
        # are 3 chunks of sums at 1 node
        model, seeds = dephasing_model(kappa=0.5, h=pauli_x()), range(3, 133)
        for n_steps in (10, 1000):
            share = _chunk_task((model, plus_state(2), TimeGrid(0.0, 1e-3, n_steps), True, seeds))
            assert (share.shape, share.nbytes) == ((3, 1, 2, 2), 192), n_steps


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
