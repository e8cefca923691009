import os
import warnings

import numpy as np
import pytest

from qmeas.errors import ValidationError
from qmeas.experiments import (
    LINE_CORE_BINS,
    DrivenTwoLevel,
    _scan_grid,
    analyze_rabi_line,
    moving_average,
    periodogram,
    run_rabi_monitor,
    run_transition_monitor,
    run_zeno_scan,
)
from qmeas.hilbert import DensityMatrix, trace_distance
from qmeas.lindblad import integrate_lindblad, lindblad_exact
from qmeas.readout import TimeGrid
from qmeas.sse import (
    _run_batch,
    _share_cuts,
    ensemble_accumulate,
    ensemble_sums,
    simulate_trajectory,
)


def soft_system(kappa=0.04):
    return DrivenTwoLevel(level_splitting=2.0, rabi=1.0, kappa=kappa)


class TestDrivenTwoLevel:
    @pytest.mark.parametrize(
        "params", [(np.nan, 1.0, 1.0), (np.inf, 1.0, 1.0), (2.0, np.nan, 1.0), (2.0, 1.0, np.inf)]
    )
    def test_non_finite_parameters_are_rejected(self, params):
        message = r"^level_splitting, rabi and kappa must be finite; replace nan or inf$"
        with pytest.raises(ValidationError, match=message):
            DrivenTwoLevel(*params)


class TestZenoScan:
    def test_unitary_limit_full_flip(self):
        scan = run_zeno_scan(soft_system(), [1e-6], n_traj=0)
        assert scan.transfer_probabilities[0] == pytest.approx(1.0, abs=1e-5)

    def test_strong_measurement_freezes(self):
        # kappa * splitting^2 / 2 = 20 >> rabi: deep Zeno regime
        scan = run_zeno_scan(soft_system(), [10.0], n_traj=0)
        assert scan.transfer_probabilities[0] < 0.1

    def test_monotone_over_grid(self):
        scan = run_zeno_scan(soft_system(), [0.1, 1.0, 10.0, 100.0], n_traj=0)
        p = scan.transfer_probabilities
        assert np.all(np.diff(p) <= 1e-12)

    def test_negative_n_traj_is_rejected(self):
        # a negative count would skip the cross-check and report NaN distances
        message = "n_traj must be >= 0; 0 skips the stochastic cross-check"
        with pytest.raises(ValidationError, match=message):
            run_zeno_scan(DrivenTwoLevel(2, 1, 1), [0.1, 1], n_traj=-5)

    def test_sse_cross_check_inside_scenario(self):
        scan = run_zeno_scan(soft_system(), [1.0], n_traj=2000, seed=0)
        assert scan.sse_trace_distances[0] <= 0.02

    def test_cross_check_equals_the_all_node_sums(self):
        # the scan keeps only the final node's projector sums; its numbers are
        # the bits of a reference that reads the last row of all n + 1 nodes
        system, kappas, n_traj, seed = DrivenTwoLevel(2.0, 4.0, 1.0), [0.5, 3.0], 70, 11
        scan = run_zeno_scan(system, kappas, n_traj=n_traj, seed=seed, workers=2)
        transfers, distances = [], []
        for kappa in kappas:
            sys_k = DrivenTwoLevel(2.0, 4.0, kappa)
            model, t_flip = sys_k.monitoring_model(), np.pi / sys_k.rabi
            rho = lindblad_exact(model, DensityMatrix.from_state(sys_k.ground_state()), t_flip)
            grid = _scan_grid(sys_k, t_flip)
            rho_sum = ensemble_accumulate(model, sys_k.ground_state(), grid, n_traj, seed)
            assert rho_sum.shape == (grid.n_steps + 1, 2, 2)
            mean = rho_sum[-1] / n_traj
            transfers.append(rho.entries[0, 0].real)
            distances.append(trace_distance(DensityMatrix(0.5 * (mean + mean.conj().T)), rho))
        assert scan.transfer_probabilities.tobytes() == np.clip(transfers, 0.0, 1.0).tobytes()
        assert scan.sse_trace_distances.tobytes() == np.array(distances).tobytes()

    def test_one_pool_and_the_same_bits_at_any_worker_count(self, counted_pools):
        # kappa = 100 has most of the steps, so it is split into two shares at
        # 2 workers and three at 3, the others run whole; 400 trajectories are
        # seven chunks, the last partial. All shares of the scan run on one pool.
        system, kappas = DrivenTwoLevel(2.0, 4.0, 1.0), [0.5, 5.0, 100.0]
        scans = {}
        for workers, made in ((1, []), (2, [[2, 4]]), (3, [[3, 5]])):
            counted_pools.clear()
            scans[workers] = run_zeno_scan(system, kappas, n_traj=400, seed=21, workers=workers)
            assert counted_pools == made, workers
        for workers in (2, 3):
            scan, one = scans[workers], scans[1]
            assert scan.transfer_probabilities.tobytes() == one.transfer_probabilities.tobytes()
            assert scan.sse_trace_distances.tobytes() == one.sse_trace_distances.tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_exact_propagators_once_per_kappa_in_this_process(self, tmp_path, monkeypatch, workers):
        # each call appends this process id to a file, so a call in a forked
        # worker would show up too
        log = tmp_path / "calls"

        def logged(*args, **kwargs):
            with open(log, "a") as f:
                f.write(f"{os.getpid()}\n")
            return lindblad_exact(*args, **kwargs)

        monkeypatch.setattr("qmeas.experiments.lindblad_exact", logged)
        kappas = [0.5, 5.0, 50.0]
        scan = run_zeno_scan(soft_system(), kappas, n_traj=70, seed=3, workers=workers)
        assert log.read_text().split() == [str(os.getpid())] * len(kappas)
        assert np.all(np.isfinite(scan.sse_trace_distances))

    def test_negative_seed_rejected_before_any_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        with pytest.raises(ValidationError, match="use a seed >= 0"):
            run_zeno_scan(soft_system(), [0.5, 5.0], n_traj=130, seed=-1, workers=2)

    def test_bench_grids_share_the_workers_by_step_count(self):
        # kappa = 100 has about three quarters of the steps, so at 2 workers
        # it gets both, and each other kappa runs whole; at 128 trajectories,
        # two chunks, it runs whole too, since no share is below two chunks
        grids = [_scan_grid(soft_system(kappa), np.pi) for kappa in (0.1, 1.0, 10.0, 100.0)]
        cuts = _share_cuts([(128, g.n_steps) for g in grids], 2)
        assert cuts == [[0, 128], [0, 128], [0, 128], [0, 128]]
        cuts = _share_cuts([(400, g.n_steps) for g in grids], 2)
        assert cuts == [[0, 400], [0, 400], [0, 400], [0, 192, 400]]

    def test_kappa_list_validation(self):
        with pytest.raises(ValidationError):
            run_zeno_scan(soft_system(), [1.0, 0.5], n_traj=0)
        with pytest.raises(ValidationError):
            run_zeno_scan(soft_system(), [], n_traj=0)

    def test_against_closed_form_bloch_oracle(self):
        # driven two-level with pure dephasing reduces to a damped oscillator
        # for (y, z): z'' + Gamma z' + Omega^2 z = 0 from z(0) = -1, z'(0) = 0
        def transfer_closed(kappa, splitting=2.0, omega=1.0):
            gamma = 0.5 * kappa * splitting**2
            w = np.sqrt(complex(omega**2 - gamma**2 / 4.0))
            t = np.pi / omega
            if abs(w) < 1e-9:  # critically damped
                z = -np.exp(-0.5 * gamma * t) * (1.0 + 0.5 * gamma * t)
            else:
                z = -np.exp(-0.5 * gamma * t) * (
                    np.cos(w * t) + gamma / (2.0 * w) * np.sin(w * t)
                )
            return 0.5 * (1.0 + np.real(z))

        kappas = [0.1, 1.0, 10.0, 100.0]
        scan = run_zeno_scan(soft_system(), kappas, n_traj=0)
        for k, p in zip(kappas, scan.transfer_probabilities):
            assert p == pytest.approx(transfer_closed(k), abs=2e-5)

    def test_transfers_match_closed_form_to_roundoff(self):
        # the scan's exact propagator against z'' + Gamma z' + Omega^2 z = 0,
        # z(0) = -1, z'(0) = 0, at t = pi/Omega; kappa = 1 is critically damped
        kappas = [0.1, 1.0, 10.0, 100.0]
        scan = run_zeno_scan(soft_system(), kappas, n_traj=0)
        for kappa, p in zip(kappas, scan.transfer_probabilities):
            gamma = 0.5 * kappa * 2.0**2
            w = np.sqrt(complex(1.0 - gamma**2 / 4.0))
            decay = np.exp(-0.5 * gamma * np.pi)
            if abs(w) < 1e-9:
                z = -decay * (1.0 + 0.5 * gamma * np.pi)
            else:
                z = -decay * (np.cos(w * np.pi) + gamma / (2.0 * w) * np.sin(w * np.pi))
            assert p == pytest.approx(0.5 * (1.0 + np.real(z)), abs=1e-12)

    # The weak-Zeno law across its three regimes: underdamped, critical at
    # kappa = 1 (where L is defective) and overdamped up to kappa = 1000,
    # where exp(L t) takes the most squarings. The reference is the 2 x 2
    # companion form of z'' + Gamma z' + Omega^2 z = 0 that the benchmark's
    # zeno check uses. The largest difference measured was 2.4e-15, at
    # kappa = 100; 40-digit arithmetic puts that error in the companion
    # form's own exponential, and lindblad_exact within 2e-17 of the exact
    # transfer there. The bound is four times it.
    @pytest.mark.parametrize("kappa", [0.01, 0.1, 1.0, 10.0, 100.0, 1000.0])
    def test_exact_transfer_is_the_damped_bloch_law(self, kappa):
        from scipy.linalg import expm

        system = DrivenTwoLevel(level_splitting=2.0, rabi=1.0, kappa=kappa)
        rho0 = DensityMatrix.from_state(system.ground_state())
        transfer = lindblad_exact(system.monitoring_model(), rho0, np.pi).entries[0, 0].real
        gamma = 0.5 * kappa * 2.0**2
        companion = np.array([[0.0, 1.0], [-1.0, -gamma]])
        z = (expm(companion * np.pi) @ np.array([-1.0, 0.0]))[0]
        assert abs(transfer - 0.5 * (1.0 + z)) <= 1e-14


class TestRabiMonitor:
    def test_soft_regime_line_detected(self):
        traj, spectrum = run_rabi_monitor(soft_system(0.04), t_final=100.0, dt=1e-3, seed=1)
        stats = analyze_rabi_line(spectrum, 1.0)
        assert stats.detected
        assert abs(stats.offset_bins) <= 2
        assert stats.power_ratio >= 3.0
        # the record tracks the energy expectation of the same trajectory;
        # the correlation is noise-limited at this kappa*T, the spectral line
        # above is the sharp statement
        ez = traj.expectation_series(soft_system().energy_observable())
        smoothed = moving_average(traj.record.values, 500)
        assert np.corrcoef(smoothed[500:-500], ez[1:][500:-500])[0, 1] > 0.2

    def test_soft_regime_weaker_measurement_still_locates_line(self):
        # shorter, weaker run: the line location survives at reduced contrast
        _, spectrum = run_rabi_monitor(soft_system(0.02), t_final=50.0, dt=1e-3, seed=1)
        stats = analyze_rabi_line(spectrum, 1.0)
        assert abs(stats.offset_bins) <= 2
        assert stats.power_ratio >= 3.0

    @pytest.mark.parametrize("band_bins", range(1, LINE_CORE_BINS + 1))
    def test_empty_background_band_is_rejected(self, band_bins):
        # every band bin lies in the line core: no background median, so no
        # ratio; pure noise must not read as a detected line
        values = np.random.default_rng(1).standard_normal(20000)
        spectrum = periodogram(values, 1e-3)
        message = rf"\[rabi\] band_bins = {band_bins} must exceed"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=message):
                analyze_rabi_line(spectrum, 1.0, search_bins=1, band_bins=band_bins)
            stats = analyze_rabi_line(spectrum, 1.0, search_bins=1, band_bins=LINE_CORE_BINS + 1)
        assert np.isfinite(stats.power_ratio)

    def test_frozen_regime_line_lost(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            _, spectrum = run_rabi_monitor(soft_system(10.0), t_final=100.0, dt=1e-3, seed=1)
        stats = analyze_rabi_line(spectrum, 1.0)
        assert not stats.detected

    def test_regime_warning(self):
        with pytest.warns(RuntimeWarning, match="soft"):
            run_rabi_monitor(soft_system(5.0), t_final=1.0, dt=1e-3, seed=0)

    def test_no_drive_record_is_flat_noise(self):
        system = DrivenTwoLevel(level_splitting=2.0, rabi=0.0, kappa=1.0)
        grid = TimeGrid(0.0, 1e-3, 20000)
        traj = simulate_trajectory(system.monitoring_model(), system.excited_state(), grid, 4)
        # record = eigenvalue + white noise: the smoothed record hugs +1
        smoothed = moving_average(traj.record.values, 500)
        sigma_smooth = np.sqrt(1.0 / (4 * system.kappa * 0.5))
        assert np.max(np.abs(smoothed[250:-250] - 1.0)) <= 5 * sigma_smooth

    def test_detectability_degrades_with_kappa(self):
        # mean core-line ratio over pinned seeds, soft boundary to frozen
        means = []
        for kappa in (0.2, 0.5, 2.0, 16.0):
            dt = 5e-4 if kappa > 8 else 1e-3
            system = soft_system(kappa)
            grid = TimeGrid(0.0, dt, int(round(60.0 / dt)))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                _, recs, _ = _run_batch(
                    system.monitoring_model(), system.ground_state(), grid, list(range(8))
                )
            ratios = [
                analyze_rabi_line(periodogram(r, dt), system.rabi, search_bins=2).power_ratio
                for r in recs
            ]
            means.append(np.mean(ratios))
        assert all(b <= a for a, b in zip(means, means[1:])), means


class TestTransitionMonitor:
    def test_single_upward_transition_detected(self):
        system = DrivenTwoLevel(level_splitting=2.0, rabi=1.0, kappa=4.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res = run_transition_monitor(system, 30.0, 1e-3, seed=10)
        assert len(res.detected_times) == 1
        # consistency with the trajectory's own energy expectation curve
        ez = res.trajectory.expectation_series(system.energy_observable())
        flips = np.nonzero(np.diff(np.sign(ez)))[0]
        t_flips = res.trajectory.grid.times()[flips]
        t_det = res.detected_times[0]
        assert np.min(np.abs(t_flips - t_det)) <= res.smoothing_window

    def test_no_drive_false_positive_rate(self):
        # kappa * splitting^2 * T = 16 >= 10: noise alone stays below threshold
        system = DrivenTwoLevel(level_splitting=2.0, rabi=0.0, kappa=4.0)
        fp = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for seed in range(50):
                res = run_transition_monitor(system, 1.0, 1e-3, seed, smoothing_window=0.5)
                fp += bool(res.detected_times)
        assert fp == 0

    def test_excited_start_without_drive_never_crosses(self):
        system = DrivenTwoLevel(level_splitting=2.0, rabi=0.0, kappa=4.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res = run_transition_monitor(
                system, 5.0, 1e-3, seed=3, smoothing_window=0.5, initial=system.excited_state()
            )
        assert res.detected_times == ()
        assert np.mean(res.trajectory.record.values) == pytest.approx(1.0, abs=0.05)


class TestScenarioDeterminism:
    def test_zeno_scan_bit_reproducible(self):
        a = run_zeno_scan(soft_system(), [0.5, 2.0], n_traj=64, seed=5)
        b = run_zeno_scan(soft_system(), [0.5, 2.0], n_traj=64, seed=5)
        assert np.array_equal(a.transfer_probabilities, b.transfer_probabilities)
        assert np.array_equal(a.sse_trace_distances, b.sse_trace_distances)

    def test_lindblad_sse_agreement_generic_point(self):
        # the scan's internal cross-check, reproduced externally
        system = soft_system(1.0)
        grid = TimeGrid(0.0, 1e-3, 1000)
        [[rho_sum]], _ = ensemble_sums(
            [(system.monitoring_model(), system.ground_state(), grid, 500, 2)], final=True
        )
        ref = integrate_lindblad(
            system.lindblad_model(),
            DensityMatrix.from_state(system.ground_state()),
            grid,
        )
        mean_final = rho_sum / 500
        d = trace_distance(DensityMatrix(0.5 * (mean_final + mean_final.conj().T)), ref[-1])
        assert d <= 0.05
