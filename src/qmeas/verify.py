"""Cross-method verification suite.

Each check exercises one of the equivalence or phenomenology claims tying
the dynamical descriptions together (master equation vs stochastic ensemble
vs readout-marginalized monitoring, measurement-operator completeness,
slicing convergence, collapse statistics, Zeno freezing, Rabi visibility,
weak-series universality). Checks return a CheckResult and are aggregated by
the ``verify`` CLI scenario and asserted one-for-one by the acceptance test
module.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .chain import (
    FuzzyKraus,
    NonHermitianOperator,
    ancilla_branch_operators,
    fit_effective_quadratic,
    run_chain_ensemble,
)
from .chm import (
    MonitoringModel,
    generalized_unitarity_defect,
    marginalize_readouts,
    ode_propagator,
    single_step_log_density,
    sliced_propagator,
)
from .experiments import DrivenTwoLevel, analyze_rabi_line, run_rabi_monitor, run_zeno_scan
from .hilbert import (
    DensityMatrix,
    HermitianOperator,
    QuantumState,
    basis_state,
    pauli_x,
    pauli_z,
    plus_state,
    trace_distance,
)
from .lindblad import integrate_lindblad
from .readout import TimeGrid, constant_record
from .sse import compare_to_master, ensemble_sums


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.detail}"


def check_dephasing_rate() -> CheckResult:
    """Pure dephasing: fitted decay rate of rho01 equals (kappa/2)*(gap)^2."""
    kappa = 0.5
    model = MonitoringModel(HermitianOperator(np.zeros((2, 2))), pauli_z(), kappa)
    grid = TimeGrid(0.0, 0.005, 200)
    rho0 = DensityMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
    rhos = integrate_lindblad(model, rho0, grid)
    coh = np.array([abs(r.entries[0, 1]) for r in rhos])
    times = grid.times()
    rate = -np.polyfit(times, np.log(coh), 1)[0]
    expected = 0.5 * kappa * 2.0**2
    rel = abs(rate - expected) / expected
    return CheckResult(
        "dephasing_rate",
        rel <= 0.005,
        f"fitted rate {rate:.6f} vs (kappa/2)*gap^2 = {expected} (rel err {rel:.2e}, tol 0.5%)",
    )


def check_sse_lindblad_equivalence(n_traj: int = 2000, workers: int = 1) -> CheckResult:
    """Stochastic ensemble mean matches the master equation at every output
    time (trace distance <= 0.02 with 2000 trajectories)."""
    model = MonitoringModel(pauli_x(), pauli_z(), 0.5)
    grid = TimeGrid(0.0, 1e-3, 2000)
    _, dists = compare_to_master(model, basis_state(2, 0), grid, n_traj, 1000, workers)
    worst = float(np.max(dists))
    return CheckResult(
        "sse_lindblad_equivalence",
        worst <= 0.02,
        f"max trace distance {worst:.4f} over {n_traj} trajectories (tol 0.02)",
    )


def check_marginalization_equivalence() -> CheckResult:
    """Readout-integrated monitoring equals the master equation within 1e-3
    trace distance at every step (T=2, dt=0.01, Gauss-Hermite order 40)."""
    h, a, kappa = pauli_x(), pauli_z(), 0.5
    grid = TimeGrid(0.0, 0.01, 200)
    rho0 = DensityMatrix.from_state(basis_state(2, 0))
    ref = integrate_lindblad(MonitoringModel(h, a, kappa), rho0, grid)
    marg = marginalize_readouts(MonitoringModel(h, a, kappa), rho0, grid, quad_order=40)
    worst = max(trace_distance(x, y) for x, y in zip(marg, ref))
    return CheckResult(
        "marginalization_equivalence",
        worst <= 1e-3,
        f"max trace distance {worst:.2e} (tol 1e-3)",
    )


def check_generalized_unitarity() -> CheckResult:
    """Single-slice completeness defect <= 1e-8 across observables, strengths
    and step sizes (quadrature order 40)."""
    worst = 0.0
    h2 = HermitianOperator(np.zeros((2, 2)))
    h3 = HermitianOperator(np.zeros((3, 3)))
    cases = [(pauli_z(), h2), (HermitianOperator(np.diag([0.0, 1.0, 3.0])), h3)]
    for a, h in cases:
        for kappa in (0.1, 1.0, 10.0):
            for dt in (0.01, 0.1):
                defect = generalized_unitarity_defect(MonitoringModel(h, a, kappa), dt, 40)
                worst = max(worst, defect)
    return CheckResult(
        "generalized_unitarity",
        worst <= 1e-8,
        f"worst completeness defect {worst:.2e} (tol 1e-8)",
    )


def check_slicing_convergence() -> CheckResult:
    """Sliced product converges to the exact propagator exp(-i*H_eff*T) of a
    constant record at first order in dt (slope 1.0 +/- 0.1); a record value
    off the spectral center keeps the measurement factor non-commuting."""
    model = MonitoringModel(pauli_x(), pauli_z(), 1.0)
    a_val, t_final = 1.0, 1.0
    ref = ode_propagator(model, constant_record(TimeGrid(0.0, t_final, 1), a_val))
    dts = np.array([0.1, 0.05, 0.025, 0.0125])
    errs = []
    for dt in dts:
        rec = constant_record(TimeGrid(0.0, float(dt), int(round(t_final / dt))), a_val)
        errs.append(np.linalg.norm(sliced_propagator(model, rec).matrix.entries - ref, 2))
    slope = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    return CheckResult(
        "slicing_convergence",
        abs(slope - 1.0) <= 0.1,
        f"log-log error slope {slope:.3f} (target 1.0 +/- 0.1)",
    )


def check_density_normalization() -> CheckResult:
    """The single-slice readout density integrates to 1 +/- 1e-6 over the
    constant-record family under the reference measure."""
    model = MonitoringModel(pauli_x(), pauli_z(), 0.5)
    dt = 0.1
    psi0 = QuantumState(np.array([0.6, 0.8], dtype=complex))
    half_width = 1.0 + 8.0 / np.sqrt(2.0 * model.kappa * dt)
    grid_a = np.linspace(-half_width, half_width, 4001)
    dens = np.exp(single_step_log_density(model, grid_a, dt, psi0))
    total = float(np.trapezoid(dens, grid_a))
    return CheckResult(
        "density_normalization",
        abs(total - 1.0) <= 1e-6,
        f"integral {total:.9f} (tol 1e-6)",
    )


def check_collapse_statistics(n_chains: int = 5000) -> CheckResult:
    """Chains from 0.6|1> + 0.8|2> collapse to |1> with Born frequency 0.36
    within 3 sigma, and eigenspace populations drift by less than 3 standard
    errors over the chain (martingale)."""
    k = FuzzyKraus(pauli_z(), 0.1)
    psi0 = QuantumState(np.array([0.6, 0.8], dtype=complex))
    collapsed, pops_final, mean_pops = run_chain_ensemble(
        k, psi0, n_steps=500, n_chains=n_chains, seed_base=10_000
    )
    # eigenspaces are indexed by ascending eigenvalue; the 0.6-amplitude
    # level sits at sigma_z = +1, i.e. index 1, with Born weight 0.36
    freq = float(np.mean(collapsed == 1))
    sigma = np.sqrt(0.36 * 0.64 / n_chains)
    freq_ok = abs(freq - 0.36) <= 3.0 * sigma
    # martingale: its mean population is constant in shot number
    p0 = mean_pops[:, 1]
    se = float(np.std(pops_final[:, 1]) / np.sqrt(n_chains))
    drift = float(np.max(np.abs(p0 - p0[0])))
    drift_ok = drift <= 3.0 * max(se, 1e-12)
    return CheckResult(
        "collapse_statistics",
        freq_ok and drift_ok,
        f"collapse freq {freq:.4f} (0.36 +/- {3 * sigma:.4f}); "
        f"martingale drift {drift:.4f} (tol {3 * se:.4f})",
    )


def check_zeno_effect() -> CheckResult:
    """Transfer probability at t = pi/Omega is non-increasing in kappa over
    {0.1, 1, 10, 100} (Omega=1, splitting=2), below 0.1 at the largest kappa
    and above 0.95 at the smallest."""
    system = DrivenTwoLevel(level_splitting=2.0, rabi=1.0, kappa=1.0)
    scan = run_zeno_scan(system, [0.1, 1.0, 10.0, 100.0], n_traj=0)
    p = scan.transfer_probabilities
    monotone = scan.monotone_non_increasing()
    frozen = p[-1] < 0.1
    soft = p[0] > 0.95
    detail = (
        "transfers " + ", ".join(f"{v:.4f}" for v in p)
        + f"; monotone={monotone}, frozen<0.1={frozen}, soft>0.95={soft}"
    )
    return CheckResult("zeno_effect", monotone and frozen and soft, detail)


def check_rabi_visualization() -> CheckResult:
    """Record periodogram shows the Rabi line in the soft regime (peak within
    2 bins, >= 3x local background) and loses it in the frozen regime."""
    soft = DrivenTwoLevel(level_splitting=2.0, rabi=1.0, kappa=0.04)
    _, spectrum = run_rabi_monitor(soft, t_final=100.0, dt=1e-3, seed=1)
    stats_soft = analyze_rabi_line(spectrum, soft.rabi)
    frozen = DrivenTwoLevel(level_splitting=2.0, rabi=1.0, kappa=10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        _, spectrum_f = run_rabi_monitor(frozen, t_final=100.0, dt=1e-3, seed=1)
    stats_frozen = analyze_rabi_line(spectrum_f, frozen.rabi)
    ok = stats_soft.detected and not stats_frozen.detected
    return CheckResult(
        "rabi_visualization",
        ok,
        f"soft: offset {stats_soft.offset_bins} bins, ratio {stats_soft.power_ratio:.1f} "
        f"(detected={stats_soft.detected}); frozen: offset {stats_frozen.offset_bins}, "
        f"ratio {stats_frozen.power_ratio:.1f} (detected={stats_frozen.detected})",
    )


def check_weak_series_universality() -> CheckResult:
    """Post-selected weak-probe series: quadratic fit residual scales as g^2
    at fixed n*g^2 (slope 2.0 +/- 0.3) and kappa_eff matches the per-shot
    Taylor coefficient g^2/2 within 5%."""
    a_op = HermitianOperator(np.diag([-1.0, 0.0, 2.0]))
    gs = np.array([0.2, 0.1, 0.05, 0.025])
    total_strength = 1.0  # n * g^2 held fixed
    resids = []
    kappa_ok = True
    details = []
    for g in gs:
        n = int(round(total_strength / g**2))
        m0, _ = ancilla_branch_operators(a_op, float(g))
        cumulative = np.eye(3, dtype=complex)
        for _ in range(n):
            cumulative = m0 @ cumulative
        evals, q = np.linalg.eigh(cumulative)
        log_c = (q * np.log(evals)) @ q.conj().T
        heff_t = NonHermitianOperator(1j * log_c)
        kappa_eff, _, resid = fit_effective_quadratic(heff_t, a_op, center=0.0, total_time=float(n))
        oracle = g**2 / 2.0
        if abs(kappa_eff - oracle) > 0.05 * oracle:
            kappa_ok = False
        resids.append(resid)
        details.append(f"g={g}: kappa_eff={kappa_eff:.3e} (oracle {oracle:.3e})")
    slope = float(np.polyfit(np.log(gs), np.log(resids), 1)[0])
    slope_ok = abs(slope - 2.0) <= 0.3
    return CheckResult(
        "weak_series_universality",
        kappa_ok and slope_ok,
        f"residual slope {slope:.2f} (target 2.0 +/- 0.3); " + "; ".join(details),
    )


def check_reproducibility() -> CheckResult:
    """Identical seeds give bit-identical ensembles regardless of worker count:
    the every-node projector sums, all that an ensemble returns. 260
    trajectories are five chunks, the last partial, so two workers run two
    shares on a pool against one share in this process."""
    h, a, kappa = pauli_x(), pauli_z(), 0.5
    grid = TimeGrid(0.0, 1e-3, 200)
    model = MonitoringModel(h, a, kappa)
    ensemble = (model, plus_state(), grid, 260, 7)
    [first], _ = ensemble_sums([ensemble], workers=1)
    [second], _ = ensemble_sums([ensemble], workers=2)
    same = np.array_equal(first, second)
    return CheckResult(
        "reproducibility",
        same,
        "ensemble sums bit-identical across worker counts" if same else "worker count changed results",
    )


ALL_CHECKS = (
    check_dephasing_rate,
    check_sse_lindblad_equivalence,
    check_marginalization_equivalence,
    check_generalized_unitarity,
    check_slicing_convergence,
    check_density_normalization,
    check_collapse_statistics,
    check_zeno_effect,
    check_rabi_visualization,
    check_weak_series_universality,
    check_reproducibility,
)


def run_all_checks() -> list[CheckResult]:
    return [check() for check in ALL_CHECKS]
