"""Selective evolution conditioned on a measurement readout.

A monitored system with readout record a(t) evolves under the linear
non-Hermitian equation

    d psi / dt = [-i H - kappa (A - a(t))^2] psi      (hbar = 1)

whose solution is unnormalized: the squared final norm, weighted by the
per-step Gaussian reference measure of :mod:`qmeas.readout`, is the
probability density of the record. The same dynamics has a time-sliced
product form, one contraction factor exp(-kappa*(A-a_k)^2*dt) and one
unitary factor exp(-i*H*dt) per slice, which is the discrete chain of fuzzy
measurements interleaved with free evolution. One record loop steps the
renormalized state: ||A|| and ||H|| taken once per record set each slice's
substep count, and the RK4 of :mod:`qmeas.lindblad` steps -i times
:func:`effective_hamiltonian`. :func:`ode_propagator`, the product of
exp(-i*H_eff*dt) over the slices, is the equation's exact solution.
Integrating the sliced density matrix over all readouts recovers the
nonselective master equation of :mod:`qmeas.lindblad`.
The contraction factor, the completeness (generalized unitarity) check and
the Gauss-Hermite readout integral live in :class:`qmeas.readout.FuzzySlice`,
which the fuzzy chains of :mod:`qmeas.chain` share at dt = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    IntegrationError,
    QuadratureError,
    ResolutionMismatchError,
    ValidationError,
)
from .hilbert import DensityMatrix, NonHermitianOperator, QuantumState, matrix_exponential
from .lindblad import MonitoringModel, _history, _rk4
from .readout import (
    FuzzySlice,
    ReadoutDensity,
    ReadoutRecord,
    TimeGrid,
    constant_record,
    reference_log_weight,
)

RESOLUTION_GUARD = 0.5
SUBSTEP_TARGET = 0.05
DEFAULT_QUAD_ORDER = 40


@dataclass(frozen=True)
class PartialPropagator:
    """Non-unitary contraction mapping the initial state to the unnormalized
    state conditioned on a readout record. Singular values never exceed 1."""

    matrix: NonHermitianOperator
    record: ReadoutRecord

    def __post_init__(self):
        if not np.all(np.isfinite(self.matrix.entries)):
            raise ValidationError("partial propagator entries must be finite; replace nan or inf")
        top = float(np.linalg.norm(self.matrix.entries, 2))
        if top > 1.0 + 1e-9:
            raise ValidationError(
                f"partial propagator must be a contraction: largest singular value {top:.12g}"
            )


def effective_hamiltonian(model: MonitoringModel, a: float) -> NonHermitianOperator:
    """H - i * kappa * (A - a)^2, the complex generator for readout value a."""
    if not np.isfinite(a):
        raise ValidationError("readout value must be finite")
    shifted = model.A.entries - a * np.eye(model.dim)
    return NonHermitianOperator(model.H.entries - 1j * model.kappa * (shifted @ shifted))


def propagate_chm_series(
    model: MonitoringModel, psi0: QuantumState, record: ReadoutRecord
) -> tuple[np.ndarray, np.ndarray]:
    """The record loop: RK4 along a record, ceil(stiffness*dt/SUBSTEP_TARGET)
    substeps per slice, stiffness = kappa*(||A|| + |a|)^2 + ||H||, behind the
    resolution guard. After every slice the norm is checked and folded into
    the log-norm, and the state renormalized. Returns the full per-step
    history: (log_norms, amplitudes) arrays of shapes (n_steps+1,) and
    (n_steps+1, dim)."""
    if psi0.dim != model.dim:
        raise DimensionMismatchError(f"model dim {model.dim} != state dim {psi0.dim}")
    norm_a = model.A.spectral_norm()
    norm_h = model.H.spectral_norm()
    dt = record.grid.dt
    budget = model.kappa * (norm_a + float(np.max(np.abs(record.values)))) ** 2 * dt
    if budget > RESOLUTION_GUARD:
        raise ResolutionMismatchError(
            f"kappa*(||A|| + |a|)^2*dt = {budget:.3g} exceeds {RESOLUTION_GUARD}; the record "
            "grid is too coarse for this measurement strength, reduce the record dt or kappa"
        )
    logs = np.empty(record.grid.n_steps + 1)
    states = np.empty((logs.size, model.dim), dtype=complex)
    log_norm, psi = psi0.log_norm, psi0.amplitudes
    logs[0], states[0] = log_norm, psi
    for k, a in enumerate(record.values):
        a = float(a)
        gen = -1j * effective_hamiltonian(model, a).entries
        stiffness = model.kappa * (norm_a + abs(a)) ** 2 + norm_h
        psi = _rk4(gen.__matmul__, psi, dt, max(1, int(np.ceil(stiffness * dt / SUBSTEP_TARGET))))
        n = float(np.linalg.norm(psi))
        if not np.isfinite(n) or n == 0.0:
            raise IntegrationError(
                f"state norm lost at record step {k + 1}; reduce the record dt or kappa"
            )
        if n > 1.0 + 1e-6:
            raise IntegrationError(
                f"norm grew by {n - 1.0:.3g} in record step {k + 1}; integration "
                "unstable, reduce the record dt or kappa"
            )
        log_norm += np.log(n)
        psi = psi / n
        logs[k + 1], states[k + 1] = log_norm, psi
    return logs, states


def propagate_chm(
    model: MonitoringModel, psi0: QuantumState, record: ReadoutRecord
) -> tuple[QuantumState, ReadoutDensity]:
    """Integrate the monitoring equation along a readout record: the state and
    log_norm of the last row of :func:`propagate_chm_series`, and the record's
    log-density 2*log_norm + reference_log_weight(record, kappa)."""
    logs, amps = propagate_chm_series(model, psi0, record)
    state = QuantumState(amps[-1], logs[-1])
    density = ReadoutDensity(2.0 * logs[-1] + reference_log_weight(record, model.kappa))
    return state, density


def _slice_product(dim: int, record: ReadoutRecord, factor) -> np.ndarray:
    """Product of factor(a_k) over the record slices, the latest leftmost;
    one factor is computed per distinct record value."""
    prod = np.eye(dim, dtype=complex)
    cache: dict[float, np.ndarray] = {}
    for a in record.values.tolist():
        if a not in cache:
            cache[a] = factor(a)
        prod = cache[a] @ prod
    return prod


def ode_propagator(model: MonitoringModel, record: ReadoutRecord) -> np.ndarray:
    """Exact propagator matrix of the monitoring equation along a record,
    which is constant on each slice: the product of exp(-i*H_eff(a_k)*dt),
    H_eff the :func:`effective_hamiltonian`."""

    def factor(a: float) -> np.ndarray:
        gen = -1j * effective_hamiltonian(model, a).entries
        return matrix_exponential(NonHermitianOperator(gen), record.grid.dt).entries

    return _slice_product(model.dim, record, factor)


def sliced_propagator(model: MonitoringModel, record: ReadoutRecord) -> PartialPropagator:
    """Time-sliced product form of the readout-conditioned propagator.

    Each slice contributes exp(-i*H*dt) * exp(-kappa*(A-a_k)^2*dt), the
    unitary factor acting after the measurement factor. For [H, A] = 0 the
    product equals :func:`ode_propagator`; otherwise it converges to it at
    first order in dt.
    """
    dt = record.grid.dt
    u = matrix_exponential(NonHermitianOperator(-1j * model.H.entries), dt).entries
    kernel = FuzzySlice(model.A, model.kappa, dt)
    prod = _slice_product(model.dim, record, lambda a: u @ kernel.operator(a))
    return PartialPropagator(NonHermitianOperator(prod), record)


def single_step_log_density(
    model: MonitoringModel, a: float | np.ndarray, dt: float, psi0: QuantumState
) -> float | np.ndarray:
    """Log readout density of a single constant-record slice, computed from
    the exact one-slice product operator; for an array of readouts, one
    value per readout, each the bits of its own call, from one slice kernel
    and one exp(-i*H*dt).

    Integrated over a against the reference measure (which is already folded
    in) this density is normalized to 1 for any H, because the measurement
    factor resolves the identity and the unitary factor preserves norms.
    """
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValidationError("record value must be finite")
    r = FuzzySlice(model.A, model.kappa, dt).operator(a)
    u = matrix_exponential(NonHermitianOperator(-1j * model.H.entries), dt).entries
    v = (u @ (r @ psi0.amplitudes)[..., None])[..., 0]
    # the squared norm as np.linalg.norm forms it: real dot plus imaginary dot
    re, im = v.real[..., None, :], v.imag[..., None, :]
    sq = (re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0]
    grid = TimeGrid(t0=0.0, dt=dt, n_steps=1)
    return 2.0 * np.log(np.sqrt(sq)) + reference_log_weight(constant_record(grid, 0.0), model.kappa)


def _checked_slice(model: MonitoringModel, dt: float, quad_order: int) -> tuple[FuzzySlice, float]:
    """The slice kernel of (A, kappa, dt) and its converged completeness defect."""
    if quad_order < 10:
        raise ValidationError("quad_order must be >= 10")
    if dt <= 0:
        raise ValidationError("dt must be positive")
    kernel = FuzzySlice(model.A, model.kappa, dt)
    d_full = kernel.completeness_defect(quad_order)
    if d_full > 1e-8:
        d_half = kernel.completeness_defect(max(10, quad_order // 2))
        if d_full >= d_half:
            raise QuadratureError(
                f"unitarity defect {d_full:.3g} not decreasing with quadrature order "
                f"(order {quad_order} vs {max(10, quad_order // 2)}: {d_half:.3g}); "
                "reduce dt or kappa, or raise quad_order"
            )
    return kernel, d_full


def generalized_unitarity_defect(
    model: MonitoringModel, dt: float, quad_order: int = DEFAULT_QUAD_ORDER
) -> float:
    """Max-norm deviation of the readout-integrated R_a^dag R_a from identity
    for a single slice, by Gauss-Hermite quadrature.

    This is the completeness (generalized unitarity) check of the
    measurement-operator family. Raises if the quadrature has not converged,
    i.e. the defect exceeds 1e-8 yet fails to decrease from order/2 to order.
    """
    return _checked_slice(model, dt, quad_order)[1]


def marginalize_readouts(
    model: MonitoringModel,
    rho0: DensityMatrix,
    grid: TimeGrid,
    quad_order: int = DEFAULT_QUAD_ORDER,
) -> list[DensityMatrix]:
    """Readout-integrated selective evolution: the density matrix obtained by
    summing the sliced conditional evolution over all records with their
    reference-measure weight.

    Per slice the readout integral of R_a rho R_a is evaluated by
    Gauss-Hermite quadrature (an elementwise positive-semidefinite kernel in
    the A eigenbasis) and the unitary factor is applied in symmetric
    half-steps around it, so the iterated map matches the master equation of
    :mod:`qmeas.lindblad` to second order in dt.

    The map keeps the trace only to the kernel's completeness defect, checked
    up front to be at most 1e-6, so the guarded history loop of
    :mod:`qmeas.lindblad` steps it without its trace-drift guard.
    """
    if model.dim != rho0.dim:
        raise DimensionMismatchError(f"model dim {model.dim} != rho0 dim {rho0.dim}")
    slice_kernel, defect = _checked_slice(model, grid.dt, quad_order)
    if defect > 1e-6:
        raise QuadratureError(
            f"quadrature kernel is not complete to 1e-6 (defect {defect:.3g}); raise quad_order"
        )
    q, kernel = slice_kernel.q, slice_kernel.dephasing_kernel(quad_order)
    u_half = matrix_exponential(NonHermitianOperator(-0.5j * model.H.entries), grid.dt).entries
    u_half_h, qh = u_half.conj().T, q.conj().T

    def step(rho: np.ndarray) -> np.ndarray:
        rho = q @ (kernel * (qh @ (u_half @ rho @ u_half_h) @ q)) @ qh
        return u_half @ rho @ u_half_h

    fix = "reduce dt or kappa, or raise quad_order"
    return _history(rho0, grid.n_steps, step, fix, None, fix)
