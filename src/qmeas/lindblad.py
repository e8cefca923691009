"""Nonselective evolution: master equation for a continuously measured system.

For a single continuously monitored Hermitian observable A with resolution
constant kappa, the density matrix obeys

    d rho / dt = -i [H, rho] - (kappa/2) [A, [A, rho]]

(hbar = 1). The kappa/2 coefficient is the package-wide convention anchor:
the selective descriptions in :mod:`qmeas.chm` and :mod:`qmeas.sse` are
calibrated so that readout averaging reproduces exactly this equation.
Integration is fixed-step classical RK4 for reproducibility. One history
loop, :func:`_history`, steps the RK4 here, the exact propagator and the
readout-marginalized map of :mod:`qmeas.chm`: it keeps the states in one
stack and runs the guards (finite, trace drift, positivity at the
DensityMatrix bound, the DensityMatrix checks) once per block of steps on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, IntegrationError, ValidationError
from .hilbert import (
    POSITIVITY_ATOL,
    DensityMatrix,
    HermitianOperator,
    NonHermitianOperator,
    _density_stack,
    _double_commutator,
    _lowest_eigenvalues,
    _zero_non_finite,
    matrix_exponential,
)
from .readout import TimeGrid

BLOCK_CELLS = 8192  # matrix entries of the states checked as one stack, as cli.CSV_SLICE bounds a slice
EXACT_MAX_DIM = 16  # expm of the d^2 x d^2 superoperator costs ~d^6 (4096 x 4096 at d = 64)


@dataclass(frozen=True)
class MonitoringModel:
    """Hamiltonian H, monitored observable A and measurement resolution kappa:
    the one setup that the master equation here, the readout-conditioned
    equation of :mod:`qmeas.chm` and the stochastic unraveling of
    :mod:`qmeas.sse` all describe.

    kappa has units 1/(A^2 * time); larger kappa means a sharper (faster)
    measurement.
    """

    H: HermitianOperator
    A: HermitianOperator
    kappa: float

    def __post_init__(self):
        if self.H.dim != self.A.dim:
            raise DimensionMismatchError(f"H dim {self.H.dim} != A dim {self.A.dim}")
        if not (np.isfinite(self.kappa) and self.kappa > 0):
            raise ValidationError("kappa must be positive and finite")

    @property
    def dim(self) -> int:
        return self.H.dim


LindbladModel = MonitoringModel


def lindblad_rhs(model: MonitoringModel, rho: DensityMatrix) -> np.ndarray:
    """-i[H, rho] - (kappa/2) [A, [A, rho]]; Hermitian and traceless."""
    if model.dim != rho.dim:
        raise DimensionMismatchError(f"model dim {model.dim} != rho dim {rho.dim}")
    return _rhs_raw(model.H.entries, model.A.entries, model.kappa, rho.entries)


def _rhs_raw(h: np.ndarray, a: np.ndarray, kappa: float, r: np.ndarray) -> np.ndarray:
    return -1j * (h @ r - r @ h) - 0.5 * kappa * _double_commutator(a, r)


def _rk4(f, y: np.ndarray, dt: float, n_sub: int = 1) -> np.ndarray:
    """n_sub classical RK4 steps of dt / n_sub for dy/dt = f(y), here and in :mod:`qmeas.chm`."""
    h = dt / n_sub
    for _ in range(n_sub):
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def _blocks(n_steps: int, dim: int) -> list[range]:
    """Steps 1 to n_steps in blocks of max(1, BLOCK_CELLS // dim**2) steps:
    the states of one block are checked as one stack."""
    size = max(1, BLOCK_CELLS // dim**2)
    return [range(k, min(k + size, n_steps + 1)) for k in range(1, n_steps + 1, size)]


def _renormalized(rho: np.ndarray) -> np.ndarray:
    """rho re-symmetrized and trace-renormalized."""
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def _history(
    rho0: DensityMatrix,
    n_steps: int,
    step,
    fix_non_finite: str,
    fix_drift: str | None,
    fix_positivity: str,
) -> list[DensityMatrix]:
    """rho0 and the n_steps states after it, each step(previous state)
    re-symmetrized and trace-renormalized, in one (n_steps + 1, d, d) stack.
    Once per block of steps, on the block's stack, step k passes in order:
    step's result finite; with ``fix_drift``, its trace drift at most 1e-9;
    no eigenvalue below -POSITIVITY_ATOL; the DensityMatrix checks. The
    first failing step raises the IntegrationError of its first failing
    check, naming the step and its fix, having stepped to its block's end."""
    d = rho0.dim
    blocks = _blocks(n_steps, d)
    states = np.empty((n_steps + 1, d, d), dtype=complex)
    raw = np.empty((len(blocks[0]), d, d), dtype=complex)
    rho = rho0.entries
    out = [rho0]
    # a step past a failing one may overflow or divide by zero; the block's
    # check raises for the failing step instead of numpy warning
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for block in blocks:
            for j, k in enumerate(block):
                raw[j] = rho = step(rho)
                states[k] = rho = _renormalized(rho)
            propagated, renormalized = raw[: len(block)], states[block.start : block.stop]
            finite = np.all(np.isfinite(propagated), axis=(-2, -1))
            lo = _lowest_eigenvalues(renormalized)
            bad = ~finite | (lo < -POSITIVITY_ATOL)
            if fix_drift is not None:
                dev = np.trace(_zero_non_finite(propagated)[0], axis1=-2, axis2=-1) - 1.0
                drift = np.hypot(dev.real, dev.imag)  # the bits of abs(complex), unlike np.abs
                bad |= drift > 1e-9
            j = int(np.argmax(bad)) if bad.any() else len(block)
            out += _density_stack(renormalized[:j], lo[:j])
            if j == len(block):
                continue
            k = block.start + j
            if not finite[j]:
                raise IntegrationError(f"non-finite density matrix at step {k}; {fix_non_finite}")
            if fix_drift is not None and drift[j] > 1e-9:
                raise IntegrationError(f"trace drift {drift[j]:.3g} at step {k} exceeds 1e-9; {fix_drift}")
            raise IntegrationError(
                f"positivity violated at step {k} (eigenvalue {lo[j]:.3g} < {-POSITIVITY_ATOL}); "
                f"{fix_positivity}"
            )
    return out


def integrate_lindblad(
    model: MonitoringModel,
    rho0: DensityMatrix,
    grid: TimeGrid,
) -> list[DensityMatrix]:
    """Fixed-step RK4 integration of the master equation over the grid.

    Returns the states at all n_steps + 1 grid nodes from the guarded history
    loop :func:`_history`: a step whose RK4 result is non-finite, drifts in
    trace by more than 1e-9 or has an eigenvalue below -POSITIVITY_ATOL
    (-1e-9, the DensityMatrix bound) raises an IntegrationError that names
    the step and the dt to reduce, instead of silently projecting back.
    """
    if model.dim != rho0.dim:
        raise DimensionMismatchError(f"model dim {model.dim} != rho0 dim {rho0.dim}")
    h, a, kappa, dt = model.H.entries, model.A.entries, model.kappa, grid.dt
    return _history(
        rho0,
        grid.n_steps,
        lambda r: _rk4(lambda y: _rhs_raw(h, a, kappa, y), r, dt),
        f"dt={dt:.3g} is too large for kappa={kappa:.3g} (RK4 unstable)",
        "reduce dt",
        f"dt={dt:.3g} is too large for the dissipation rate ~{kappa:.3g}*(spread of A)^2",
    )


def _superoperator(model: MonitoringModel) -> np.ndarray:
    """L of the master equation on row-major vec(rho). Its column j is vec of
    the right-hand side (the one :func:`lindblad_rhs` evaluates) at the basis
    matrix whose row-major vec is the j-th unit vector, so L holds no formula
    of its own."""
    d = model.dim
    basis = np.eye(d * d).reshape(d * d, d, d)
    cols = [_rhs_raw(model.H.entries, model.A.entries, model.kappa, e) for e in basis]
    return np.array(cols).reshape(d * d, d * d).T


def lindblad_exact(model: MonitoringModel, rho0: DensityMatrix, t: float) -> DensityMatrix:
    """State at time t from the exact propagator exp(L t) of the master
    equation, L the :func:`_superoperator`.

    Meant for one final state at small dimension (d <= EXACT_MAX_DIM); longer
    histories and larger systems go through :func:`integrate_lindblad`. The
    result is one step of :func:`_history`, guarded as an RK4 step is.
    """
    if model.dim != rho0.dim:
        raise DimensionMismatchError(f"model dim {model.dim} != rho0 dim {rho0.dim}")
    if model.dim > EXACT_MAX_DIM:
        raise ValidationError(
            f"exact propagator needs a {model.dim**2} x {model.dim**2} superoperator; "
            f"use integrate_lindblad above dim {EXACT_MAX_DIM}"
        )
    d = model.dim
    prop = matrix_exponential(NonHermitianOperator(_superoperator(model)), t).entries
    fallback = "integrate with integrate_lindblad"
    split = f"split t or {fallback}"
    return _history(rho0, 1, lambda r: (prop @ r.ravel()).reshape(d, d), fallback, split, split)[1]


def kappa_from_brownian(eta: float, temperature: float) -> float:
    """Resolution constant 2 * eta * kT for quantum-diffusion decoherence by
    a thermal medium with damping coefficient eta (hbar = 1)."""
    if eta <= 0 or temperature <= 0:
        raise ValidationError("eta and temperature must be positive")
    return 2.0 * eta * temperature


def kappa_from_atoms(interaction_radius: float, relaxation_time: float) -> float:
    """Resolution constant 2 / (lambda^2 * tau) for position monitoring by
    surrounding atoms with interaction radius lambda and relaxation time tau."""
    if interaction_radius <= 0 or relaxation_time <= 0:
        raise ValidationError("interaction_radius and relaxation_time must be positive")
    return 2.0 / (interaction_radius**2 * relaxation_time)
