"""Nonselective evolution: master equation for a continuously measured system.

For a single continuously monitored Hermitian observable A with resolution
constant kappa, the density matrix obeys

    d rho / dt = -i [H, rho] - (kappa/2) [A, [A, rho]]

(hbar = 1). The kappa/2 coefficient is the package-wide convention anchor:
the selective descriptions in :mod:`qmeas.chm` and :mod:`qmeas.sse` are
calibrated so that readout averaging reproduces exactly this equation.
Integration is fixed-step classical RK4 for reproducibility. The states are
kept in one stack, and the guards (finite, trace drift, positivity, the
DensityMatrix checks) run once per block of steps on it, not step by step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, IntegrationError, ValidationError
from .hilbert import (
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

POSITIVITY_ABORT = -1e-6
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


def _first(bad: np.ndarray) -> int:
    """The index of the first True of a mask, its length if none."""
    hits = np.flatnonzero(bad)
    return int(hits[0]) if hits.size else bad.size


def _renormalized(rho: np.ndarray) -> np.ndarray:
    """rho re-symmetrized and trace-renormalized."""
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def _checked(
    raw: np.ndarray,
    states: np.ndarray,
    where,
    fix_non_finite: str,
    fix_drift: str,
    fix_positivity: str | None = None,
) -> list[DensityMatrix]:
    """The DensityMatrix values of a block of steps: raw (n, d, d) the
    propagated matrices, states (n, d, d) their renormalized states, which
    become the values' entries. Step j passes, in this order: raw[j] finite;
    its trace drift below 1e-9; with ``fix_positivity``, no eigenvalue of
    states[j] below POSITIVITY_ABORT; the DensityMatrix checks of states[j].
    The first step that fails raises its first failing check's error, named
    ``where(j)``; every check runs once on the stack."""
    finite = np.all(np.isfinite(raw), axis=(-2, -1))
    dev = np.trace(_zero_non_finite(raw)[0], axis1=-2, axis2=-1) - 1.0
    drift = np.hypot(dev.real, dev.imag)  # the bits of abs(complex), unlike np.abs
    lo = _lowest_eigenvalues(states)
    bad = ~finite | (drift > 1e-9)
    if fix_positivity is not None:
        bad |= lo < POSITIVITY_ABORT
    k = _first(bad)
    out = _density_stack(states[:k], lo[:k])
    if k == bad.size:
        return out
    if not finite[k]:
        raise IntegrationError(f"non-finite density matrix {where(k)}; {fix_non_finite}")
    if drift[k] > 1e-9:
        raise IntegrationError(f"trace drift {drift[k]:.3g} {where(k)} exceeds 1e-9; {fix_drift}")
    raise IntegrationError(
        f"positivity violated {where(k)} (eigenvalue {lo[k]:.3g} < {POSITIVITY_ABORT}); {fix_positivity}"
    )


def integrate_lindblad(
    model: MonitoringModel,
    rho0: DensityMatrix,
    grid: TimeGrid,
) -> list[DensityMatrix]:
    """Fixed-step RK4 integration of the master equation over the grid.

    Returns the states at all n_steps + 1 grid nodes, held in one
    (n_steps + 1, d, d) stack. Each is re-symmetrized and trace-renormalized;
    the trace drift before renormalization is checked to stay below 1e-9 per
    step. An eigenvalue of rho below -1e-6 aborts with a step-size diagnosis
    instead of silently projecting back. The guards run once per block of
    steps (at most BLOCK_CELLS matrix entries) on the block's stack: a failing
    run raises the error of its first failing step, as a check after each
    step would, having stepped at most to the end of that step's block.
    """
    if model.dim != rho0.dim:
        raise DimensionMismatchError(f"model dim {model.dim} != rho0 dim {rho0.dim}")
    h = model.H.entries
    a = model.A.entries
    kappa = model.kappa
    dt = grid.dt
    blocks = _blocks(grid.n_steps, model.dim)
    states = np.empty((grid.n_steps + 1, model.dim, model.dim), dtype=complex)
    raw = np.empty((len(blocks[0]), model.dim, model.dim), dtype=complex)
    rho = rho0.entries
    out = [rho0]
    unstable = f"dt={dt:.3g} is too large for kappa={kappa:.3g} (RK4 unstable)"
    positivity = f"dt={dt:.3g} is too large for the dissipation rate ~{kappa:.3g}*(spread of A)^2"
    # a step past a failing one may overflow or divide by zero; the block's
    # check raises for the failing step instead of numpy warning
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for block in blocks:
            for j, k in enumerate(block):
                raw[j] = rho = _rk4(lambda r: _rhs_raw(h, a, kappa, r), rho, dt)
                states[k] = rho = _renormalized(rho)
            out += _checked(
                raw[: len(block)],
                states[block.start : block.stop],
                lambda j: f"at step {block.start + j}",
                unstable,
                "reduce dt",
                positivity,
            )
    return out


def lindblad_exact(model: MonitoringModel, rho0: DensityMatrix, t: float) -> DensityMatrix:
    """State at time t from the exact propagator exp(L t) of the master equation.

    L acts on row-major vec(rho). Its column j is vec of the master-equation
    right-hand side (the one :func:`lindblad_rhs` evaluates) at the basis
    matrix whose row-major vec is the j-th unit vector, so L holds no formula
    of its own.

    Meant for one final state at small dimension (d <= EXACT_MAX_DIM); longer
    histories and larger systems go through :func:`integrate_lindblad`. The
    result passes the same trace-drift (1e-9) and finiteness checks as an RK4
    step, on a stack of one, and is validated as a DensityMatrix.
    """
    if model.dim != rho0.dim:
        raise DimensionMismatchError(f"model dim {model.dim} != rho0 dim {rho0.dim}")
    if model.dim > EXACT_MAX_DIM:
        raise ValidationError(
            f"exact propagator needs a {model.dim**2} x {model.dim**2} superoperator; "
            f"use integrate_lindblad above dim {EXACT_MAX_DIM}"
        )
    d = model.dim
    basis = np.eye(d * d).reshape(d * d, d, d)
    cols = [_rhs_raw(model.H.entries, model.A.entries, model.kappa, e) for e in basis]
    sup = np.array(cols).reshape(d * d, d * d).T
    prop = matrix_exponential(NonHermitianOperator(sup), t).entries
    raw = (prop @ rho0.entries.ravel()).reshape(1, d, d)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        states = _renormalized(raw[0])[None]
    fallback = "integrate with integrate_lindblad"
    where = f"from exp(L t) at t={t:.3g}"
    [rho] = _checked(raw, states, lambda j: where, fallback, f"split t or {fallback}")
    return rho


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
