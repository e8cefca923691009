"""Nonselective evolution: master equation for a continuously measured system.

For a single continuously monitored Hermitian observable A with resolution
constant kappa, the density matrix obeys

    d rho / dt = -i [H, rho] - (kappa/2) [A, [A, rho]]

(hbar = 1). The kappa/2 coefficient is the package-wide convention anchor:
the selective descriptions in :mod:`qmeas.chm` and :mod:`qmeas.sse` are
calibrated so that readout averaging reproduces exactly this equation.
Integration is fixed-step classical RK4 for reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, IntegrationError, ValidationError
from .hilbert import (
    DensityMatrix,
    HermitianOperator,
    NonHermitianOperator,
    matrix_exponential,
)
from .readout import TimeGrid

POSITIVITY_ABORT = -1e-6
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
    ar = a @ r
    dc = a @ ar - 2.0 * (ar @ a) + (r @ a) @ a
    return -1j * (h @ r - r @ h) - 0.5 * kappa * dc


def _settle(rho: np.ndarray, where: str, fix_non_finite: str, fix_drift: str) -> np.ndarray:
    """Check a propagated rho for non-finite entries and a trace drift above
    1e-9, then re-symmetrize and trace-renormalize it."""
    if not np.all(np.isfinite(rho)):
        raise IntegrationError(f"non-finite density matrix {where}; {fix_non_finite}")
    drift = abs(complex(np.trace(rho)) - 1.0)
    if drift > 1e-9:
        raise IntegrationError(f"trace drift {drift:.3g} {where} exceeds 1e-9; {fix_drift}")
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def integrate_lindblad(
    model: MonitoringModel,
    rho0: DensityMatrix,
    grid: TimeGrid,
    store_every: int = 1,
) -> list[DensityMatrix]:
    """Fixed-step RK4 integration of the master equation over the grid.

    Returns the states at ``grid.stored_nodes(store_every)``: t0, after every
    ``store_every``-th step and the final node. Each is re-symmetrized and
    trace-renormalized; the trace drift before renormalization is checked to
    stay below 1e-9 per step. An eigenvalue of rho below -1e-6 aborts with a
    step-size diagnosis instead of silently projecting back.
    """
    if model.dim != rho0.dim:
        raise DimensionMismatchError(f"model dim {model.dim} != rho0 dim {rho0.dim}")
    stored = set(grid.stored_nodes(store_every))
    h = model.H.entries
    a = model.A.entries
    kappa = model.kappa
    dt = grid.dt
    rho = rho0.entries.copy()
    out = [rho0]
    unstable = f"dt={dt:.3g} is too large for kappa={kappa:.3g} (RK4 unstable)"
    for k in range(grid.n_steps):
        k1 = _rhs_raw(h, a, kappa, rho)
        k2 = _rhs_raw(h, a, kappa, rho + 0.5 * dt * k1)
        k3 = _rhs_raw(h, a, kappa, rho + 0.5 * dt * k2)
        k4 = _rhs_raw(h, a, kappa, rho + (dt * k3))
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = _settle(rho, f"at step {k + 1}", unstable, "reduce dt")
        lo = float(np.min(np.linalg.eigvalsh(rho)))
        if lo < POSITIVITY_ABORT:
            raise IntegrationError(
                f"positivity violated at step {k + 1} (eigenvalue {lo:.3g} < {POSITIVITY_ABORT}); "
                f"dt={dt:.3g} is too large for the dissipation rate ~{kappa:.3g}*(spread of A)^2"
            )
        if k + 1 in stored:
            # _settle's rho is its own Hermitian part, bit for bit, so lo is
            # the value DensityMatrix would compute
            out.append(DensityMatrix(rho, _min_eigenvalue=lo))
    return out


def lindblad_exact(model: MonitoringModel, rho0: DensityMatrix, t: float) -> DensityMatrix:
    """State at time t from the exact propagator exp(L t) of the master equation.

    L acts on row-major vec(rho), where vec(X rho Y) = (X kron Y^T) vec(rho):

        L = -i (H x I - I x H^T) - (kappa/2) (A^2 x I - 2 A x A^T + I x (A^2)^T)

    Meant for one final state at small dimension (d <= EXACT_MAX_DIM); longer
    histories and larger systems go through :func:`integrate_lindblad`. The
    result passes the same trace-drift (1e-9) and finiteness checks as an RK4
    step and is validated as a DensityMatrix.
    """
    if model.dim != rho0.dim:
        raise DimensionMismatchError(f"model dim {model.dim} != rho0 dim {rho0.dim}")
    if model.dim > EXACT_MAX_DIM:
        raise ValidationError(
            f"exact propagator needs a {model.dim**2} x {model.dim**2} superoperator; "
            f"use integrate_lindblad above dim {EXACT_MAX_DIM}"
        )
    d = model.dim
    h = model.H.entries
    a = model.A.entries
    a2 = a @ a
    eye = np.eye(d)
    sup = -1j * (np.kron(h, eye) - np.kron(eye, h.T)) - 0.5 * model.kappa * (
        np.kron(a2, eye) - 2.0 * np.kron(a, a.T) + np.kron(eye, a2.T)
    )
    prop = matrix_exponential(NonHermitianOperator(sup), t).entries
    rho = (prop @ rho0.entries.ravel()).reshape(d, d)
    fallback = "integrate with integrate_lindblad"
    rho = _settle(rho, f"from exp(L t) at t={t:.3g}", fallback, f"split t or {fallback}")
    return DensityMatrix(rho)


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
