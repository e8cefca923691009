"""Stochastic unraveling of the monitored dynamics.

Single trajectories follow the nonlinear Ito equation

    d psi = [-i H - (kappa/2) (A - <A>)^2] psi dt + sqrt(kappa) (A - <A>) psi dW

integrated by Euler-Maruyama with per-step renormalization. The drift and
diffusion coefficients are balanced (diffusion^2 = 2 * drift) so the norm is
conserved in the Ito mean, and the ensemble average of |psi><psi| reproduces
the master equation of :mod:`qmeas.lindblad` with its kappa/2
double-commutator coefficient. Note this is a factor-2 rescaling relative to
the often-quoted form with drift -kappa(A-<A>)^2 and noise sqrt(2 kappa),
which averages to twice the dephasing rate; the convention here keeps all
three descriptions (complex-Hamiltonian, stochastic, master equation)
describing one physical measurement of strength kappa.

The measurement record extracted alongside each trajectory is

    a_k = <A>_{t_k} + dW_k / (2 sqrt(kappa) dt)

so that over a slice the record density matches the complex-Hamiltonian norm
density exp(-2 kappa (a - <A>)^2 dt) for narrow states; its white-noise
intensity is 1/(4 kappa).

Randomness is counter-based: trajectory i uses a Philox stream keyed by
seed_base + i, with Gaussian variates drawn by numpy's standard_normal. A
trajectory is bit-reproducible from its seed alone, independent of batch
composition and worker scheduling: batches are processed in fixed chunks and
reduced in fixed chunk order.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, IntegrationError, ValidationError
from .chm import MonitoringModel
from .hilbert import DensityMatrix, QuantumState
from .readout import ReadoutRecord, TimeGrid

CHUNK = 64  # trajectories per reduction chunk; fixed so results do not depend on worker count
STEP_GUARD = 0.1


@dataclass(frozen=True)
class SseTrajectory:
    """One stochastic trajectory: normalized states on a grid plus its record."""

    grid: TimeGrid
    amplitudes: np.ndarray  # (n_steps + 1, dim), normalized rows
    record: ReadoutRecord
    seed: int

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=complex)
        if a.shape[0] != self.grid.n_steps + 1:
            raise ValidationError("trajectory must hold one state per grid node")
        if self.record.grid != self.grid:
            raise ValidationError("record grid must equal the state grid")
        a = np.ascontiguousarray(a)
        a.setflags(write=False)
        object.__setattr__(self, "amplitudes", a)

    @property
    def states(self) -> tuple[QuantumState, ...]:
        """Materialize the state sequence (one QuantumState per grid node)."""
        return tuple(QuantumState(row) for row in self.amplitudes)

    def expectation_series(self, obs) -> np.ndarray:
        """<A>(t) along the trajectory, vectorized over grid nodes."""
        av = self.amplitudes @ obs.entries.T
        return np.einsum("ti,ti->t", self.amplitudes.conj(), av).real


@dataclass(frozen=True)
class EnsembleSummary:
    """Ensemble-averaged projector sequence from independent trajectories."""

    n_traj: int
    mean_rho: tuple[DensityMatrix, ...]
    seed_base: int
    grid: TimeGrid = field(repr=False)


def _matvec(m: np.ndarray, psi: np.ndarray) -> np.ndarray:
    # (dim, dim) applied to rows of (batch, dim). Broadcast multiply + fixed-axis
    # sum keeps per-element arithmetic independent of batch size, which the
    # bit-reproducibility contract relies on.
    return (m[None, :, :] * psi[:, None, :]).sum(axis=2)


def _guard(model: MonitoringModel, dt: float):
    scale = model.kappa * (2.0 * model.A.spectral_norm()) ** 2 * dt
    if scale > STEP_GUARD:
        raise ValidationError(
            f"kappa * (2||A||)^2 * dt = {scale:.3g} exceeds {STEP_GUARD}; "
            "reduce dt for this measurement strength"
        )


def _step_batch(
    h: np.ndarray, a: np.ndarray, kappa: float, psi: np.ndarray, dw: np.ndarray, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """One Euler-Maruyama step for a batch of states; returns (new states,
    pre-step <A> values)."""
    apsi = _matvec(a, psi)
    exp_a = (psi.conj() * apsi).sum(axis=1).real
    bpsi = apsi - exp_a[:, None] * psi
    b2psi = _matvec(a, bpsi) - exp_a[:, None] * bpsi
    hpsi = _matvec(h, psi)
    out = psi + dt * (-1j * hpsi - 0.5 * kappa * b2psi) + (np.sqrt(kappa) * dw)[:, None] * bpsi
    norms = np.sqrt((np.abs(out) ** 2).sum(axis=1))
    if not np.all(np.isfinite(norms)) or np.any(norms == 0.0):
        raise IntegrationError("stochastic step produced a non-finite or zero state")
    return out / norms[:, None], exp_a


def sse_step(model: MonitoringModel, psi: QuantumState, dw: float, dt: float) -> QuantumState:
    """Single Euler-Maruyama update followed by renormalization.

    dw must be drawn as Normal(0, dt). Deterministic given (psi, dw).
    """
    if model.dim != psi.dim:
        raise DimensionMismatchError(f"model dim {model.dim} != state dim {psi.dim}")
    if dt <= 0:
        raise ValidationError("dt must be positive")
    _guard(model, dt)
    batch = psi.amplitudes[None, :]
    out, _ = _step_batch(model.H.entries, model.A.entries, model.kappa, batch, np.array([dw]), dt)
    return QuantumState(out[0])


def _wiener_increments(seed: int, n_steps: int, dt: float) -> np.ndarray:
    if seed < 0:
        raise ValidationError("seeds must be non-negative")
    gen = np.random.Generator(np.random.Philox(key=int(seed)))
    return gen.standard_normal(n_steps) * np.sqrt(dt)


def _run_batch(
    model: MonitoringModel,
    psi0: QuantumState,
    grid: TimeGrid,
    seeds: list[int],
    keep_history: bool = True,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Advance a batch of trajectories; returns (amplitude history, records,
    projector sums per node).

    History shape (batch, n+1, dim), or None without ``keep_history``;
    records (batch, n); projector sums (n+1, dim, dim) accumulated over the
    batch in index order. The history is only stored, never read, so records
    and sums are the same bits either way.
    """
    b = len(seeds)
    d = model.dim
    n = grid.n_steps
    dt = grid.dt
    dws = np.stack([_wiener_increments(s, n, dt) for s in seeds])
    psi = np.tile(psi0.amplitudes, (b, 1))
    hist = np.empty((b, n + 1, d), dtype=complex) if keep_history else None
    recs = np.empty((b, n))
    sums = np.zeros((n + 1, d, d), dtype=complex)
    if hist is not None:
        hist[:, 0] = psi
    sums[0] = np.einsum("bi,bj->ij", psi, psi.conj())
    h, a, kappa = model.H.entries, model.A.entries, model.kappa
    rec_scale = 1.0 / (2.0 * np.sqrt(kappa) * dt)
    for k in range(n):
        psi, exp_a = _step_batch(h, a, kappa, psi, dws[:, k], dt)
        recs[:, k] = exp_a + dws[:, k] * rec_scale
        if hist is not None:
            hist[:, k + 1] = psi
        sums[k + 1] = np.einsum("bi,bj->ij", psi, psi.conj())
    return hist, recs, sums


def simulate_trajectory(
    model: MonitoringModel, psi0: QuantumState, grid: TimeGrid, seed: int
) -> SseTrajectory:
    """One seeded trajectory with its extracted measurement record."""
    if model.dim != psi0.dim:
        raise DimensionMismatchError(f"model dim {model.dim} != state dim {psi0.dim}")
    _guard(model, grid.dt)
    hist, recs, _ = _run_batch(model, psi0, grid, [seed])
    return SseTrajectory(
        grid=grid,
        amplitudes=hist[0],
        record=ReadoutRecord(grid, recs[0]),
        seed=seed,
    )


def _chunk_task(args) -> tuple[np.ndarray, np.ndarray]:
    model, psi0, grid, seeds = args
    _, recs, sums = _run_batch(model, psi0, grid, seeds, keep_history=False)
    return sums, recs.sum(axis=0)


def _chunk_seeds(seed_base: int, n_traj: int) -> list[list[int]]:
    seeds = [seed_base + i for i in range(n_traj)]
    return [seeds[i : i + CHUNK] for i in range(0, n_traj, CHUNK)]


def ensemble_accumulate(
    model: MonitoringModel,
    psi0: QuantumState,
    grid: TimeGrid,
    n_traj: int,
    seed_base: int,
    workers: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Sums of trajectory projectors per grid node and of records per step.

    Work is split into fixed chunks of CHUNK trajectories; chunk partial sums
    are combined in chunk order, so the result is identical for any worker
    count. Returns (projector sums (n+1, d, d), record sums (n,)).
    """
    if model.dim != psi0.dim:
        raise DimensionMismatchError(f"model dim {model.dim} != state dim {psi0.dim}")
    if n_traj < 1:
        raise ValidationError("n_traj must be >= 1")
    _guard(model, grid.dt)
    tasks = [(model, psi0, grid, chunk) for chunk in _chunk_seeds(seed_base, n_traj)]
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            parts = list(ex.map(_chunk_task, tasks))
    else:
        parts = [_chunk_task(t) for t in tasks]
    rho_sum = parts[0][0].copy()
    rec_sum = parts[0][1].copy()
    for rs, cs in parts[1:]:
        rho_sum += rs
        rec_sum += cs
    return rho_sum, rec_sum


def ensemble_average(
    model: MonitoringModel,
    psi0: QuantumState,
    grid: TimeGrid,
    n_traj: int,
    seed_base: int,
    workers: int = 1,
) -> EnsembleSummary:
    """Mean of |psi><psi| across n_traj independent trajectories at each grid
    node; trajectory i uses seed seed_base + i. Deterministic for fixed
    (n_traj, seed_base) regardless of execution order. With n_traj = 1 the
    result degenerates to the projector sequence of that single trajectory."""
    rho_sum, _ = ensemble_accumulate(model, psi0, grid, n_traj, seed_base, workers)
    mean = tuple(DensityMatrix(0.5 * (m + m.conj().T) / n_traj) for m in rho_sum)
    return EnsembleSummary(n_traj=n_traj, mean_rho=mean, seed_base=seed_base, grid=grid)
