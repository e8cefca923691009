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
composition and worker scheduling. Ensemble sums are taken over fixed chunks
of 64 trajectories: each worker steps its contiguous share of chunks together
in one time loop, and the per-chunk sums are still reduced in chunk order.
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
BLOCK = 256  # steps of Wiener increments drawn at once; equal to one long draw, less memory
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
        raise IntegrationError("stochastic step gave a non-finite or zero state; reduce dt or kappa")
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


def _by_chunk(x: np.ndarray, reduce, out: np.ndarray):
    """out[c] = reduce over the rows of chunk c of x; ``reduce`` maps (g, rows,
    ...) to (g, ...) and takes all full chunks at once, a partial last alone."""
    full = len(x) // CHUNK
    if full:
        out[:full] = reduce(x[: full * CHUNK].reshape(full, CHUNK, *x.shape[1:]))
    if full < len(out):
        out[full] = reduce(x[full * CHUNK :][None])[0]


def _projectors(g: np.ndarray) -> np.ndarray:
    return np.einsum("gbi,gbj->gij", g, g.conj())


def _run_batch(
    model: MonitoringModel,
    psi0: QuantumState,
    grid: TimeGrid,
    seeds: list[int] | range,
    keep_history: bool = True,
    projector_sums: bool = True,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray | None]:
    """Advance a batch of trajectories in one time loop; returns (history,
    records, projector sums). History (batch, n+1, dim), or None without
    ``keep_history``; records (batch, n), or without the history their sums
    per chunk of CHUNK seeds, (chunks, n); projector sums per chunk (chunks,
    n+1, dim, dim), or None without ``projector_sums``. A chunk's sums add its
    trajectories in seed order, so they are the same bits in any batch.
    """
    b = len(seeds)
    d = model.dim
    n = grid.n_steps
    dt = grid.dt
    n_chunks = -(-b // CHUNK)
    gens = [np.random.Generator(np.random.Philox(key=int(s))) for s in seeds]
    psi = np.tile(psi0.amplitudes, (b, 1))
    hist = np.empty((b, n + 1, d), dtype=complex) if keep_history else None
    recs = np.empty((b if keep_history else n_chunks, n))
    sums = np.empty((n_chunks, n + 1, d, d), dtype=complex) if projector_sums else None
    if hist is not None:
        hist[:, 0] = psi
    if sums is not None:
        _by_chunk(psi, _projectors, sums[:, 0])
    h, a, kappa = model.H.entries, model.A.entries, model.kappa
    rec_scale = 1.0 / (2.0 * np.sqrt(kappa) * dt)
    # Balanced blocks, so none is a single step when n > 1: numpy sums a
    # (rows, 1) array pairwise, but wider ones row by row, as one long run does.
    n_blocks = -(-n // BLOCK)
    cuts = [n * i // n_blocks for i in range(n_blocks + 1)]
    for start, stop in zip(cuts, cuts[1:]):
        m = stop - start
        dws = np.stack([gen.standard_normal(m) for gen in gens]) * np.sqrt(dt)
        block = recs[:, start:stop] if keep_history else np.empty((b, m))
        for k in range(m):
            psi, exp_a = _step_batch(h, a, kappa, psi, dws[:, k], dt)
            block[:, k] = exp_a + dws[:, k] * rec_scale
            if hist is not None:
                hist[:, start + k + 1] = psi
            if sums is not None:
                _by_chunk(psi, _projectors, sums[:, start + k + 1])
        if not keep_history:
            _by_chunk(block, lambda g: g.sum(axis=1), recs[:, start:stop])
    return hist, recs, sums


def simulate_trajectory(
    model: MonitoringModel, psi0: QuantumState, grid: TimeGrid, seed: int
) -> SseTrajectory:
    """One seeded trajectory with its extracted measurement record."""
    if model.dim != psi0.dim:
        raise DimensionMismatchError(f"model dim {model.dim} != state dim {psi0.dim}")
    if seed < 0:
        raise ValidationError(f"seed {seed} is negative; use a seed >= 0")
    _guard(model, grid.dt)
    hist, recs, _ = _run_batch(model, psi0, grid, [seed], projector_sums=False)
    return SseTrajectory(
        grid=grid,
        amplitudes=hist[0],
        record=ReadoutRecord(grid, recs[0]),
        seed=seed,
    )


def _chunk_task(args) -> tuple[np.ndarray, np.ndarray]:
    """Pool task: per-chunk (projector sums, record sums) of one share of seeds."""
    model, psi0, grid, seeds = args
    _, rec_sums, sums = _run_batch(model, psi0, grid, seeds, keep_history=False)
    return sums, rec_sums


def ensemble_accumulate(
    model: MonitoringModel,
    psi0: QuantumState,
    grid: TimeGrid,
    n_traj: int,
    seed_base: int,
    workers: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Sums of trajectory projectors per grid node and of records per step.

    Each worker runs a contiguous, balanced share of fixed chunks of CHUNK
    trajectories in one time loop; chunk partial sums are combined in chunk
    order, so the result is identical for any worker count. Returns
    (projector sums (n+1, d, d), record sums (n,)).
    """
    if model.dim != psi0.dim:
        raise DimensionMismatchError(f"model dim {model.dim} != state dim {psi0.dim}")
    if n_traj < 1:
        raise ValidationError("n_traj must be >= 1")
    if seed_base < 0:
        raise ValidationError(f"seed_base {seed_base} is negative; use a seed >= 0")
    _guard(model, grid.dt)
    n_chunks = -(-n_traj // CHUNK)
    shares = max(1, min(workers, n_chunks))
    cuts = [CHUNK * (n_chunks * i // shares) for i in range(shares)] + [n_traj]
    seeds = range(seed_base, seed_base + n_traj)
    tasks = [(model, psi0, grid, seeds[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
    if len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=len(tasks)) as ex:
            parts = list(ex.map(_chunk_task, tasks))
    else:
        parts = [_chunk_task(tasks[0])]
    sums = [s for share, _ in parts for s in share]
    recs = [r for _, share in parts for r in share]
    rho_sum = sums[0].copy()
    rec_sum = recs[0].copy()
    for rs, cs in zip(sums[1:], recs[1:]):
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
