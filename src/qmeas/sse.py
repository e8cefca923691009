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

Every step, of one state, a trajectory or an ensemble share, runs one
buffered step kernel whose bits do not depend on the batch; the time loop
checks for non-finite or zero states once per block of Wiener increments.
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


def _guard(model: MonitoringModel, dt: float):
    scale = model.kappa * (2.0 * model.A.spectral_norm()) ** 2 * dt
    if scale > STEP_GUARD:
        raise ValidationError(
            f"kappa * (2||A||)^2 * dt = {scale:.3g} exceeds {STEP_GUARD}; "
            "reduce dt for this measurement strength"
        )


def _step_kernel(h: np.ndarray, a: np.ndarray, kappa: float, dt: float, batch: int):
    """The Euler-Maruyama step for ``batch`` states in scratch arrays made
    once: ``step(psi, dw, out, exp_a, norm)`` writes the normalized states to
    ``out``, the pre-step <A> to ``exp_a`` and the norms before normalization
    to ``norm``; callers run it under ``np.errstate`` and pass the norms to
    ``_check_norms``. Each operation is an elementwise ufunc or a reduce over
    a fixed axis, in the order of psi + dt (-i H psi - (kappa/2) B^2 psi) +
    sqrt(kappa) dw B psi with B = A - <A>, so a state's bits do not depend on
    its batch. H psi and A psi come from one multiply-and-reduce over [A; H].
    """
    d = len(a)
    ah = np.concatenate([a, h])[None]
    a3 = ah[:, :d]
    half_kappa, sqrt_kappa = 0.5 * kappa, np.sqrt(kappa)
    prod, prod_a = np.empty((batch, 2 * d, d), complex), np.empty((batch, d, d), complex)
    ahpsi = np.empty((batch, 2 * d), complex)
    apsi, hpsi = ahpsi[:, :d], ahpsi[:, d:]
    t1, t2, bpsi = (np.empty((batch, d), complex) for _ in range(3))
    c, noise, sq = np.empty(batch, complex), np.empty(batch), np.empty((batch, d))
    c_real, exp_col = c.real, c.real[:, None]
    mul, add, sub, add_reduce = np.multiply, np.add, np.subtract, np.add.reduce

    def step(psi, dw, out, exp_a, norm):
        mul(ah, psi[:, None, :], out=prod)
        add_reduce(prod, axis=2, out=ahpsi)
        np.conjugate(psi, out=t1)
        mul(t1, apsi, out=t1)
        add_reduce(t1, axis=1, out=c)
        mul(exp_col, psi, out=t1)
        sub(apsi, t1, out=bpsi)
        mul(a3, bpsi[:, None, :], out=prod_a)
        add_reduce(prod_a, axis=2, out=t2)
        mul(exp_col, bpsi, out=t1)
        sub(t2, t1, out=t2)
        mul(-1j, hpsi, out=t1)
        mul(half_kappa, t2, out=t2)
        sub(t1, t2, out=t1)
        mul(dt, t1, out=t1)
        add(psi, t1, out=t1)
        mul(sqrt_kappa, dw, out=noise)
        mul(noise[:, None], bpsi, out=t2)
        add(t1, t2, out=t1)
        np.abs(t1, out=sq)
        np.square(sq, out=sq)
        add_reduce(sq, axis=1, out=norm)
        np.sqrt(norm, out=norm)
        np.divide(t1, norm[:, None], out=out)
        exp_a[...] = c_real

    return step


def _check_norms(norms: np.ndarray):
    if not np.all(np.isfinite(norms)) or np.any(norms == 0.0):
        raise IntegrationError("stochastic step gave a non-finite or zero state; reduce dt or kappa")


def _step_batch(
    h: np.ndarray, a: np.ndarray, kappa: float, psi: np.ndarray, dw: np.ndarray, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """One Euler-Maruyama step for a batch of states; returns (new states,
    pre-step <A> values)."""
    out, exp_a, norms = np.empty(psi.shape, complex), np.empty(len(psi)), np.empty(len(psi))
    with np.errstate(all="ignore"):
        _step_kernel(h, a, kappa, dt, len(psi))(psi, dw, out, exp_a, norms)
    _check_norms(norms)
    return out, exp_a


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
    psi, spare = np.tile(psi0.amplitudes, (b, 1)), np.empty((b, d), complex)
    # time-major, so each step writes its states to one contiguous row
    hist = np.empty((n + 1, b, d), dtype=complex) if keep_history else None
    recs = np.empty((b if keep_history else n_chunks, n))
    sums = np.empty((n_chunks, n + 1, d, d), dtype=complex) if projector_sums else None
    if hist is not None:
        hist[0] = psi
    if sums is not None:
        _by_chunk(psi, _projectors, sums[:, 0])
    step = _step_kernel(model.H.entries, model.A.entries, model.kappa, dt, b)
    rec_scale = 1.0 / (2.0 * np.sqrt(model.kappa) * dt)
    # Balanced blocks, so none is a single step when n > 1: numpy sums a
    # (rows, 1) array pairwise, but wider ones row by row, as one long run does.
    n_blocks = -(-n // BLOCK)
    cuts = [n * i // n_blocks for i in range(n_blocks + 1)]
    for start, stop in zip(cuts, cuts[1:]):
        m = stop - start
        dws = np.stack([gen.standard_normal(m) for gen in gens]) * np.sqrt(dt)
        exps, norms = np.empty((b, m)), np.empty((b, m))
        with np.errstate(all="ignore"):
            for k in range(m):
                out = hist[start + k + 1] if hist is not None else spare
                step(psi, dws[:, k], out, exps[:, k], norms[:, k])
                psi, spare = out, psi
                if sums is not None:
                    _by_chunk(psi, _projectors, sums[:, start + k + 1])
        _check_norms(norms)
        block = recs[:, start:stop] if keep_history else np.empty((b, m))
        np.add(exps, dws * rec_scale, out=block)
        if not keep_history:
            _by_chunk(block, lambda g: g.sum(axis=1), recs[:, start:stop])
    return None if hist is None else hist.transpose(1, 0, 2), recs, sums


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
