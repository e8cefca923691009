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
A sum over the state index of fewer than eight scalars (a complex counts as
two) is kept with that index outermost in memory: numpy adds it left to right
from +0.0 in either layout, so the bits are those of a contiguous last axis
while the reduce runs over long rows. Longer sums keep the C layout, the only
one that gives numpy's pairwise order (see _step_kernel).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, IntegrationError, ValidationError
from .hilbert import DensityMatrix, QuantumState
from .lindblad import MonitoringModel
from .readout import ReadoutRecord, TimeGrid

CHUNK = 64  # trajectories per reduction chunk; fixed so results do not depend on worker count
BLOCK = 256  # steps of Wiener increments drawn at once; equal to one long draw, less memory
STEP_GUARD = 0.1
# numpy adds fewer scalars than this in one plain loop; longer sums go pairwise
PAIRWISE_BLOCK = 8


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


def _summands(shape: tuple[int, ...], dtype) -> np.ndarray:
    """Scratch for terms summed over its last axis: that axis outermost in
    memory below PAIRWISE_BLOCK scalars, else the C layout (see _step_kernel)."""
    n = shape[-1]
    if n * np.dtype(dtype).itemsize // 8 < PAIRWISE_BLOCK:
        return np.moveaxis(np.empty((n, *shape[:-1]), dtype), 0, -1)
    return np.empty(shape, dtype)


def _step_kernel(h: np.ndarray, a: np.ndarray, kappa: float, dt: float, batch: int):
    """The Euler-Maruyama step for ``batch`` states in scratch arrays made
    once: ``step(psi, dw, out, exp_a, norm)`` writes the normalized states to
    ``out``, the pre-step <A> to ``exp_a`` and the norms before normalization
    to ``norm``; callers run it under ``np.errstate`` and pass the norms to
    ``_check_norms``. Each operation is an elementwise ufunc or a reduce over
    a fixed axis, in the order of psi + dt (-i H psi - (kappa/2) B^2 psi) +
    sqrt(kappa) dw B psi with B = A - <A>, so a state's bits do not depend on
    its batch. H psi and A psi come from one multiply-and-reduce over [A; H].

    The terms of each sum over the state index sit in ``_summands`` scratch.
    For complex d <= 3 and real d <= 7 numpy adds them left to right from
    +0.0, signed zeros included, in either layout, and the summed index is
    laid out outermost: the reduce then adds whole rows of the batch instead
    of running one d-long loop per sum, with the same bits. Larger d keep
    the C layout, since only a contiguous last axis gives numpy's pairwise
    order; the layout is fixed by d here, not a tuning choice.
    """
    d = len(a)
    ah = np.concatenate([a, h])[None]
    a3 = ah[:, :d]
    half_kappa, sqrt_kappa = 0.5 * kappa, np.sqrt(kappa)
    prod, prod_a = _summands((batch, 2 * d, d), complex), _summands((batch, d, d), complex)
    terms = _summands((batch, d), complex)  # conj(psi) A psi, summed into <A>
    ahpsi = np.empty((batch, 2 * d), complex)
    apsi, hpsi = ahpsi[:, :d], ahpsi[:, d:]
    t1, t2, bpsi = (np.empty((batch, d), complex) for _ in range(3))
    c, noise, sq = np.empty(batch, complex), np.empty(batch), _summands((batch, d), float)
    c_real, exp_col = c.real, c.real[:, None]
    mul, add, sub, add_reduce = np.multiply, np.add, np.subtract, np.add.reduce
    # The operands of the ufuncs that write _summands scratch, indexed by the
    # summed index first: numpy loops over the views' last axis unless all
    # operands agree on another order, so the loop runs along the batch (or
    # [A; H] rows) and not along the d-long index. Elementwise, so same bits.
    ah_k, a3_k = np.moveaxis(ah, -1, 0), np.moveaxis(a3, -1, 0)
    prod_k, prod_a_k = np.moveaxis(prod, -1, 0), np.moveaxis(prod_a, -1, 0)
    terms_k, apsi_k, bpsi_k, t1_k, sq_k = terms.T, apsi.T, bpsi.T[:, :, None], t1.T, sq.T

    def step(psi, dw, out, exp_a, norm):
        psi_k = psi.T
        mul(ah_k, psi_k[:, :, None], out=prod_k)
        add_reduce(prod, axis=2, out=ahpsi)
        np.conjugate(psi_k, out=terms_k)
        mul(terms_k, apsi_k, out=terms_k)
        add_reduce(terms, axis=1, out=c)
        mul(exp_col, psi, out=t1)
        sub(apsi, t1, out=bpsi)
        mul(a3_k, bpsi_k, out=prod_a_k)
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
        np.abs(t1_k, out=sq_k)
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
    store_every: int | None = None,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray | None]:
    """Advance a batch of trajectories in one time loop; returns (history,
    records, projector sums). Without ``store_every``, a trajectory run:
    history (batch, n+1, dim), records (batch, n) and no sums. With it, an
    ensemble share: no history, record sums per chunk of CHUNK seeds (chunks,
    n), and projector sums per chunk at ``grid.stored_nodes(store_every)``
    (chunks, nodes, dim, dim). A chunk's sums add its trajectories in seed
    order, so they are the same bits in any batch.
    """
    b = len(seeds)
    d = model.dim
    n = grid.n_steps
    dt = grid.dt
    n_chunks = -(-b // CHUNK)
    gens = [np.random.Generator(np.random.Philox(key=int(s))) for s in seeds]
    psi, spare = np.tile(psi0.amplitudes, (b, 1)), np.empty((b, d), complex)
    if store_every is None:
        nodes, sums = [], None
        # time-major, so each step writes its states to one contiguous row
        hist, recs = np.empty((n + 1, b, d), dtype=complex), np.empty((b, n))
        hist[0] = psi
    else:
        nodes, hist, recs = grid.stored_nodes(store_every), None, np.empty((n_chunks, n))
        sums = np.empty((n_chunks, len(nodes), d, d), dtype=complex)
        _by_chunk(psi, _projectors, sums[:, 0])
    # the next kept node and its row of sums; past the grid when none is left
    pending = iter(enumerate(nodes[1:], start=1))
    row, next_node = next(pending, (0, n + 1))
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
                node = start + k + 1
                out = hist[node] if hist is not None else spare
                step(psi, dws[:, k], out, exps[:, k], norms[:, k])
                psi, spare = out, psi
                if node == next_node:
                    _by_chunk(psi, _projectors, sums[:, row])
                    row, next_node = next(pending, (0, n + 1))
        _check_norms(norms)
        block = recs[:, start:stop] if hist is not None else np.empty((b, m))
        np.add(exps, dws * rec_scale, out=block)
        if hist is None:
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
    hist, recs, _ = _run_batch(model, psi0, grid, [seed])
    return SseTrajectory(
        grid=grid,
        amplitudes=hist[0],
        record=ReadoutRecord(grid, recs[0]),
        seed=seed,
    )


def _chunk_task(args) -> tuple[np.ndarray, np.ndarray]:
    """Pool task: per-chunk (projector sums at the stored nodes, record sums)
    of one share of seeds."""
    model, psi0, grid, store_every, seeds = args
    _, rec_sums, sums = _run_batch(model, psi0, grid, seeds, store_every)
    return sums, rec_sums


def map_shares(task, args: tuple, seeds: range, workers: int) -> list:
    """Results of ``task((*args, share))`` in seed order, over contiguous,
    balanced shares of seeds made of whole CHUNK-seed chunks: one share per
    worker, at most one per chunk, run on a process pool when there are two
    or more. ``task`` is a module-level function, so the pool can pickle it."""
    n_chunks = -(-len(seeds) // CHUNK)
    shares = max(1, min(workers, n_chunks))
    cuts = [CHUNK * (n_chunks * i // shares) for i in range(shares)] + [len(seeds)]
    tasks = [(*args, seeds[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
    if len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pool loads multiprocessing
        with ProcessPoolExecutor(max_workers=len(tasks)) as ex:
            return list(ex.map(task, tasks))
    return [task(tasks[0])]


def fold_chunks(shares) -> np.ndarray:
    """The sum of per-chunk arrays, added in chunk order; ``shares`` holds one
    (chunks, ...) array per share, in seed order. The order is fixed by the
    chunks alone, so the sum does not depend on the worker count."""
    chunks = [c for share in shares for c in share]
    total = chunks[0].copy()
    for c in chunks[1:]:
        total += c
    return total


def ensemble_accumulate(
    model: MonitoringModel,
    psi0: QuantumState,
    grid: TimeGrid,
    n_traj: int,
    seed_base: int,
    workers: int = 1,
    store_every: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Sums of trajectory projectors at the kept grid nodes and of records
    per step.

    The projector sums are kept at ``grid.stored_nodes(store_every)``, the
    nodes integrate_lindblad stores; a kept node's sums have the same bits
    for any ``store_every``. Each worker runs a contiguous, balanced share of
    fixed chunks of CHUNK trajectories in one time loop; chunk partial sums
    are combined in chunk order, so the result is identical for any worker
    count. Returns (projector sums (nodes, d, d), record sums (n,)).
    """
    if model.dim != psi0.dim:
        raise DimensionMismatchError(f"model dim {model.dim} != state dim {psi0.dim}")
    if n_traj < 1:
        raise ValidationError("n_traj must be >= 1")
    if seed_base < 0:
        raise ValidationError(f"seed_base {seed_base} is negative; use a seed >= 0")
    grid.stored_nodes(store_every)  # a bad store_every is rejected before any fork
    _guard(model, grid.dt)
    seeds = range(seed_base, seed_base + n_traj)
    parts = map_shares(_chunk_task, (model, psi0, grid, store_every), seeds, workers)
    return fold_chunks([s for s, _ in parts]), fold_chunks([r for _, r in parts])


def mean_density(rho_sum: np.ndarray, n_traj: int) -> DensityMatrix:
    """The ensemble mean state from a sum of n_traj trajectory projectors:
    its Hermitian part over n_traj."""
    return DensityMatrix(0.5 * (rho_sum + rho_sum.conj().T) / n_traj)


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
    mean = tuple(mean_density(m, n_traj) for m in rho_sum)
    return EnsembleSummary(n_traj=n_traj, mean_rho=mean, seed_base=seed_base, grid=grid)

