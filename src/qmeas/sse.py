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
composition and worker scheduling. ensemble_sums is the one ensemble
runner, and it returns projector sums only, taken over fixed chunks of 64
trajectories: each contiguous share of chunks is stepped together in one
time loop, and the per-chunk sums are still reduced in chunk order;
mean_states is the one step from those sums to mean states. A share keeps
the sums at every grid node or at the final node alone, taken on its
d-major states (see below) by the einsum of a (batch, d) layout on their
transposed view, which keeps the order of the sum over the batch, so no
(batch, d) copy is made.

Every step, of one state, a trajectory or an ensemble share, runs one
buffered step kernel whose bits do not depend on the batch; the time loop
checks for non-finite or zero states once per block of Wiener increments.
Inside the time loop the states are d-major, shape (d, batch), so each
elementwise operation runs one contiguous loop along the batch; the history
of a trajectory run is stored (n+1, d, batch) and returned (batch, n+1, d).
A sum over the state index of fewer than eight scalars (a complex counts as
two) is kept with that index outermost in memory: numpy adds it left to right
from +0.0 in either layout, so the bits are those of a contiguous last axis
while the reduce runs over long rows. Longer sums keep the summed index as
the contiguous last axis, the only layout that gives numpy's pairwise order
(see _step_kernel).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import STEP_GUARD, step_scale
from .errors import DimensionMismatchError, IntegrationError, ValidationError
from .hilbert import DensityMatrix, QuantumState, _densities, _density_stack, _trace_distances
from .lindblad import MonitoringModel, integrate_lindblad
from .readout import ReadoutRecord, TimeGrid

CHUNK = 64  # trajectories per reduction chunk; fixed so results do not depend on worker count
BLOCK = 256  # steps of Wiener increments drawn at once; equal to one long draw, less memory
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
    scale = step_scale(model.kappa, model.A.spectral_norm(), dt)
    if scale > STEP_GUARD:
        raise ValidationError(
            f"kappa * (2||A||)^2 * dt = {scale:.3g} exceeds {STEP_GUARD}; "
            "reduce dt for this measurement strength"
        )


def _outermost(n: int, dtype) -> bool:
    """Whether a sum of n terms of ``dtype`` keeps its summed index outermost
    in memory: below PAIRWISE_BLOCK scalars, a complex counting as two."""
    return n * np.dtype(dtype).itemsize // 8 < PAIRWISE_BLOCK


def _summands(shape: tuple[int, ...], dtype) -> np.ndarray:
    """Scratch for terms summed over its last axis: that axis outermost in
    memory when ``_outermost``, else the C layout (see _step_kernel)."""
    if _outermost(shape[-1], dtype):
        return np.moveaxis(np.empty((shape[-1], *shape[:-1]), dtype), 0, -1)
    return np.empty(shape, dtype)


def _noise(kappa: float, dw: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """sqrt(kappa) dw, the noise amplitude of the step, for any array of
    Wiener increments."""
    return np.multiply(np.sqrt(kappa), dw, out=out)


def _step_kernel(h: np.ndarray, a: np.ndarray, kappa: float, dt: float, batch: int):
    """The Euler-Maruyama step for ``batch`` states in scratch arrays made
    once. States are d-major, shape (d, batch): ``step(psi, noise, out, exp_a,
    norm)`` takes the states and the noise ``_noise(kappa, dw)`` (batch,) of
    one step, writes the normalized states to ``out``, the pre-step <A> to
    ``exp_a`` and the norms before normalization to ``norm``; callers run it
    under ``np.errstate`` and pass the norms to ``_check_norms``. Each
    operation is an elementwise ufunc or a reduce over a fixed axis, in the
    order of psi + dt (-i H psi - (kappa/2) B^2 psi) + sqrt(kappa) dw B psi
    with B = A - <A>, so a state's bits do not depend on its batch. H psi and
    A psi come from one multiply-and-reduce over [A; H].

    The elementwise ufuncs on (d, batch) arrays run one contiguous loop along
    the batch. <A>, the noise and the norms, (batch,) rows, enter them as
    (d, batch) complex copies with imaginary part +0.0, and the scalars as
    complex 0-d arrays made once: these are the operands numpy casts a real
    row or a Python scalar to, so the bits are the same, without a cast or a
    broadcast in the loop.

    The terms of each sum over the state index sit in ``_summands`` scratch.
    For complex d <= 3 and real d <= 7 numpy adds them left to right from
    +0.0, signed zeros included, in either layout, and the summed index is
    laid out outermost: the reduce then adds whole rows of the batch instead
    of running one d-long loop per sum, with the same bits. Larger d keep
    the summed index as the contiguous last axis, the only layout that gives
    numpy's pairwise order; the layout is fixed by d here, not a tuning
    choice.
    """
    d = len(a)
    ah = np.concatenate([a, h])
    half_kappa, dt, minus_i = np.array(0.5 * kappa, complex), np.array(dt, complex), np.array(-1j)
    prod, prod_a = _summands((2 * d, batch, d), complex), _summands((d, batch, d), complex)
    terms = _summands((batch, d), complex)  # conj(psi) A psi, summed into <A>
    ahpsi = np.empty((2 * d, batch), complex)
    apsi, hpsi = ahpsi[:d], ahpsi[d:]
    t1, t2, bpsi = (np.empty((d, batch), complex) for _ in range(3))
    c, sq = np.empty(batch, complex), _summands((batch, d), float)
    # <A>, the noise and the norms as complex (d, batch) copies, imaginary part +0.0
    exp_d, noise_d, norm_d = (np.zeros((d, batch), complex) for _ in range(3))
    c_real, exp_re, noise_re, norm_re = c.real, exp_d.real, noise_d.real, norm_d.real
    mul, add, sub, add_reduce = np.multiply, np.add, np.subtract, np.add.reduce
    # The matrix-vector products write their (row, batch, summed index) terms
    # through views in the scratch's memory order, the summed index first when
    # it is outermost: numpy loops over the views' last axis unless all
    # operands agree on another order, so the loop runs along the batch, or
    # along the summed index where that is the contiguous axis. Elementwise,
    # so the same bits.
    order = (2, 0, 1) if _outermost(d, complex) else (0, 1, 2)
    ah_w, a_w = ah[:, None].transpose(order), ah[:d, None].transpose(order)
    prod_w, prod_a_w = prod.transpose(order), prod_a.transpose(order)
    bpsi_w, terms_k, sq_k = bpsi.T[None].transpose(order), terms.T, sq.T

    def step(psi, noise, out, exp_a, norm):
        mul(ah_w, psi.T[None].transpose(order), out=prod_w)
        add_reduce(prod, axis=2, out=ahpsi)
        np.conjugate(psi, out=terms_k)
        mul(terms_k, apsi, out=terms_k)
        add_reduce(terms, axis=1, out=c)
        exp_re[...] = c_real
        mul(exp_d, psi, out=t1)
        sub(apsi, t1, out=bpsi)
        mul(a_w, bpsi_w, out=prod_a_w)
        add_reduce(prod_a, axis=2, out=t2)
        mul(exp_d, bpsi, out=t1)
        sub(t2, t1, out=t2)
        mul(minus_i, hpsi, out=t1)
        mul(half_kappa, t2, out=t2)
        sub(t1, t2, out=t1)
        mul(dt, t1, out=t1)
        add(psi, t1, out=t1)
        noise_re[...] = noise
        mul(noise_d, bpsi, out=t2)
        add(t1, t2, out=t1)
        np.abs(t1, out=sq_k)
        np.square(sq_k, out=sq_k)
        add_reduce(sq, axis=1, out=norm)
        np.sqrt(norm, out=norm)
        norm_re[...] = norm
        np.divide(t1, norm_d, out=out)
        exp_a[...] = c_real

    return step


def _check_norms(norms: np.ndarray):
    if not np.all(np.isfinite(norms)) or np.any(norms == 0.0):
        raise IntegrationError("stochastic step gave a non-finite or zero state; reduce dt or kappa")


def sse_step(model: MonitoringModel, psi: QuantumState, dw: float, dt: float) -> QuantumState:
    """Single Euler-Maruyama update followed by renormalization.

    dw must be drawn as Normal(0, dt). Deterministic given (psi, dw).
    """
    if model.dim != psi.dim:
        raise DimensionMismatchError(f"model dim {model.dim} != state dim {psi.dim}")
    if dt <= 0:
        raise ValidationError("dt must be positive")
    _guard(model, dt)
    out, exp_a, norm = np.empty((model.dim, 1), complex), np.empty(1), np.empty(1)
    step = _step_kernel(model.H.entries, model.A.entries, model.kappa, dt, 1)
    with np.errstate(all="ignore"):
        step(psi.amplitudes[:, None], _noise(model.kappa, np.array([dw])), out, exp_a, norm)
    _check_norms(norm)
    return QuantumState(out[:, 0])


def _by_chunk(x: np.ndarray, reduce, out: np.ndarray):
    """out[c] = reduce over the rows of chunk c of x; ``reduce`` maps (g, rows,
    ...) to (g, ...) and takes all full chunks at once, a partial last alone."""
    full = len(x) // CHUNK
    if full:
        out[:full] = reduce(x[: full * CHUNK].reshape(full, CHUNK, *x.shape[1:]))
    if full < len(out):
        out[full] = reduce(x[full * CHUNK :][None])[0]


def _projector_sums(psi: np.ndarray, out: np.ndarray):
    """out[c] = the sum of |psi><psi| over the states of chunk c of d-major
    states psi (d, batch): the einsum "gbi,gbj->gij" by _by_chunk on the
    (batch, d) view psi.T. numpy adds each sum over the batch in batch order
    whatever the strides, so the bits equal those of that einsum on a
    C-contiguous (batch, d) copy, without the copy."""
    _by_chunk(psi.T, lambda g: np.einsum("gbi,gbj->gij", g, g.conj()), out)


def _run_batch(
    model: MonitoringModel,
    psi0: QuantumState,
    grid: TimeGrid,
    seeds: list[int] | range,
    final: bool | None = None,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray | None]:
    """Advance a batch of trajectories in one time loop; returns (history,
    records, projector sums). Without ``final``, a trajectory run: history
    (batch, n+1, dim), records (batch, n) and no sums. With it, an ensemble
    share: neither history nor records, only projector sums per chunk of
    CHUNK seeds, (chunks, nodes, dim, dim), at every grid node for
    final=False and at the final node alone for final=True. A chunk's sums
    add its trajectories in seed order, so they are the same bits in any
    batch and in either mode. The time loop steps d-major states (dim,
    batch), and _projector_sums reads them in that layout.
    """
    b = len(seeds)
    d = model.dim
    n = grid.n_steps
    dt = grid.dt
    gens = [np.random.Generator(np.random.Philox(key=int(s))) for s in seeds]
    psi, spare = np.repeat(psi0.amplitudes[:, None], b, axis=1), np.empty((d, b), complex)
    every = final is False  # sums at each node as the loop reaches it
    if final is None:
        sums = None
        # time-major, so each step writes its states to one contiguous row
        hist, recs = np.empty((n + 1, d, b), dtype=complex), np.empty((b, n))
        hist[0] = psi
    else:
        hist, recs = None, None
        sums = np.empty((-(-b // CHUNK), n + 1 if every else 1, d, d), dtype=complex)
        if every:
            _projector_sums(psi, sums[:, 0])
    step = _step_kernel(model.H.entries, model.A.entries, model.kappa, dt, b)
    rec_scale = 1.0 / (2.0 * np.sqrt(model.kappa) * dt)
    # Balanced blocks, so none is a single step when n > 1: numpy sums a
    # (rows, 1) array pairwise, but wider ones row by row, as one long run does.
    n_blocks = -(-n // BLOCK)
    cuts = [n * i // n_blocks for i in range(n_blocks + 1)]
    size = -(-n // n_blocks)  # the longest block; its buffers are made once
    draws, noises, exps, norms = np.empty((b, size)), *(np.empty((size, b)) for _ in range(3))
    for start, stop in zip(cuts, cuts[1:]):
        m = stop - start
        dws = draws[:, :m]
        for gen, dw in zip(gens, dws):
            dw[...] = gen.standard_normal(m)
        dws *= np.sqrt(dt)
        noise = _noise(model.kappa, dws.T, noises[:m])
        with np.errstate(all="ignore"):
            for k in range(m):
                node = start + k + 1
                out = hist[node] if hist is not None else spare
                step(psi, noise[k], out, exps[k], norms[k])
                psi, spare = out, psi
                if every:
                    _projector_sums(psi, sums[:, node])
        _check_norms(norms[:m])
        if recs is not None:
            block = recs[:, start:stop]
            np.multiply(dws, rec_scale, out=block)
            np.add(exps[:m].T, block, out=block)
    if final:
        _projector_sums(psi, sums[:, 0])
    if hist is not None:  # the (batch, n+1, d) C layout callers read; no copy at batch 1
        hist = np.ascontiguousarray(hist.transpose(2, 0, 1))
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
    hist, recs, _ = _run_batch(model, psi0, grid, [seed])
    return SseTrajectory(
        grid=grid,
        amplitudes=hist[0],
        record=ReadoutRecord(grid, recs[0]),
        seed=seed,
    )


def _chunk_task(args) -> np.ndarray:
    """Pool task: the per-chunk projector sums of one share of seeds,
    (chunks, nodes, d, d), at every node or, with ``final``, the final
    node alone."""
    model, psi0, grid, final, seeds = args
    return _run_batch(model, psi0, grid, seeds, final)[2]


def _share_cuts(jobs: list[tuple[int, int]], workers: int) -> list[list[int]]:
    """The cut points of each job, (seeds, steps), into contiguous, balanced
    shares of whole CHUNK-seed chunks. A job gets its part of ``workers`` by
    step count, rounded, at least one share and no share below two chunks,
    so a single job gets max(1, min(workers, chunks // 2)) and a job of fewer
    than four chunks runs whole. At d = 2 an SSE step of two chunks costs
    little more than a step of one, so splitting them would spend CPU for no
    shorter wall time. At d >= 4 such a step costs 1.4-1.9 times a one-chunk
    step, and a fuzzy-chain shot 1.2-1.4 times, so there a job of two or
    three chunks saves CPU but takes up to that factor longer in wall time
    than it would split."""
    total = sum(steps for _, steps in jobs)
    cuts = []
    for n, steps in jobs:
        n_chunks = -(-n // CHUNK)
        shares = max(1, min(n_chunks // 2, round(workers * steps / total)))
        cuts.append([CHUNK * (n_chunks * i // shares) for i in range(shares)] + [n])
    return cuts


def map_shares(
    task, jobs: list[tuple[tuple, range, int]], workers: int, local=None
) -> tuple[list[list], object]:
    """For each job, (args, seeds, steps), the results of ``task((*args,
    share))`` over its shares of seeds, in seed order; returns (those lists,
    the result of ``local()``, or None without it). _share_cuts cuts the
    shares, none below two chunks, so a job of fewer than four chunks is one
    share.

    The shares of all jobs run on one process pool of min(workers, shares)
    processes when that is two or more, else in this process; they are handed
    out longest job first, by step count, so the pool does not end on one
    long share. ``task`` is a module-level function, so the pool can pickle
    it. ``local`` runs once, in this process: on a pool after every share
    has been submitted, so it overlaps them (with fork, every worker is
    forked at the first submit, before it runs); without one after the
    shares. A share's error is raised before one of ``local``, as without a
    pool."""
    cuts = _share_cuts([(len(seeds), steps) for _, seeds, steps in jobs], workers)
    tasks = [
        [(*args, seeds[lo:hi]) for lo, hi in zip(c, c[1:])]
        for (args, seeds, _), c in zip(jobs, cuts)
    ]
    order = sorted(range(len(jobs)), key=lambda j: jobs[j][2], reverse=True)
    queue = [t for j in order for t in tasks[j]]
    here = local or (lambda: None)
    pool = min(workers, len(queue))
    if pool > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pool loads multiprocessing
        with ProcessPoolExecutor(max_workers=pool) as ex:
            results = ex.map(task, queue)  # submits every share
            try:
                mine = here()
            finally:  # a share's error replaces one of local
                done = iter(list(results))
    else:
        done = iter([task(t) for t in queue])
        mine = here()
    by_job = {j: [next(done) for _ in tasks[j]] for j in order}
    return [by_job[j] for j in range(len(jobs))], mine


def fold_chunks(shares) -> np.ndarray:
    """The sum of per-chunk arrays, added in chunk order; ``shares`` holds one
    (chunks, ...) array per share, in seed order. The order is fixed by the
    chunks alone, so the sum does not depend on the worker count."""
    chunks = [c for share in shares for c in share]
    total = chunks[0].copy()
    for c in chunks[1:]:
        total += c
    return total


def ensemble_sums(
    ensembles, workers: int = 1, local=None, final: bool = False
) -> tuple[list[np.ndarray], object]:
    """The projector sums of each of ``ensembles``, tuples (model, psi0,
    grid, n_traj, seed_base), at every grid node, as integrate_lindblad
    keeps, or with ``final`` at the final node alone: that node's sums, the
    same bits, without the others. All ensembles run by one map_shares call:
    every input is checked before any fork, and the shares of all ensembles
    share one pool. Each ensemble's chunk sums are folded in chunk order, so
    the bits do not depend on the worker count or on the other ensembles.
    Returns (a list of projector sums (nodes, d, d), one per ensemble, the
    result of ``local``): map_shares runs ``local`` while the pool runs the
    shares."""
    jobs = []
    for model, psi0, grid, n_traj, seed_base in ensembles:
        if model.dim != psi0.dim:
            raise DimensionMismatchError(f"model dim {model.dim} != state dim {psi0.dim}")
        if n_traj < 1:
            raise ValidationError("n_traj must be >= 1")
        if seed_base < 0:
            raise ValidationError(f"seed_base {seed_base} is negative; use a seed >= 0")
        _guard(model, grid.dt)
        seeds = range(seed_base, seed_base + n_traj)
        jobs.append(((model, psi0, grid, final), seeds, grid.n_steps))
    shares, mine = map_shares(_chunk_task, jobs, workers, local)
    return [fold_chunks(parts) for parts in shares], mine


def mean_states(rho_sums: np.ndarray, n_traj: int) -> tuple[np.ndarray, np.ndarray]:
    """The ensemble mean state at every node of sums (nodes, d, d) of n_traj
    trajectory projectors, their Hermitian part over n_traj, as one stack:
    (the mean states, their smallest eigenvalues), with the bits and the
    checks of a DensityMatrix built at each node."""
    return _densities(0.5 * (rho_sums + np.swapaxes(rho_sums.conj(), -1, -2)) / n_traj)


def ensemble_average(
    model: MonitoringModel,
    psi0: QuantumState,
    grid: TimeGrid,
    n_traj: int,
    seed_base: int,
    workers: int = 1,
) -> EnsembleSummary:
    """Mean of |psi><psi| across n_traj independent trajectories at each grid
    node; trajectory i uses seed seed_base + i. The sums of ensemble_sums
    become mean states by mean_states, so the values are the same bits for
    any worker count. With n_traj = 1 the result degenerates to the
    projector sequence of that single trajectory."""
    [rho_sum], _ = ensemble_sums([(model, psi0, grid, n_traj, seed_base)], workers)
    mean = tuple(_density_stack(*mean_states(rho_sum, n_traj)))
    return EnsembleSummary(n_traj=n_traj, mean_rho=mean, seed_base=seed_base, grid=grid)


def compare_to_master(
    model: MonitoringModel,
    psi0: QuantumState,
    grid: TimeGrid,
    n_traj: int,
    seed_base: int,
    workers: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """The ensemble of ensemble_average against the master equation at every
    grid node: returns (<A> = tr(A M) of the mean state M, the trace distance
    of M to integrate_lindblad's state), each (n_steps + 1,).

    The master equation is integrated in this process while the pool runs
    the trajectories (map_shares' ``local``); the mean states are checked
    and compared as one (nodes, d, d) stack. The values are the bits of
    ensemble_average's states, ``np.trace(A @ M).real`` and trace_distance
    node by node, for any worker count."""
    [rho_sum], ref = ensemble_sums(
        [(model, psi0, grid, n_traj, seed_base)],
        workers,
        local=lambda: integrate_lindblad(model, DensityMatrix.from_state(psi0), grid),
    )
    means, _ = mean_states(rho_sum, n_traj)
    expects = np.trace(model.A.entries @ means, axis1=-2, axis2=-1).real
    return expects, _trace_distances(means, np.array([r.entries for r in ref]))
