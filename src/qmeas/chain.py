"""Discrete-time decoherence: repeated fuzzy measurements and weak-coupling
ancilla series.

A fuzzy shot applies the Gaussian Kraus operator R_a = exp(-s (A - a)^2) with
outcome a drawn from the exact Born density; a long chain of such shots
gradually decoheres a superposition into a single eigenspace (each eigenspace
population is a martingale whose terminal distribution realizes the Born
rule). A chain of n shots of strength s is statistically equivalent to
continuous monitoring with kappa * T = n * s; a shot is the record slice
:class:`qmeas.readout.FuzzySlice` with kappa = s and dt = 1.

The weak-ancilla realization couples the system to a fresh two-level probe
per shot via exp(-i g (A x sigma_y)) and reads the probe out; the branch
operators are cos(g A) and sin(g A). Post-selecting on null outcomes yields a
cumulative operator whose accumulated complex Hamiltonian has an imaginary
part that is quadratic in A up to O(g^4) corrections - the fit helper
quantifies how universal that quadratic form is.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .hilbert import HermitianOperator, NonHermitianOperator, QuantumState
from .readout import FuzzySlice
from .sse import CHUNK, _by_chunk, fold_chunks, map_shares

_COMPLETENESS_ORDER = 60


@dataclass(frozen=True)
class FuzzyKraus:
    """Gaussian fuzzy measurement of A with per-shot strength s: outcome
    density ~ exp(-2 s (a - a_m)^2) on each eigenspace (variance 1/(4s))."""

    A: HermitianOperator
    strength: float
    kernel: FuzzySlice = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (np.isfinite(self.strength) and self.strength > 0):
            raise ValidationError("strength must be positive and finite")
        object.__setattr__(self, "kernel", FuzzySlice(self.A, self.strength, 1.0))
        # POVM completeness, by the quadrature that checks a record slice
        defect = self.kernel.completeness_defect(_COMPLETENESS_ORDER)
        if defect > 1e-8:
            raise ValidationError(
                f"fuzzy POVM completeness defect {defect:.3g} exceeds 1e-8: [chain] strength "
                f"{self.strength:g} is too large for the spread of A's eigenvalues; reduce the "
                "strength or the spread"
            )

    @property
    def dim(self) -> int:
        return self.A.dim


@dataclass(frozen=True)
class ChainOutcome:
    """Result of a decoherence chain: final state, readout sequence, the
    eigenvalue index collapsed to (None if no collapse within the chain), and
    the eigenspace populations before the first and after every shot
    (n_steps + 1, dim)."""

    final_state: QuantumState
    readouts: np.ndarray
    collapsed_to: int | None
    populations: np.ndarray


@dataclass(frozen=True)
class AncillaScheme:
    """Series of weak probe couplings: per-shot dimensionless strength g,
    number of shots, two-level probes."""

    coupling: float
    n_shots: int
    ancilla_dim: int = 2

    def __post_init__(self):
        if self.coupling < 0:
            raise ValidationError("coupling must be >= 0")
        if self.n_shots < 1:
            raise ValidationError("n_shots must be >= 1")
        if self.ancilla_dim != 2:
            raise ValidationError("only two-level ancillas are supported")


def _eigensystem(k: FuzzyKraus) -> tuple[np.ndarray, np.ndarray]:
    if np.any(np.diff(k.kernel.evals) < 1e-9):
        raise ValidationError(
            "fuzzy chains require a nondegenerate spectrum: give A distinct eigenvalues, "
            "gaps of at least 1e-9 (the lindblad, chm and sse-ensemble scenarios accept a "
            "degenerate A)"
        )
    return k.kernel.evals, k.kernel.q


def sample_fuzzy_shot(
    k: FuzzyKraus, psi: QuantumState, rng: np.random.Generator
) -> tuple[QuantumState, float, float]:
    """Apply one fuzzy shot: sample outcome a from the exact density
    p(a) = sqrt(2s/pi) * ||R_a psi||^2, apply R_a, renormalize.

    Returns (post-measurement state, outcome, density at the outcome). The
    outcome law is a mixture of Gaussians N(a_m, 1/(4s)) weighted by the
    eigenspace populations; sampling draws one uniform then one normal
    variate from rng.
    """
    if k.dim != psi.dim:
        raise DimensionMismatchError(f"observable dim {k.dim} != state dim {psi.dim}")
    evals, q = _eigensystem(k)
    amps = q.conj().T @ psi.amplitudes
    pops = np.abs(amps) ** 2
    idx = min(int(np.searchsorted(np.cumsum(pops), rng.random())), len(evals) - 1)
    a = float(evals[idx] + rng.standard_normal() / (2.0 * np.sqrt(k.strength)))
    weights = k.kernel.factor(a)
    density = float(np.sqrt(2.0 * k.strength / np.pi) * np.sum(pops * weights**2))
    v = q @ (amps * weights)
    return QuantumState(v / np.linalg.norm(v)), a, density


def run_decoherence_chain(
    k: FuzzyKraus,
    psi0: QuantumState,
    n_steps: int,
    seed: int,
    collapse_threshold: float = 1e-4,
) -> ChainOutcome:
    """Iterate fuzzy shots for n_steps, declaring collapse onto eigenspace m
    once its population first exceeds 1 - collapse_threshold.

    Reproducible per seed: the Philox stream keyed by the seed supplies
    n_steps uniforms followed by n_steps normals, the layout also used by the
    vectorized ensemble runner.
    """
    amps, readouts, collapsed, pops = _run_chain_batch(
        k, psi0, n_steps, [seed], collapse_threshold
    )
    c = int(collapsed[0])
    return ChainOutcome(
        final_state=QuantumState((amps @ k.kernel.q.T)[0]),
        readouts=readouts[0],
        collapsed_to=None if c < 0 else c,
        populations=pops[0],
    )


def _run_chain_batch(
    k: FuzzyKraus,
    psi0: QuantumState,
    n_steps: int,
    seeds: list[int] | range,
    collapse_threshold: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized chains, one Philox stream per seed (n uniforms then n
    normals). Returns final amplitudes (batch, dim) in the eigenbasis of A,
    readouts (batch, n), collapsed index per chain (-1 for none), and
    eigenspace population sums per shot over each chunk of CHUNK seeds
    (chunks, n + 1, dim), added in seed order.

    The scratch of a shot is made once and every operation writes into it,
    in the order of the same formula on fresh arrays: a chain's readouts,
    collapse index and populations do not depend on its batch.
    """
    if k.dim != psi0.dim:
        raise DimensionMismatchError(f"observable dim {k.dim} != state dim {psi0.dim}")
    if n_steps < 1:
        raise ValidationError("n_steps must be >= 1")
    if not 0 < collapse_threshold < 1:
        raise ValidationError("collapse_threshold must be in (0, 1)")
    evals, q = _eigensystem(k)
    b, d = len(seeds), k.dim
    # shot-major, so each shot reads and writes contiguous rows
    us = np.empty((n_steps, b))
    zs = np.empty((n_steps, b))
    for i, s in enumerate(seeds):
        if s < 0:
            raise ValidationError(f"seed {s} is negative; use a seed >= 0")
        gen = np.random.Generator(np.random.Philox(key=int(s)))
        us[:, i] = gen.random(n_steps)
        zs[:, i] = gen.standard_normal(n_steps)
    zs *= 1.0 / (2.0 * np.sqrt(k.strength))
    amps = np.tile(q.conj().T @ psi0.amplitudes, (b, 1))
    readouts = np.empty((n_steps, b))
    collapsed = np.full(b, -1, dtype=int)
    pop_sums = np.empty((-(-b // CHUNK), n_steps + 1, d))
    pops, cum, w = np.empty((b, d)), np.empty((b, d)), np.empty((b, d))
    above, idx = np.empty((b, d), dtype=bool), np.empty(b, dtype=np.intp)
    norm, peak = np.empty(b), np.empty(b)
    hit, free = np.empty(b, dtype=bool), np.empty(b, dtype=bool)
    level = 1.0 - collapse_threshold

    def populations(step):
        np.abs(amps, out=pops)
        np.square(pops, out=pops)
        _by_chunk(pops, lambda g: g.sum(axis=1), pop_sums[:, step])

    populations(0)
    for step in range(n_steps):
        # eigenspace index from the Born weights, then the outcome a
        np.cumsum(pops, axis=1, out=cum)
        np.greater(us[step, :, None], cum, out=above)
        np.add.reduce(above, axis=1, dtype=np.intp, out=idx)
        np.minimum(idx, d - 1, out=idx)
        a = readouts[step]
        np.take(evals, idx, out=a)
        np.add(a, zs[step], out=a)
        # amps * exp(-s (evals - a)^2), renormalized
        np.multiply(amps, k.kernel.factor(a, out=w), out=amps)
        np.abs(amps, out=w)
        np.square(w, out=w)
        np.add.reduce(w, axis=1, out=norm)
        np.sqrt(norm, out=norm)
        np.divide(amps, norm[:, None], out=amps)
        populations(step + 1)
        np.max(pops, axis=1, out=peak)
        np.greater(peak, level, out=hit)
        np.less(collapsed, 0, out=free)
        np.logical_and(hit, free, out=hit)
        if hit.any():
            collapsed[hit] = pops[hit].argmax(axis=1)
    return amps, readouts.T, collapsed, pop_sums


# chains stepped at once in one process, which bounds its scratch; a multiple
# of CHUNK, so the chunk sums do not depend on it
_BLOCK = 2048


def _chain_share(args) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pool task: collapsed indices, final eigenspace populations and
    per-chunk population sums of one share of seeds, _BLOCK chains at a time."""
    k, psi0, n_steps, collapse_threshold, seeds = args
    collapsed = np.empty(len(seeds), dtype=int)
    pops_final = np.empty((len(seeds), k.dim))
    sums = []
    for lo in range(0, len(seeds), _BLOCK):
        block = seeds[lo : lo + _BLOCK]
        amps, _, c, chunk_sums = _run_chain_batch(k, psi0, n_steps, block, collapse_threshold)
        collapsed[lo : lo + len(block)] = c
        pops_final[lo : lo + len(block)] = np.abs(amps) ** 2
        sums.append(chunk_sums)
    return collapsed, pops_final, np.concatenate(sums)


def run_chain_ensemble(
    k: FuzzyKraus,
    psi0: QuantumState,
    n_steps: int,
    n_chains: int,
    seed_base: int,
    collapse_threshold: float = 1e-4,
    workers: int = 1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run n_chains independent chains with seeds seed_base + i.

    Returns (collapsed indices (n_chains,), final eigenspace populations
    (n_chains, dim), mean eigenspace populations per shot (n_steps + 1, dim));
    the last is the Born-martingale diagnostic. Chain i is bit-identical to
    run_decoherence_chain with seed seed_base + i.

    Each of ``workers`` processes steps a contiguous, balanced share of fixed
    chunks of CHUNK chains, as sse.ensemble_accumulate does. The mean
    populations are summed per chunk in seed order and the chunk sums are
    added in chunk order, so they are the same bits for any worker count.
    Collapse indices and final populations do not depend on it either.
    """
    if n_chains < 1:
        raise ValidationError("n_chains must be >= 1")
    if seed_base < 0:
        raise ValidationError(f"seed_base {seed_base} is negative; use a seed >= 0")
    _eigensystem(k)  # a degenerate spectrum is rejected before any fork
    seeds = range(seed_base, seed_base + n_chains)
    parts = map_shares(_chain_share, (k, psi0, n_steps, collapse_threshold), seeds, workers)
    collapsed = np.concatenate([c for c, _, _ in parts])
    pops_final = np.concatenate([p for _, p, _ in parts])
    return collapsed, pops_final, fold_chunks([s for _, _, s in parts]) / n_chains


def weak_ancilla_shot(
    scheme: AncillaScheme, a_op: HermitianOperator, psi: QuantumState
) -> list[tuple[QuantumState, float, int]]:
    """Couple one fresh probe in |0> via exp(-i g (A x sigma_y)), measure it,
    and return the surviving branches as (state, probability, outcome).

    The branch operators are M_0 = cos(g A) and M_1 = sin(g A), which satisfy
    M_0^2 + M_1^2 = identity exactly. Requires the weakness condition
    g * ||A|| <= pi/4 (below the fully-resolving probe rotation).
    """
    if a_op.dim != psi.dim:
        raise DimensionMismatchError(f"observable dim {a_op.dim} != state dim {psi.dim}")
    g = scheme.coupling
    norm_a = a_op.spectral_norm()
    # one shot must stay below the fully-resolving rotation pi/4
    if g * norm_a > 0.25 * np.pi + 1e-9:
        raise ValidationError(
            f"weakness condition violated: g*||A|| = {g * norm_a:.3g} > pi/4"
        )
    m0, m1 = ancilla_branch_operators(a_op, g)
    branches: list[tuple[QuantumState, float, int]] = []
    for outcome, m in ((0, m0), (1, m1)):
        v = m @ psi.amplitudes
        p = float(np.vdot(v, v).real)
        if p > 0.0:
            branches.append((QuantumState(v / np.sqrt(p)), p, outcome))
    return branches


def ancilla_branch_operators(a_op: HermitianOperator, g: float) -> tuple[np.ndarray, np.ndarray]:
    """(cos(g A), sin(g A)) - the probe-conditioned branch operators."""
    evals, q = a_op.eigh()
    m0 = (q * np.cos(g * evals)) @ q.conj().T
    m1 = (q * np.sin(g * evals)) @ q.conj().T
    return m0, m1


def fit_effective_quadratic(
    cumulative_log_operator: NonHermitianOperator,
    a_op: HermitianOperator,
    center: float = 0.0,
    total_time: float = 1.0,
) -> tuple[float, float, float]:
    """Fit the damping spectrum of an accumulated complex Hamiltonian to a
    quadratic in the measured observable.

    ``cumulative_log_operator`` is H_eff * T, i.e. i times the matrix log of
    the cumulative (post-selected) evolution operator. Its negative imaginary
    eigenvalues, taken in the A eigenbasis, are least-squares fitted to
    kappa_eff * (a_m - center)^2 * total_time + offset. Returns
    (kappa_eff, offset, max residual). The input must be diagonal in the A
    eigenbasis within tolerance (guaranteed when no Hamiltonian acts during
    the series); otherwise an error is raised.
    """
    if cumulative_log_operator.dim != a_op.dim:
        raise DimensionMismatchError(
            f"operator dim {cumulative_log_operator.dim} != observable dim {a_op.dim}"
        )
    if total_time <= 0:
        raise ValidationError("total_time must be positive")
    evals, q = a_op.eigh()
    rotated = q.conj().T @ cumulative_log_operator.entries @ q
    diag = np.diag(rotated)
    scale = max(float(np.max(np.abs(diag))), 1e-30)
    off = rotated - np.diag(diag)
    off_max = float(np.max(np.abs(off)))
    if off_max > 1e-8 * max(scale, 1.0):
        raise ValidationError(
            f"operator is not diagonal in the observable eigenbasis "
            f"(off-diagonal magnitude {off_max:.3g})"
        )
    damping = -diag.imag
    design = np.stack([(evals - center) ** 2 * total_time, np.ones_like(evals)], axis=1)
    coeffs, *_ = np.linalg.lstsq(design, damping, rcond=None)
    residual = float(np.max(np.abs(damping - design @ coeffs)))
    return float(coeffs[0]), float(coeffs[1]), residual
