"""Workload inputs and reference checks for the qmeas benchmark.

Each workload is a list of ops; an op is one ``qmeas`` CLI invocation with a
config written here from the benchmark seed, plus a check of its output files
against a reference computed in this file (closed forms, scipy ``expm`` of
small Bloch generators, structural invariants), never against qmeas's own
integrators. A check returns a list of problems; an empty list means correct.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.linalg import expm

# Every op runs with this worker count (the benchmark host has 2 cores).
WORKERS = 2

# Zeno workload: the CLI defaults, with a smaller stochastic cross-check.
ZENO_KAPPAS = (0.1, 1.0, 10.0, 100.0)
ZENO_N_TRAJ = 128
ZENO_SPLITTING = 2.0
ZENO_RABI = 1.0

# sse-ensemble defaults (two-level preset, H = sigma_x, A = sigma_z).
ENSEMBLE_KAPPA = 0.5
ENSEMBLE_DT = 1e-3
ENSEMBLE_STEPS = 2000
# check_sse_lindblad_equivalence's trace-distance tolerance
ENSEMBLE_TRACE_TOL = 0.02
# A = sigma_z has spectral spread 2, so that tolerance bounds |d<A>| by 0.04
ENSEMBLE_A_TOL = 2.0 * ENSEMBLE_TRACE_TOL

# rabi-monitor defaults
RABI_KAPPA = 0.04
RABI_OMEGA = 1.0
RABI_DT = 1e-3
RABI_STEPS = 100_000
RABI_SEARCH_BINS = 8
RABI_BAND_BINS = 25
RABI_MAX_OFFSET_BINS = 2

# Dense workload: random Hermitian H and A of spectral norm 1 at dim 64.
DENSE_DIM = 64
DENSE_KAPPA = 0.5
DENSE_LINDBLAD_DT = 0.01
DENSE_LINDBLAD_STEPS = 100
DENSE_RECORD_DT = 0.01
DENSE_RECORD_LEN = 2000
DENSE_CHAINS = 1000
DENSE_SHOTS = 500


@dataclass(frozen=True)
class Op:
    """One CLI invocation: its config file (relative to the work directory)
    and the check applied to its output directory."""

    name: str
    config: str
    check: Callable[[Path], list[str]]


def run_seed(seed: int) -> int:
    """The ``[run] seed`` for a benchmark seed.

    Drawn rather than copied: ensembles use trajectory seeds seed_base + i,
    so consecutive benchmark seeds would otherwise share all but one
    trajectory.
    """
    return int(np.random.default_rng([seed, 0]).integers(0, 2**31))


def _matrix_text(m: np.ndarray) -> str:
    return " ; ".join(
        " ".join(f"{z.real:.17g}{z.imag:+.17g}i" for z in row) for row in m
    )


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Exactly Hermitian (in floating point) with spectral norm 1."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = 0.5 * (g + g.conj().T)
    return h / np.max(np.abs(np.linalg.eigvalsh(h)))


def _write(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _summary(out: Path) -> dict:
    return json.loads((out / "summary.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------- references


def zeno_transfer(kappa: float, splitting: float = ZENO_SPLITTING, rabi: float = ZENO_RABI) -> float:
    """Excited population at t = pi/rabi from the damped-Bloch equation
    z'' + G z' + rabi^2 z = 0, G = kappa * splitting^2 / 2, z(0) = -1,
    z'(0) = 0."""
    gamma = 0.5 * kappa * splitting**2
    gen = np.array([[0.0, 1.0], [-(rabi**2), -gamma]])
    z = (expm(gen * (np.pi / rabi)) @ np.array([-1.0, 0.0]))[0]
    return float(0.5 * (1.0 + z))


def ensemble_reference(times: np.ndarray, kappa: float = ENSEMBLE_KAPPA) -> np.ndarray:
    """<sigma_z>(t) of the master equation with H = sigma_x, A = sigma_z from
    |0>: Bloch equations y' = -2 kappa y - 2 z, z' = 2 y."""
    gen = np.array([[-2.0 * kappa, -2.0], [2.0, 0.0]])  # acts on (y, z)
    return np.array([(expm(gen * t) @ np.array([0.0, 1.0]))[1] for t in times])


# -------------------------------------------------------------------- checks


def check_zeno(out: Path) -> list[str]:
    rows = _read_csv(out / "zeno_scan.csv")
    problems = []
    if rows.shape[0] != len(ZENO_KAPPAS):
        return [f"zeno: {rows.shape[0]} scan rows, expected {len(ZENO_KAPPAS)}"]
    for kappa, p in rows[:, :2].tolist():
        ref = zeno_transfer(kappa)
        if abs(p - ref) > 1e-6:
            problems.append(f"zeno: transfer {p!r} at kappa={kappa} vs closed form {ref!r}")
    return problems


def check_ensemble(out: Path) -> list[str]:
    rows = _read_csv(out / "ensemble.csv")
    if rows.shape[0] != ENSEMBLE_STEPS + 1:
        return [f"ensemble: {rows.shape[0]} rows, expected {ENSEMBLE_STEPS + 1}"]
    ref = ensemble_reference(rows[:, 0])
    err = rows[:, 1] - ref
    # The sampling error of a 2000-trajectory mean is about 0.04 at single
    # times and varies slowly (over 43 seeds the largest pointwise error
    # reached 0.049, the largest mean over a 0.1 window 0.044), so the
    # tolerance applies to the root mean square error over the record
    # (largest 0.024 over the same seeds).
    rms = float(np.sqrt(np.mean(err**2)))
    if rms > ENSEMBLE_A_TOL:
        return [f"ensemble: rms error of <A> {rms:.4g} over the record (tol {ENSEMBLE_A_TOL:.3g})"]
    # a guard against single bad points, at twice the tolerance
    k = int(np.argmax(np.abs(err)))
    if abs(err[k]) > 2.0 * ENSEMBLE_A_TOL:
        return [f"ensemble: <A>={rows[k, 1]:.6g} at t={rows[k, 0]:.6g} vs reference {ref[k]:.6g} (tol {2.0 * ENSEMBLE_A_TOL:.3g})"]
    return []


def rabi_line(spectrum: np.ndarray) -> dict:
    """The rabi-monitor line statistics, recomputed: the largest bin within
    RABI_SEARCH_BINS of the line against the median of the surrounding band
    (RABI_BAND_BINS each side, the 3-bin core left out)."""
    freqs, power = spectrum[:, 0], spectrum[:, 1]
    i0 = int(round(RABI_OMEGA / (2.0 * np.pi) / (freqs[1] - freqs[0])))
    lo, hi = max(1, i0 - RABI_SEARCH_BINS), min(len(power) - 1, i0 + RABI_SEARCH_BINS)
    peak = lo + int(np.argmax(power[lo : hi + 1]))
    band = [j for j in range(max(1, i0 - RABI_BAND_BINS), min(len(power), i0 + RABI_BAND_BINS + 1)) if abs(j - i0) > 3]
    ratio = float(power[peak] / np.median(power[band]))
    offset = peak - i0
    return {
        "peak_frequency": float(freqs[peak]),
        "offset_bins": offset,
        "power_ratio": ratio,
        "detected": abs(offset) <= RABI_MAX_OFFSET_BINS and ratio >= 3.0,
    }


def check_rabi(out: Path) -> list[str]:
    head = _summary(out)["headline"]
    problems = [] if head.get("soft_regime") is True else ["rabi: soft_regime is not true"]
    record = _read_csv(out / "record.csv")
    spectrum = _read_csv(out / "spectrum.csv")
    if record.shape[0] != RABI_STEPS:
        return problems + [f"rabi: {record.shape[0]} record rows, expected {RABI_STEPS}"]
    mids = (np.arange(RABI_STEPS) + 0.5) * RABI_DT
    if np.abs(record[:, 0] - mids).max() > 1e-9:
        problems.append("rabi: record times are not the grid midpoints")
    # white readout noise of intensity 1/(4 kappa): per-sample variance
    # 1/(4 kappa dt); the signal adds at most (splitting/2)^2
    noise = 1.0 / (4.0 * RABI_KAPPA * RABI_DT)
    var = float(np.var(record[:, 1]))
    if abs(var / noise - 1.0) > 0.03:
        problems.append(f"rabi: record variance {var:.6g}, white-noise level {noise:.6g}")
    x = record[:, 1] - record[:, 1].mean()
    ref = np.stack([np.fft.rfftfreq(x.size, RABI_DT), np.abs(np.fft.rfft(x)) ** 2 / x.size], axis=1)
    if spectrum.shape != ref.shape or np.abs(spectrum - ref).max() > 1e-9 * ref[:, 1].max():
        problems.append("rabi: spectrum is not the periodogram of the record")
        return problems
    line = rabi_line(spectrum)
    for key, want in line.items():
        got = head.get(key)
        if got != want and not (isinstance(want, float) and abs(got - want) <= 1e-9 * abs(want)):
            problems.append(f"rabi: summary {key}={got!r}, recomputed {want!r}")
    return problems


def check_lindblad(out: Path) -> list[str]:
    rows = _read_csv(out / "trajectory.csv")
    d = DENSE_DIM
    if rows.shape != (DENSE_LINDBLAD_STEPS + 1, 1 + 2 * d * d):
        return [f"lindblad: table shape {rows.shape}"]
    pairs = rows[:, 1:].reshape(-1, d * d, 2)
    rho = (pairs[..., 0] + 1j * pairs[..., 1]).reshape(-1, d, d)
    problems = []
    trace_err = np.abs(np.trace(rho, axis1=1, axis2=2) - 1.0).max()
    if trace_err > 1e-10:
        problems.append(f"lindblad: trace off by {trace_err:.3g}")
    herm_err = np.abs(rho - rho.conj().transpose(0, 2, 1)).max()
    if herm_err > 1e-12:
        problems.append(f"lindblad: Hermiticity defect {herm_err:.3g}")
    purity = (np.abs(rho) ** 2).sum(axis=(1, 2))
    rise = np.diff(purity).max()
    if rise > 1e-12:
        problems.append(f"lindblad: purity rose by {rise:.3g}")
    return problems


def check_chm(out: Path, record: np.ndarray) -> list[str]:
    rows = _read_csv(out / "selective_run.csv")
    if rows.shape != (record.size + 1, 3 + 2 * DENSE_DIM):
        return [f"chm: table shape {rows.shape}"]
    problems = []
    if not np.array_equal(rows[1:, 1], record):
        problems.append("chm: the a column differs from the record file")
    rise = np.diff(rows[:, 2]).max()
    if rise > 1e-12:
        problems.append(f"chm: log_norm rose by {rise:.3g}")
    amps = rows[:, 3::2] + 1j * rows[:, 4::2]
    norm_err = np.abs(np.linalg.norm(amps, axis=1) - 1.0).max()
    if norm_err > 1e-9:
        problems.append(f"chm: amplitude row norm off by {norm_err:.3g}")
    return problems


def check_chain(out: Path) -> list[str]:
    head = _summary(out)["headline"]
    total = sum(head["counts"].values())
    problems = []
    if total != DENSE_CHAINS or head["n_chains"] != DENSE_CHAINS:
        problems.append(f"chain: collapse counts sum to {total}, expected {DENSE_CHAINS}")
    rows = _read_csv(out / "chain.csv")
    if rows.shape != (DENSE_SHOTS, 2 + DENSE_DIM):
        return problems + [f"chain: table shape {rows.shape}"]
    pop_err = np.abs(rows[:, 2:].sum(axis=1) - 1.0).max()
    if pop_err > 1e-9:
        problems.append(f"chain: populations sum to 1 +- {pop_err:.3g}")
    return problems


# -------------------------------------------------------------------- inputs


def make_ops(workload: str, seed: int, work: Path) -> list[Op]:
    """Write the workload's inputs for ``seed`` into ``work``; return its ops."""
    rs = run_seed(seed)
    if workload == "zeno":
        kappas = " ".join(f"{k:g}" for k in ZENO_KAPPAS)
        _write(work / "zeno.cfg", [
            "[run]", "scenario = zeno", f"seed = {rs}",
            "[model]", f"level_splitting = {ZENO_SPLITTING}", f"rabi = {ZENO_RABI}",
            "[zeno]", f"kappa_list = {kappas}", f"n_traj = {ZENO_N_TRAJ}",
        ])
        return [Op("zeno", "zeno.cfg", check_zeno)]
    if workload == "ensemble":
        _write(work / "ensemble.cfg", ["[run]", "scenario = sse-ensemble", f"seed = {rs}"])
        return [Op("ensemble", "ensemble.cfg", check_ensemble)]
    if workload == "rabi":
        _write(work / "rabi.cfg", ["[run]", "scenario = rabi-monitor", f"seed = {rs}"])
        return [Op("rabi", "rabi.cfg", check_rabi)]
    if workload == "dense":
        rng = np.random.default_rng([seed, 1])
        h = _matrix_text(random_hermitian(rng, DENSE_DIM))
        a = _matrix_text(random_hermitian(rng, DENSE_DIM))
        record = rng.uniform(-1.0, 1.0, DENSE_RECORD_LEN)
        # 17 significant digits round-trip exactly, so the check can compare bits
        _write(work / "record.csv", ["t,a", *(f"{(k + 0.5) * DENSE_RECORD_DT:.17g},{v:.17g}" for k, v in enumerate(record))])
        model = ["[model]", f"h = {h}", f"a = {a}", f"kappa = {DENSE_KAPPA}"]
        _write(work / "lindblad.cfg", [
            "[run]", "scenario = lindblad", f"seed = {rs}", *model,
            "[grid]", f"dt = {DENSE_LINDBLAD_DT}", f"n_steps = {DENSE_LINDBLAD_STEPS}",
        ])
        _write(work / "chm.cfg", [
            "[run]", "scenario = chm", f"seed = {rs}", *model,
            "[chm]", "record_file = record.csv",
        ])
        _write(work / "chain.cfg", [
            "[run]", "scenario = chain", f"seed = {rs}", "[model]", f"a = {a}",
            "[chain]", f"n_chains = {DENSE_CHAINS}", f"n_shots = {DENSE_SHOTS}",
        ])
        return [
            Op("lindblad", "lindblad.cfg", check_lindblad),
            Op("chm", "chm.cfg", lambda out: check_chm(out, record)),
            Op("chain", "chain.cfg", check_chain),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("zeno", "ensemble", "rabi", "dense")
