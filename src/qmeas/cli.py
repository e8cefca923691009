"""Command-line front end: parse a config, run a scenario, write CSV + JSON.

Outputs are byte-deterministic: identical (config, seed) produce identical
files, including when trajectories are fanned out to a worker pool
(reductions happen in fixed chunk order). Exit codes: 0 success, 1 invalid
config/arguments, 2 numerical failure or failing verification checks.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, describe_keys, parse_config
from .errors import ConfigError, QmeasError, ValidationError

_EPILOG = f"""\
config format: [section] lines, each followed by key = value lines; '#' starts
a comment. Matrix scenarios take [model] preset = two-level (H = sigma_x,
A = sigma_z) or three-level (H = 0, A = diag(0,1,3)), or explicit matrices with
rows separated by ';' and entries like 1+0i; psi0 is basis0, basis1, plus, or
an amplitude row. The keys, with their defaults and where not all, scenarios:

{describe_keys()}
"""


# cells formatted at once (whole rows, at least one), so the text and the
# Python objects in memory stay small whatever the table's length or width
CSV_SLICE = 4096


def _write_csv(path: Path, header: list[str], columns) -> None:
    """Write a table given by columns: each item is a 1-D column or a 2-D
    block of adjacent columns. Numbers get 17 significant digits (``%.17g``),
    other cells str() (``%s``). Blocks of complex values are passed as
    ``.view(float)``, which puts each re, im pair side by side.

    The rows are formatted in slices of max(1, CSV_SLICE // width) rows, each
    by one printf-style call on the slice's cells as one flat tuple, so a
    cell's own text is never parsed again. Raises ValueError when the blocks
    have different row counts or the header does not name every column."""
    blocks = [np.asarray(c) for c in columns]
    blocks = [c[:, None] if c.ndim == 1 else c for c in blocks]
    kinds = [c.dtype.kind for c in blocks for _ in range(c.shape[1])]
    rows = {len(c) for c in blocks}
    if len(rows) != 1:
        raise ValueError(f"{path.name}: the columns have different row counts {sorted(rows)}")
    if len(header) != len(kinds):
        raise ValueError(f"{path.name}: {len(header)} header names for {len(kinds)} columns")
    row = ",".join("%.17g" if k in "biuf" else "%s" for k in kinds) + "\n"
    step = max(1, CSV_SLICE // len(kinds))
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for lo in range(0, rows.pop(), step):
            part = [c[lo : lo + step].astype(object) for c in blocks]
            cells = np.concatenate(part, axis=1).ravel().tolist()
            f.write((row * len(part[0])) % tuple(cells))


def _json_ready(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, (np.ndarray, list, tuple)):
        return [_json_ready(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    if isinstance(value, float) and not np.isfinite(value):
        return None
    return value


def _write_summary(out: Path, cfg: RunConfig, headline: dict, outputs: list[str]) -> None:
    doc = {
        "scenario": cfg.scenario,
        "seed": cfg.seed,
        "config": cfg.raw,
        "outputs": sorted(outputs),
        "headline": _json_ready(headline),
        "version": __version__,
    }
    path = out / "summary.json"
    path.write_text(
        json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n",
        encoding="utf-8",
        newline="\n",
    )


def _complex_header(dim: int) -> list[str]:
    cols = []
    for i in range(dim):
        for j in range(dim):
            cols += [f"re_{i}{j}", f"im_{i}{j}"]
    return cols


def _run_lindblad(cfg: RunConfig, write, workers: int, quiet: bool) -> dict:
    from .hilbert import DensityMatrix
    from .lindblad import MonitoringModel, integrate_lindblad

    grid = cfg.grid
    model = MonitoringModel(cfg.h, cfg.a, cfg.kappa)
    rhos = integrate_lindblad(model, DensityMatrix.from_state(cfg.psi0), grid)
    cols = [grid.times(), np.array([rho.entries.ravel() for rho in rhos]).view(float)]
    write("trajectory.csv", ["t"] + _complex_header(model.dim), cols)
    purity = float(np.trace(rhos[-1].entries @ rhos[-1].entries).real)
    return {"final_purity": purity, "n_output_states": len(rhos)}


def _run_chm(cfg: RunConfig, write, workers: int, quiet: bool) -> dict:
    from .chm import propagate_chm_series
    from .lindblad import MonitoringModel
    from .readout import constant_record, parse_record, reference_log_weight

    if cfg.record_file is not None:
        try:
            text = Path(cfg.record_file).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read record_file: {exc}") from exc
        record = parse_record(text)
    else:
        record = constant_record(cfg.grid, cfg.record_value)
    model = MonitoringModel(cfg.h, cfg.a, cfg.kappa)
    logs, amps = propagate_chm_series(model, cfg.psi0, record)
    # row 0 is the initial state; the a column holds the value applied on
    # the slice ending at t
    a_col = np.concatenate([record.values[:1], record.values])
    header = ["t", "a", "log_norm"] + [c for i in range(model.dim) for c in (f"re_{i}", f"im_{i}")]
    cols = [record.grid.times(), a_col, logs, amps.view(float)]
    write("selective_run.csv", header, cols)
    log_density = 2.0 * logs[-1] + reference_log_weight(record, cfg.kappa)
    return {"final_log_norm": float(logs[-1]), "log_density": float(log_density)}


def _run_sse_ensemble(cfg: RunConfig, write, workers: int, quiet: bool) -> dict:
    from .lindblad import MonitoringModel
    from .sse import compare_to_master

    grid = cfg.grid
    model = MonitoringModel(cfg.h, cfg.a, cfg.kappa)
    expects, dists = compare_to_master(model, cfg.psi0, grid, cfg.n_traj, cfg.seed, workers)
    header = ["t", "expect_A", "trace_distance_lindblad"]
    write("ensemble.csv", header, [grid.times(), expects, dists])
    return {"n_traj": cfg.n_traj, "max_trace_distance": float(np.max(dists))}


def _run_chain(cfg: RunConfig, write, workers: int, quiet: bool) -> dict:
    from .chain import FuzzyKraus, run_chain_ensemble, run_decoherence_chain

    k = FuzzyKraus(cfg.a, cfg.strength)
    first = run_decoherence_chain(k, cfg.psi0, cfg.n_shots, cfg.seed, cfg.collapse_threshold)
    n = cfg.n_shots
    header = ["shot", "a"] + [f"pop_{i}" for i in range(cfg.a.dim)]
    cols = [np.arange(1, n + 1), first.readouts[:n], first.populations[1 : n + 1]]
    write("chain.csv", header, cols)
    collapsed, _, _ = run_chain_ensemble(
        k, cfg.psi0, cfg.n_shots, cfg.n_chains, cfg.seed, cfg.collapse_threshold, workers
    )
    counts = {f"collapse_to_{i}": int(np.sum(collapsed == i)) for i in range(cfg.a.dim)}
    counts["no_collapse"] = int(np.sum(collapsed < 0))
    return {
        "n_chains": cfg.n_chains,
        "first_chain_collapsed_to": first.collapsed_to,
        "counts": counts,
        "eigenvalues": list(k.kernel.evals),
    }


def _run_zeno(cfg: RunConfig, write, workers: int, quiet: bool) -> dict:
    from .experiments import DrivenTwoLevel, run_zeno_scan

    system = DrivenTwoLevel(cfg.level_splitting, cfg.rabi, cfg.zeno_kappas[0])
    scan = run_zeno_scan(
        system, list(cfg.zeno_kappas), n_traj=cfg.zeno_n_traj, seed=cfg.seed, workers=workers
    )
    header = ["kappa", "transfer_probability", "sse_trace_distance"]
    cols = [scan.kappa_values, scan.transfer_probabilities, scan.sse_trace_distances]
    write("zeno_scan.csv", header, cols)
    return {
        "kappa_values": list(scan.kappa_values),
        "transfer_probabilities": list(scan.transfer_probabilities),
        "monotone_non_increasing": scan.monotone_non_increasing(),
    }


def _run_rabi(cfg: RunConfig, write, workers: int, quiet: bool) -> dict:
    from .experiments import DrivenTwoLevel, analyze_rabi_line, run_rabi_monitor

    grid = cfg.grid
    system = DrivenTwoLevel(cfg.level_splitting, cfg.rabi, cfg.kappa)
    traj, spectrum = run_rabi_monitor(system, grid.duration, grid.dt, cfg.seed)
    stats = analyze_rabi_line(
        spectrum,
        system.rabi,
        max_offset_bins=cfg.max_offset_bins,
        search_bins=cfg.search_bins,
        band_bins=cfg.band_bins,
    )
    write("record.csv", ["t", "a"], [traj.grid.midpoints(), traj.record.values])
    write("spectrum.csv", ["frequency", "power"], [spectrum])
    return {
        "peak_frequency": stats.peak_frequency,
        "offset_bins": stats.offset_bins,
        "power_ratio": stats.power_ratio,
        "detected": stats.detected,
        "soft_regime": system.soft_regime(),
    }


def _run_transition(cfg: RunConfig, write, workers: int, quiet: bool) -> dict:
    from .experiments import DrivenTwoLevel, run_transition_monitor

    grid = cfg.grid
    system = DrivenTwoLevel(cfg.level_splitting, cfg.rabi, cfg.kappa)
    initial = system.ground_state() if cfg.initial == "ground" else system.excited_state()
    result = run_transition_monitor(
        system,
        grid.duration,
        grid.dt,
        cfg.seed,
        smoothing_window=cfg.smoothing_window,
        threshold_fraction=cfg.threshold_fraction,
        initial=initial,
    )
    traj = result.trajectory
    cols = [traj.grid.midpoints(), traj.record.values, result.smoothed_record]
    write("record.csv", ["t", "a_raw", "a_smoothed"], cols)
    return {
        "detected_times": list(result.detected_times),
        "n_detected": len(result.detected_times),
        "thresholds": [result.lower_threshold, result.upper_threshold],
        "smoothing_window": result.smoothing_window,
    }


def _run_verify(cfg: RunConfig, write, workers: int, quiet: bool) -> dict:
    from .verify import run_all_checks

    results = run_all_checks()
    rows = [(r.name, "pass" if r.passed else "fail", r.detail) for r in results]
    write("checks.csv", ["check", "status", "detail"], list(zip(*rows)))
    for r in results:
        if not quiet:
            print(r.line())
    return {
        "n_checks": len(results),
        "n_failed": sum(not r.passed for r in results),
        "failed": [r.name for r in results if not r.passed],
    }


# scenario -> runner(cfg, write, workers, quiet), which writes its CSV tables
# by write(name, header, columns) and returns the summary headline; each
# runner imports the modules it calls, so a run loads only its scenario's
# modules (verify only for scenario = verify)
_RUNNERS = {
    "lindblad": _run_lindblad,
    "chm": _run_chm,
    "sse-ensemble": _run_sse_ensemble,
    "chain": _run_chain,
    "zeno": _run_zeno,
    "rabi-monitor": _run_rabi,
    "transition": _run_transition,
    "verify": _run_verify,
}


def dispatch(cfg: RunConfig, out_dir: str | None, workers: int, quiet: bool = False) -> int:
    """Run the configured scenario; returns the process exit status, 2 when a
    headline reports failed checks. An earlier run's ``summary.json`` in the
    output directory is removed before the run and the new one is written
    last, so after a run that raises there is no summary."""
    out = Path(out_dir if out_dir else (cfg.out or f"runs/{cfg.scenario}"))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory {out}: {exc.strerror}", file=sys.stderr)
        return 1
    try:
        (out / "summary.json").unlink(missing_ok=True)
    except OSError as exc:
        print(f"error: cannot remove {out / 'summary.json'}: {exc.strerror}", file=sys.stderr)
        return 1
    written = []  # the summary lists this run's tables, not older files in ``out``

    def write(name: str, header: list[str], columns) -> None:
        _write_csv(out / name, header, columns)
        written.append(name)

    try:
        headline = _RUNNERS[cfg.scenario](cfg, write, workers, quiet)
    except (ConfigError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except QmeasError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    _write_summary(out, cfg, headline, written)
    if not quiet:
        brief = ", ".join(f"{k}={v}" for k, v in list(_json_ready(headline).items())[:3])
        print(f"{cfg.scenario}: wrote {len(written)} csv file(s) to {out} ({brief})")
    return 2 if headline.get("n_failed") else 0


def _resolve_workers(flag: int | None) -> int:
    if flag is not None:
        return max(1, flag)
    env = os.environ.get("QMEAS_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigError(f"QMEAS_WORKERS must be an integer, got {env!r}") from exc
    # the CPUs this process may run on, which taskset or a cgroup can limit
    # below the host's count
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qmeas",
        description="continuous fuzzy quantum measurement simulations",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--config", required=True, help="path to the run configuration")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="output directory (default from config)")
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker pool size for trajectory ensembles "
        "(default: QMEAS_WORKERS or the available parallelism)",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress the summary line")
    parser.add_argument("--version", action="version", version=f"qmeas {__version__}")
    args = parser.parse_args(argv)

    try:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        cfg = parse_config(text)
        workers = _resolve_workers(args.workers)
        if args.seed is not None and args.seed < 0:
            raise ConfigError("seed must be non-negative")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.seed is not None:
        cfg.seed = args.seed
    return dispatch(cfg, args.out, workers, args.quiet)


if __name__ == "__main__":
    sys.exit(main())
