"""The qmeas benchmark: CLI workloads timed end to end, and traced per layer.

Run from the repository root::

    python3 perfbench/run.py --workload zeno --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One run writes the workload's inputs from ``--seed`` into
``.perfbench/<workload>-<seed>/``, then

1. runs rounds of the workload's ops as ``qmeas`` CLI subprocesses, one at a
   time (a closed loop with one client), until ``--seconds`` have passed.
   Every op is checked against the references in ``workloads.py`` and the
   sha256 digest of each output file is compared with the first round and
   with earlier runs of the same source tree, inputs and seed;
2. before the first round and after every round, times set-up (interpreter
   start, ``import qmeas`` and ``parse_config`` of the workload's configs)
   in ``SETUP_PER_GAP`` separate processes, and times the reference
   computation ``CALIB_CODE``, which does not use qmeas, on every CPU at
   once, one process pinned to each;
3. with ``--trace 1``, runs one more round in-process under ``tracer.py``;
4. writes its samples and metrics to ``result.json`` in that directory.

The host's speed drifts by up to a half within a quarter of an hour, so
the gated times are scaled to a reference speed: every time of a run is
multiplied by ``CALIB_REF_S`` over the mean of the run's reference times.
The measured times are printed with them.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or with
``--trace 1`` the per-layer ones). ``--workload all`` runs every workload
untraced and traced and prints one table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
TRACER = BENCH / "tracer.py"

# pinned in every child: 2 pool workers x 2 BLAS threads would oversubscribe 2 cores
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PER_GAP = 3
# about the reference computation's median time on the host of
# baseline.json; scaled times are seconds at that host's usual speed
CALIB_REF_S = 0.70
CALIB_MAX_CPUS = 4
RUN_LIMIT_S = 170.0  # a run stops starting children past this and kills any still running

SETUP_CODE = """\
import sys
from pathlib import Path
from qmeas.config import parse_config
for path in sys.argv[1:]:
    parse_config(Path(path).read_text(encoding="utf-8"))
"""

# A fixed mix of the work qmeas does: small-state stepping in a Python loop,
# dense 64 x 64 algebra and CSV text, pinned to the CPU given as argument.
# It prints its own in-process time, so interpreter start and imports (timed
# by set-up) do not add noise to it.
CALIB_CODE = """\
import os, sys, time
import numpy as np

os.sched_setaffinity(0, {int(sys.argv[1])})

def kernel(rng):
    psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    h = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    for _ in range(3000):
        psi = psi - 1e-3j * (h @ psi)
        psi = psi / np.linalg.norm(psi)
        np.linalg.eigvalsh(h)
    m = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    m = m + m.conj().T
    x = m
    for _ in range(40):
        x = (x @ m) / np.abs(x).max()
        np.linalg.eigvalsh(m)
    vals = rng.standard_normal(40000)
    return len("\\n".join(",".join(repr(float(v)) for v in vals[i:i + 8]) for i in range(0, len(vals), 8)))

rng = np.random.default_rng(0)
start = time.perf_counter()
for _ in range(6):
    kernel(rng)
print(repr(time.perf_counter() - start))
"""

ENV_CODE = """\
import json, sys, numpy, scipy, qmeas
blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
print(json.dumps({
    "python": sys.version.split()[0],
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    "qmeas_file": qmeas.__file__,
}))
"""

# gated end-to-end metrics -> unit; times are scaled to the reference speed
UNITS = {"wall_ref_s": "s", "cpu_ref_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# printed, not gated: the same times as measured, and the reference time
RAW_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_raw_s": "s", "calib_s": "s"}


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return self.end - time.monotonic()


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "QMEAS_WORKERS"}
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(cmd: list[str], cwd: Path, deadline: Deadline) -> tuple[int, float, float, float]:
    """Run a child to completion; returns (exit code, wall s, cpu s, peak RSS MB).

    CPU and peak RSS come from ``os.wait4`` and so cover the child and every
    descendant it waited for (the process-pool workers).
    """
    if deadline.left() <= 0:
        return -1, 0.0, 0.0, 0.0
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=cwd, env=child_env(), stdout=subprocess.DEVNULL, start_new_session=True
    )
    killer = threading.Timer(deadline.left(), os.killpg, (proc.pid, signal.SIGKILL))
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:  # pool workers orphaned by a crash or a kill
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def file_digests(out: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file()
    }


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        h.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def environment() -> dict:
    """Versions, host and the pinned thread settings; bit-reproducibility of
    qmeas outputs is only promised for a fixed numpy."""
    probe = subprocess.run(
        [sys.executable, "-c", ENV_CODE], env=child_env(), capture_output=True, text=True, timeout=60
    )
    if probe.returncode != 0:
        raise RuntimeError(f"cannot import qmeas from {SRC}: {probe.stderr.strip()}")
    env = json.loads(probe.stdout)
    if Path(env.pop("qmeas_file")).resolve().parent.parent != SRC.resolve():
        raise RuntimeError(f"qmeas did not load from {SRC}")
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or None
    env.update(
        nproc=len(os.sched_getaffinity(0)),
        cpu=cpu,
        git_commit=commit,
        source_sha256=source_digest(),
        thread_env=THREAD_ENV,
        workers=workloads.WORKERS,
    )
    return env


class DigestStore:
    """Output digests of earlier runs, keyed by source tree, numpy, workload,
    seed, input files and op; a digest that changes for the same key fails
    the op."""

    def __init__(self, path: Path, prefix: str):
        self.path = path
        self.prefix = prefix
        self.known = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}

    def check(self, op: str, digests: dict[str, str]) -> list[str]:
        seen = self.known.setdefault(f"{self.prefix}:{op}", digests)
        return [] if seen == digests else [f"{op}: output digests differ from an earlier run of the same code and seed"]

    def save(self) -> None:
        self.path.write_text(json.dumps(self.known, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def op_command(op: workloads.Op, out: str, stats: str | None) -> list[str]:
    args = ["--config", op.config, "--out", out, "--workers", str(workloads.WORKERS), "--quiet"]
    if stats is None:
        return [sys.executable, "-m", "qmeas.cli", *args]
    return [sys.executable, str(TRACER), stats, "--", *args]


def run_round(ops, work: Path, store: DigestStore, passed: dict, deadline: Deadline, traced: bool) -> dict:
    """Run every op once; returns the round's totals and problems, and for a
    traced round the tracer's statistics and the CSV rows and bytes written.

    ``passed`` maps an op to the output digests that passed its check in
    this run; outputs with the same bytes are not checked again."""
    rnd = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "problems": [], "failed": 0,
           "rows": 0, "bytes": 0, "stats": []}
    for op in ops:
        out = work / f"out-{op.name}"
        shutil.rmtree(out, ignore_errors=True)
        stats = work / f"trace-{op.name}.json"
        code, wall, cpu, rss = run_child(op_command(op, out.name, str(stats) if traced else None), work, deadline)
        rnd["wall_s"] += wall
        rnd["cpu_s"] += cpu
        rnd["peak_rss_mb"] = max(rnd["peak_rss_mb"], rss)
        if code != 0:
            problems = [f"{op.name}: exit status {code}"]
        else:
            digests = file_digests(out)
            problems = [] if passed.get(op.name) == digests else op.check(out)
            if not problems:
                passed[op.name] = digests
            problems += store.check(op.name, digests)
            if traced:
                rnd["stats"].append(json.loads(stats.read_text(encoding="utf-8")))
                rnd["rows"] += sum(p.read_bytes().count(b"\n") - 1 for p in out.glob("*.csv"))
                rnd["bytes"] += sum(p.stat().st_size for p in out.iterdir())
        rnd["problems"] += problems
        rnd["failed"] += bool(problems)
    return rnd


def run_gap(ops, work: Path, deadline: Deadline) -> tuple[list[float], float]:
    """Set-up times of ``SETUP_PER_GAP`` processes, then the reference time."""
    setup = []
    for _ in range(SETUP_PER_GAP):
        code, wall, _, _ = run_child([sys.executable, "-c", SETUP_CODE, *(op.config for op in ops)], work, deadline)
        if code != 0:
            raise RuntimeError(f"set-up process failed with status {code}")
        setup.append(wall)
    # the host's CPUs slow down separately and together, so the reference
    # runs on all of them at once
    procs = [
        subprocess.Popen([sys.executable, "-c", CALIB_CODE, str(cpu)], cwd=work, env=child_env(),
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for cpu in sorted(os.sched_getaffinity(0))[:CALIB_MAX_CPUS]
    ]
    times = []
    try:
        for proc in procs:
            out, err = proc.communicate(timeout=max(deadline.left(), 1.0))
            if proc.returncode != 0:
                raise RuntimeError(f"reference computation failed: {err.strip()}")
            times.append(float(out))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    return setup, statistics.mean(times)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


LAYERS = ("hilbert", "readout", "lindblad", "chm", "sse", "chain", "experiments", "config", "cli")
CHM_KERNELS = ("chm.propagate_chm", "chm.propagate_chm_series", "chm.ode_propagator", "chm.sliced_propagator")

# per-layer metric -> unit, in report order
PER_LAYER = {
    "lindblad.steps": "count",
    "lindblad.us_per_step": "us",
    "sse.ensemble.traj_steps": "count",
    "sse.ensemble.ns_per_traj_step": "ns",
    "sse.trajectory.steps": "count",
    "sse.trajectory.us_per_step": "us",
    "hilbert.density_matrix_builds": "count",
    "hilbert.spectral_norm_calls": "count",
    "hilbert.trace_distance_calls": "count",
    "chm.slices": "count",
    "chm.us_per_slice": "us",
    "chain.calls": "count",
    "chain.ns_per_chain_shot": "ns",
    "cli.rows_out": "count",
    "cli.bytes_out": "bytes",
    "config.parse_s": "s",
    "readout.parse_record_s": "s",
    "trace.overhead_s": "s",
    "unattributed_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
}


def layer_metrics(traced: dict) -> dict:
    """Per-layer metrics of a traced round.

    Kernel costs per unit are the kernel's inclusive time over its units.
    ``trace.overhead_s`` is the wrapped calls times the time one wrapper adds
    to a call. ``unattributed_s`` is the traced round's wall time minus all
    layer self time: interpreter start, imports and whatever no wrapper
    covers.
    """
    fn: dict[str, list[int]] = {}  # name -> [calls, inclusive ns, self ns, units]
    overhead_s = 0.0
    for stats in traced["stats"]:
        for name, vals in stats["functions"].items():
            fn[name] = [x + y for x, y in zip(fn.get(name, [0, 0, 0, 0]), vals)]
        overhead_s += sum(v[0] for v in stats["functions"].values()) * stats["wrapper_ns"] / 1e9

    def total(field, *names):
        return sum(fn[n][field] for n in names if n in fn)

    def per_unit(scale, *names):
        units = total(3, *names)
        return total(1, *names) / 1e9 / units * scale if units else 0.0

    self_s: dict[str, float] = {}
    for name, vals in fn.items():
        layer = name.split(".", 1)[0]
        self_s[layer] = self_s.get(layer, 0.0) + vals[2] / 1e9
    m = {
        "lindblad.steps": total(3, "lindblad.integrate_lindblad"),
        "lindblad.us_per_step": per_unit(1e6, "lindblad.integrate_lindblad"),
        "sse.ensemble.traj_steps": total(3, "sse.ensemble_accumulate"),
        "sse.ensemble.ns_per_traj_step": per_unit(1e9, "sse.ensemble_accumulate"),
        "sse.trajectory.steps": total(3, "sse.simulate_trajectory"),
        "sse.trajectory.us_per_step": per_unit(1e6, "sse.simulate_trajectory"),
        "hilbert.density_matrix_builds": total(0, "hilbert.DensityMatrix.__post_init__"),
        "hilbert.spectral_norm_calls": total(0, "hilbert.HermitianOperator.spectral_norm"),
        "hilbert.trace_distance_calls": total(0, "hilbert.trace_distance"),
        "chm.slices": total(3, *CHM_KERNELS),
        "chm.us_per_slice": per_unit(1e6, *CHM_KERNELS),
        "chain.calls": total(0, "chain._run_chain_batch"),
        "chain.ns_per_chain_shot": per_unit(1e9, "chain._run_chain_batch"),
        "cli.rows_out": traced["rows"],
        "cli.bytes_out": traced["bytes"],
        "config.parse_s": total(1, "config.parse_config") / 1e9,
        "readout.parse_record_s": total(1, "readout.parse_record") / 1e9,
        "trace.overhead_s": overhead_s,
        "unattributed_s": traced["wall_s"] - sum(self_s.values()),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    return m


def run_workload(workload: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    deadline = Deadline(RUN_LIMIT_S)
    work = STATE / f"{workload}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = workloads.make_ops(workload, seed, work)
    inputs = hashlib.sha256(json.dumps(file_digests(work), sort_keys=True).encode()).hexdigest()
    store = DigestStore(STATE / "digests.json", f"{env['source_sha256']}:{env['numpy']}:{workload}:{seed}:{inputs}")

    # rounds back to back, each followed by a gap of set-up and reference
    # timings, while the next round is expected to end within ``seconds``;
    # always at least one round
    start = time.monotonic()
    gaps = [run_gap(ops, work, deadline)]
    rounds = []
    passed: dict[str, dict[str, str]] = {}
    while True:
        rounds.append(run_round(ops, work, store, passed, deadline, traced=False))
        if deadline.left() <= 0:
            break
        gaps.append(run_gap(ops, work, deadline))
        if (time.monotonic() - start) * (1 + 1 / len(rounds)) > seconds:
            break
    traced = run_round(ops, work, store, passed, deadline, traced=True) if trace else None
    store.save()

    calib = [c for _, c in gaps]
    # one factor for the run: a single reference time follows the host's
    # speed over seconds only loosely, their mean over a run follows it well
    factor = CALIB_REF_S / statistics.mean(calib)
    done = rounds + ([traced] if traced else [])
    result = {
        "workload": workload,
        "seed": seed,
        "ops_per_round": [op.name for op in ops],
        "attempted": len(ops) * len(done),
        "failed": sum(r["failed"] for r in done),
        "problems": [p for r in done for p in r["problems"]],
        "samples": {
            "wall_ref_s": [r["wall_s"] * factor for r in rounds],
            "cpu_ref_s": [r["cpu_s"] * factor for r in rounds],
            "peak_rss_mb": [r["peak_rss_mb"] for r in rounds],
            "setup_s": [t * factor for setup, _ in gaps for t in setup],
        },
        "raw": {
            "wall_s": [r["wall_s"] for r in rounds],
            "cpu_s": [r["cpu_s"] for r in rounds],
            "setup_raw_s": [t for setup, _ in gaps for t in setup],
            "calib_s": calib,
        },
    }
    result["metrics"] = {k: statistics.median(v) for k, v in result["samples"].items()}
    if traced:
        result["per_layer"] = layer_metrics(traced)
        result["traced_wall_s"] = traced["wall_s"]
    (work / "result.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return result


def print_report(res: dict) -> None:
    print(f"workload {res['workload']} seed {res['seed']}: {len(res['raw']['wall_s'])} round(s) of "
          f"{', '.join(res['ops_per_round'])}; closed loop, 1 client, --workers {workloads.WORKERS}")
    for units, table in ((UNITS, res["samples"]), (RAW_UNITS, res["raw"])):
        for name, values in table.items():
            q1, med, q3 = quartiles(values)
            print(f"  {name:<12} median {med:10.4f} {units[name]:<3} q1 {q1:.4f} q3 {q3:.4f} n {len(values)}"
                  f"  [{' '.join(f'{v:.3f}' for v in values)}]")
    print(f"  {'fail_ratio':<12} {res['failed']}/{res['attempted']} = {res['failed'] / res['attempted']:.4f}")
    for p in res["problems"]:
        print(f"  FAILED {p}")
    if "per_layer" in res:
        self_s = {k[: -len(".self_s")]: v for k, v in res["per_layer"].items() if k.endswith(".self_s")}
        print(f"  traced round {res['traced_wall_s']:.4f} s; self seconds by layer: " + ", ".join(
                  f"{layer} {sec:.4f}" for layer, sec in sorted(self_s.items(), key=lambda kv: -kv[1]) if sec > 0))


def print_tables(results: list[dict]) -> None:
    """End-to-end and per-layer metrics, one column per workload."""
    names = [r["workload"] for r in results]
    print(f"{'end to end (median)':<42}" + "".join(f"{n:>14}" for n in names))
    for metric, unit in UNITS.items():
        print(f"  {metric + ' [' + unit + ']':<40}" + "".join(f"{r['metrics'][metric]:14.4f}" for r in results))
    for metric, unit in RAW_UNITS.items():
        print(f"  {metric + ' [' + unit + '] as measured':<40}" + "".join(
            f"{statistics.median(r['raw'][metric]):14.4f}" for r in results))
    print(f"  {'rounds':<40}" + "".join(f"{len(r['raw']['wall_s']):14d}" for r in results))
    print(f"  {'fail_ratio':<40}" + "".join(f"{r['failed'] / r['attempted']:14.4f}" for r in results))
    if all("per_layer" in r for r in results):
        print(f"{'per layer (traced round)':<42}" + "".join(f"{n:>14}" for n in names))
        for metric, unit in PER_LAYER.items():
            print(f"  {metric + ' [' + unit + ']':<40}" + "".join(
                f"{r['per_layer'][metric]:14.4f}" if r["per_layer"][metric] else f"{'-':>14}" for r in results))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qmeas" / "cli.py").is_file():
        print(f"error: no qmeas source at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    STATE.mkdir(exist_ok=True)
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))

    if args.workload == "all":
        results = [run_workload(w, args.seed, args.seconds, True, env) for w in workloads.WORKLOADS]
        for res in results:
            print_report(res)
        print_tables(results)
        (STATE / f"all-{args.seed}.json").write_text(
            json.dumps({"environment": env, "results": results}, indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        metrics = {f"{r['workload']}.{k}": {"value": v, "unit": UNITS[k]}
                   for r in results for k, v in r["metrics"].items()}
    else:
        results = [run_workload(args.workload, args.seed, args.seconds, bool(args.trace), env)]
        print_report(results[0])
        print_tables(results)
        if args.trace:
            metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in results[0]["per_layer"].items()}
        else:
            metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in results[0]["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
