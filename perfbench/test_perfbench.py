"""Tests of the benchmark: its references, its tracer, and the determinism
contract its digest check relies on (identical CLI bytes for any worker
count). Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402


def _cli(config: Path, out: str, workers: int, stats: Path | None = None) -> None:
    cmd = [sys.executable, "-m", "qmeas.cli"] if stats is None else [sys.executable, str(run.TRACER), str(stats), "--"]
    cmd += ["--config", config.name, "--out", out, "--workers", str(workers), "--quiet"]
    code, _, _, _ = run.run_child(cmd, config.parent, run.Deadline(120))
    assert code == 0


def test_zeno_closed_form_gives_the_documented_value():
    assert abs(workloads.zeno_transfer(0.1) - 0.8646) < 5e-5
    assert workloads.zeno_transfer(100.0) < 0.01


def test_ensemble_reference_follows_the_bloch_equations():
    t = np.linspace(0.0, 2.0, 401)
    z = workloads.ensemble_reference(t)
    # z'' = -2 kappa z' - 4 z with z(0) = 1, z'(0) = 0
    dz = np.gradient(z, t, edge_order=2)
    d2z = np.gradient(dz, t, edge_order=2)
    assert z[0] == 1.0
    assert np.abs(d2z + 2 * workloads.ENSEMBLE_KAPPA * dz + 4 * z)[5:-5].max() < 1e-3


def test_checks_reject_a_wrong_zeno_scan(tmp_path):
    good = [f"{k},{workloads.zeno_transfer(k)!r},0" for k in workloads.ZENO_KAPPAS]
    (tmp_path / "zeno_scan.csv").write_text("kappa,transfer_probability,sse_trace_distance\n" + "\n".join(good) + "\n")
    assert workloads.check_zeno(tmp_path) == []
    bad = good[:1] + [f"1,{workloads.zeno_transfer(2.0)!r},0"] + good[2:]
    (tmp_path / "zeno_scan.csv").write_text("kappa,transfer_probability,sse_trace_distance\n" + "\n".join(bad) + "\n")
    assert len(workloads.check_zeno(tmp_path)) == 1


def test_ensemble_check_rejects_a_twenty_percent_error_in_kappa(tmp_path):
    t = np.linspace(0.0, workloads.ENSEMBLE_STEPS * workloads.ENSEMBLE_DT, workloads.ENSEMBLE_STEPS + 1)
    for kappa, ok in ((workloads.ENSEMBLE_KAPPA, True), (0.8 * workloads.ENSEMBLE_KAPPA, False), (1.2 * workloads.ENSEMBLE_KAPPA, False)):
        z = workloads.ensemble_reference(t, kappa)
        rows = "\n".join(f"{a:.17g},{b:.17g},0" for a, b in zip(t, z))
        (tmp_path / "ensemble.csv").write_text("t,expect_A,trace_distance_lindblad\n" + rows + "\n")
        assert (workloads.check_ensemble(tmp_path) == []) == ok


def test_ensemble_check_rejects_a_single_bad_point(tmp_path):
    t = np.linspace(0.0, workloads.ENSEMBLE_STEPS * workloads.ENSEMBLE_DT, workloads.ENSEMBLE_STEPS + 1)
    z = workloads.ensemble_reference(t)
    z[700] += 0.1
    rows = "\n".join(f"{a:.17g},{b:.17g},0" for a, b in zip(t, z))
    (tmp_path / "ensemble.csv").write_text("t,expect_A,trace_distance_lindblad\n" + rows + "\n")
    assert len(workloads.check_ensemble(tmp_path)) == 1


def test_ensemble_digests_do_not_depend_on_worker_count(tmp_path):
    cfg = tmp_path / "ensemble.cfg"
    cfg.write_text(
        f"[run]\nscenario = sse-ensemble\nseed = {workloads.run_seed(3)}\n"
        "[grid]\ndt = 0.001\nn_steps = 200\n[sse]\nn_traj = 130\n"
    )
    _cli(cfg, "out1", workers=1)
    _cli(cfg, "out2", workers=2)
    assert run.file_digests(tmp_path / "out1") == run.file_digests(tmp_path / "out2")


def test_tracer_counts_work_and_keeps_outputs(tmp_path):
    cfg = tmp_path / "lindblad.cfg"
    cfg.write_text("[run]\nscenario = lindblad\n[grid]\ndt = 0.01\nn_steps = 30\n")
    stats = tmp_path / "stats.json"
    _cli(cfg, "plain", workers=1)
    _cli(cfg, "traced", workers=1, stats=stats)
    assert run.file_digests(tmp_path / "plain") == run.file_digests(tmp_path / "traced")
    fn = json.loads(stats.read_text())["functions"]
    assert fn["cli.main"][0] == 1
    assert fn["config.parse_config"][0] == 1  # called through the name cli imported
    assert fn["lindblad.integrate_lindblad"][3] == 30
    assert fn["hilbert.DensityMatrix.__post_init__"][0] >= 31
    # self time never exceeds inclusive time, and main covers everything else
    assert all(0 <= v[2] <= v[1] for v in fn.values())
    assert sum(v[2] for v in fn.values()) <= fn["cli.main"][1] * 1.001
    assert json.loads(stats.read_text())["wrapper_ns"] > 0
