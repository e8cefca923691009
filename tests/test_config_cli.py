import json
from pathlib import Path

import numpy as np
import pytest

from qmeas import cli
from qmeas.cli import dispatch, main
from qmeas.config import parse_config
from qmeas.errors import ConfigError
from qmeas.readout import parse_record


class TestParseConfig:
    def test_minimal_zeno_config_fills_defaults(self):
        cfg = parse_config("[run]\nscenario = zeno\n")
        assert cfg.scenario == "zeno"
        assert cfg.seed == 0
        assert cfg.level_splitting == 2.0
        assert cfg.rabi == 1.0
        assert cfg.zeno_kappas == (0.1, 1.0, 10.0, 100.0)

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            parse_config("[run]\nscenario = teleport\n")

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("[run]\nscenario = zeno\nwibble = 3\n")

    def test_non_hermitian_matrix_names_entries(self):
        text = "[run]\nscenario = lindblad\n[model]\na = 0+0i 1+0i ; 0+0i 0+0i\n"
        with pytest.raises(ConfigError, match=r"\(0,1\)"):
            parse_config(text)

    def test_zero_dt_message(self):
        text = "[run]\nscenario = lindblad\n[grid]\ndt = 0\n"
        with pytest.raises(ConfigError, match="dt must be positive"):
            parse_config(text)

    def test_negative_kappa(self):
        text = "[run]\nscenario = lindblad\n[model]\nkappa = -1\n"
        with pytest.raises(ConfigError, match="kappa must be positive"):
            parse_config(text)

    def test_scenario_key_mismatch(self):
        text = "[run]\nscenario = zeno\n[sse]\nn_traj = 10\n"
        with pytest.raises(ConfigError, match="does not apply"):
            parse_config(text)

    def test_explicit_matrices_and_state(self):
        text = (
            "[run]\nscenario = sse-ensemble\n"
            "[model]\nh = 0+0i 1+0i ; 1+0i 0+0i\na = 1+0i 0+0i ; 0+0i -1+0i\n"
            "psi0 = 0.6+0i 0.8+0i\nkappa = 0.25\n"
        )
        cfg = parse_config(text)
        assert cfg.kappa == 0.25
        assert np.allclose(cfg.psi0.amplitudes, [0.6, 0.8])

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# a comment\n\n[run]\nscenario = zeno  # trailing\n")
        assert cfg.scenario == "zeno"

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("[run]\nscenario = zeno\nseed = 1\nseed = 2\n")


def run_cli(tmp_path, name, text, *args):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / f"out_{name}_{len(args)}_{abs(hash(args)) % 10_000}"
    rc = main(["--config", str(cfg), "--out", str(out), "--quiet", *args])
    return rc, out


SMALL_SSE = """\
[run]
scenario = sse-ensemble
seed = 4
[model]
preset = two-level
kappa = 0.5
[grid]
dt = 0.001
n_steps = 300
[sse]
n_traj = 80
"""

SMALL_ZENO = """\
[run]
scenario = zeno
seed = 9
[model]
level_splitting = 2.0
rabi = 1.0
[zeno]
kappa_list = 0.5 2.0
n_traj = 64
"""


class TestDispatch:
    def test_lindblad_outputs(self, tmp_path):
        rc, out = run_cli(
            tmp_path,
            "lind",
            "[run]\nscenario = lindblad\n[model]\npreset = two-level\n[grid]\ndt = 0.01\nn_steps = 50\n",
        )
        assert rc == 0
        assert (out / "trajectory.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["scenario"] == "lindblad"
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t,re_00,im_00,re_01,im_01,re_10,im_10,re_11,im_11"

    def test_chm_record_file_round_trip(self, tmp_path):
        rec_path = tmp_path / "rec.csv"
        rec_path.write_text("t,a\n0.05,1\n0.15,1\n0.25,0.5\n", encoding="utf-8")
        text = (
            "[run]\nscenario = chm\n[model]\npreset = two-level\nkappa = 0.5\n"
            f"[chm]\nrecord_file = {rec_path}\n"
        )
        rc, out = run_cli(tmp_path, "chm", text)
        assert rc == 0
        lines = (out / "selective_run.csv").read_text().splitlines()
        assert lines[0].startswith("t,a,log_norm")
        assert len(lines) == 5  # header + 4 grid nodes

    def test_invalid_config_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[run]\nscenario = nope\n", encoding="utf-8")
        assert main(["--config", str(cfg), "--quiet"]) == 1

    def test_bad_record_file_is_validation_failure(self, tmp_path):
        missing = (
            "[run]\nscenario = chm\n[model]\npreset = two-level\n"
            f"[chm]\nrecord_file = {tmp_path / 'nope.csv'}\n"
        )
        rc, _ = run_cli(tmp_path, "norec", missing)
        assert rc == 1
        bad = tmp_path / "bad_rec.csv"
        bad.write_text("t,a\n0.25,fish\n", encoding="utf-8")
        malformed = missing.replace("nope.csv", "bad_rec.csv")
        rc, _ = run_cli(tmp_path, "badrec", malformed)
        assert rc == 1

    def test_missing_config_file(self):
        assert main(["--config", "/nonexistent/x.cfg", "--quiet"]) == 1

    def test_numerical_failure_exit_code(self, tmp_path):
        # oversized dt at large kappa trips the positivity monitor
        text = (
            "[run]\nscenario = lindblad\n[model]\npreset = two-level\nkappa = 100\n"
            "[grid]\ndt = 0.05\nn_steps = 40\n"
        )
        rc, _ = run_cli(tmp_path, "blowup", text)
        assert rc == 2

    def test_seed_flag_overrides_config(self, tmp_path):
        rc1, out1 = run_cli(tmp_path, "sse_a", SMALL_SSE, "--seed", "11")
        rc2, out2 = run_cli(tmp_path, "sse_b", SMALL_SSE.replace("seed = 4", "seed = 11"))
        assert rc1 == rc2 == 0
        assert (out1 / "ensemble.csv").read_bytes() == (out2 / "ensemble.csv").read_bytes()

    def test_chain_scenario(self, tmp_path):
        text = (
            "[run]\nscenario = chain\nseed = 2\n[model]\npreset = two-level\n"
            "psi0 = 0.6+0i 0.8+0i\n[chain]\nstrength = 0.1\nn_shots = 60\nn_chains = 40\n"
        )
        rc, out = run_cli(tmp_path, "chain", text)
        assert rc == 0
        lines = (out / "chain.csv").read_text().splitlines()
        assert lines[0] == "shot,a,pop_0,pop_1"
        assert len(lines) == 61
        summary = json.loads((out / "summary.json").read_text())
        counts = summary["headline"]["counts"]
        assert counts["collapse_to_0"] + counts["collapse_to_1"] + counts["no_collapse"] == 40

    def test_rabi_scenario_small(self, tmp_path):
        text = (
            "[run]\nscenario = rabi-monitor\nseed = 1\n[model]\nkappa = 0.05\n"
            "[grid]\ndt = 0.001\nn_steps = 20000\n"
        )
        rc, out = run_cli(tmp_path, "rabi", text)
        assert rc == 0
        assert (out / "record.csv").exists() and (out / "spectrum.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert "power_ratio" in summary["headline"]

    def test_transition_scenario_small(self, tmp_path):
        text = (
            "[run]\nscenario = transition\nseed = 10\n[model]\nkappa = 4.0\n"
            "[grid]\ndt = 0.001\nn_steps = 5000\n"
        )
        rc, out = run_cli(tmp_path, "trans", text)
        assert rc == 0
        lines = (out / "record.csv").read_text().splitlines()
        assert lines[0] == "t,a_raw,a_smoothed"


class TestReproducibility:
    @pytest.mark.parametrize("config_text,name", [(SMALL_SSE, "sse"), (SMALL_ZENO, "zeno")])
    def test_byte_identical_reruns(self, tmp_path, config_text, name):
        rc1, out1 = run_cli(tmp_path, f"{name}1", config_text)
        rc2, out2 = run_cli(tmp_path, f"{name}2", config_text)
        assert rc1 == rc2 == 0
        files1 = sorted(p.name for p in out1.iterdir())
        files2 = sorted(p.name for p in out2.iterdir())
        assert files1 == files2
        for f in files1:
            assert (out1 / f).read_bytes() == (out2 / f).read_bytes(), f

    def test_byte_identical_across_workers(self, tmp_path):
        rc1, out1 = run_cli(tmp_path, "w1", SMALL_SSE, "--workers", "1")
        rc2, out2 = run_cli(tmp_path, "w3", SMALL_SSE, "--workers", "3")
        assert rc1 == rc2 == 0
        for f in sorted(p.name for p in out1.iterdir()):
            assert (out1 / f).read_bytes() == (out2 / f).read_bytes(), f

    def test_zeno_byte_identical_across_workers(self, tmp_path):
        # 150 trajectories: two full chunks and a partial one per scan point
        text = SMALL_ZENO.replace("n_traj = 64", "n_traj = 150")
        rc1, out1 = run_cli(tmp_path, "zw1", text, "--workers", "1")
        rc2, out2 = run_cli(tmp_path, "zw2", text, "--workers", "2")
        assert rc1 == rc2 == 0
        files = sorted(p.name for p in out1.iterdir())
        assert files == sorted(p.name for p in out2.iterdir())
        for f in files:
            assert (out1 / f).read_bytes() == (out2 / f).read_bytes(), f


class TestWorkersResolution:
    def test_env_fallback(self, monkeypatch):
        from qmeas.cli import _resolve_workers

        monkeypatch.setenv("QMEAS_WORKERS", "5")
        assert _resolve_workers(None) == 5
        assert _resolve_workers(2) == 2  # flag wins over env
        monkeypatch.setenv("QMEAS_WORKERS", "many")
        with pytest.raises(ConfigError):
            _resolve_workers(None)

    def test_verify_scenario_wiring(self, tmp_path, monkeypatch):
        from qmeas import cli as cli_mod
        from qmeas.verify import CheckResult

        calls = [
            CheckResult("alpha", True, "ok"),
            CheckResult("beta", False, "off by 1"),
        ]
        monkeypatch.setattr(cli_mod, "run_all_checks", lambda: calls)
        cfg = tmp_path / "v.cfg"
        cfg.write_text("[run]\nscenario = verify\n", encoding="utf-8")
        out = tmp_path / "vout"
        rc = cli_mod.main(["--config", str(cfg), "--out", str(out), "--quiet"])
        assert rc == 2  # a failing check is a numerical failure
        rows = (out / "checks.csv").read_text().splitlines()
        assert rows[1].startswith("alpha,pass") and rows[2].startswith("beta,fail")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["headline"]["failed"] == ["beta"]

        monkeypatch.setattr(cli_mod, "run_all_checks", lambda: calls[:1])
        rc = cli_mod.main(["--config", str(cfg), "--out", str(tmp_path / "vout2"), "--quiet"])
        assert rc == 0


class TestRecordExportFormat:
    def test_rabi_record_parses_as_readout(self, tmp_path):
        text = (
            "[run]\nscenario = rabi-monitor\nseed = 0\n[model]\nkappa = 0.05\n"
            "[grid]\ndt = 0.001\nn_steps = 20000\n"
        )
        rc, out = run_cli(tmp_path, "recfmt", text)
        assert rc == 0
        rec = parse_record((out / "record.csv").read_text(encoding="utf-8"))
        assert rec.grid.n_steps == 20000
        assert rec.grid.dt == pytest.approx(0.001)

    def test_unresolvable_rabi_line_is_validation_error(self, tmp_path):
        # T = 2 gives 0.5-per-bin resolution, far above the Rabi line
        text = (
            "[run]\nscenario = rabi-monitor\nseed = 0\n[model]\nkappa = 0.05\n"
            "[grid]\ndt = 0.001\nn_steps = 2000\n"
        )
        rc, _ = run_cli(tmp_path, "recshort", text)
        assert rc == 1


def _row_wise_csv(header, rows):
    """The row-by-row CSV formatter the column-wise writer replaced, kept as
    the reference for its bytes."""

    def fmt(x):
        return f"{float(x):.17g}"

    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) if isinstance(v, (int, float, np.floating)) else str(v) for v in row))
    return "\n".join(lines) + "\n"


class TestCsvWriter:
    @pytest.mark.parametrize("slice_rows", [cli.CSV_SLICE, 3])
    def test_matches_the_row_wise_formatter(self, tmp_path, monkeypatch, slice_rows):
        monkeypatch.setattr(cli, "CSV_SLICE", slice_rows)
        rng = np.random.default_rng(4)
        n = 10
        shots = np.arange(1, n + 1)
        reals = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        reals[:4] = [-0.0, 1e-300, 0.1, -2.5e17]
        amps = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        amps[0, 1] = complex(-0.0, 1e-300)
        names = [f"check_{k}, detail" for k in range(n)]
        header = ["shot", "a", "re_0", "im_0", "re_1", "im_1", "name"]
        rows = [
            [int(s), r] + [part for v in amp for part in (v.real, v.imag)] + [name]
            for s, r, amp, name in zip(shots, reals, amps, names)
        ]
        path = tmp_path / "t.csv"
        cli._write_csv(path, header, [shots, list(reals), amps.view(float), names])
        assert path.read_bytes() == _row_wise_csv(header, rows).encode("utf-8")
