import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeas import cli
from qmeas.cli import dispatch, main
from qmeas.config import KEYS, LINE_CORE_BINS, STEP_GUARD, parse_config
from qmeas.errors import ConfigError, IntegrationError, ValidationError
from qmeas.experiments import DrivenTwoLevel
from qmeas.hilbert import DensityMatrix, HermitianOperator, pauli_x, trace_distance
from qmeas.lindblad import MonitoringModel, integrate_lindblad
from qmeas.readout import parse_record
from qmeas.sse import _guard, ensemble_accumulate


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

    def test_smallest_band_past_the_line_core(self):
        text = f"[run]\nscenario = rabi-monitor\n[rabi]\nband_bins = {LINE_CORE_BINS + 1}\n"
        assert parse_config(text).band_bins == LINE_CORE_BINS + 1



_LIN = "[run]\nscenario = lindblad\n[model]\n"
_ZENO = "[run]\nscenario = zeno\n"

# one invalid config per `raise ConfigError` in config.py, two for the one that
# relays HermitianOperator's checks: (text, line, message)
INVALID_CONFIGS = [
    (_LIN + "a = 1+0i x ; 0 1\n", 4, "bad complex entry 'x' (use forms like 1+0i)"),
    (_LIN + "a = nan 0 ; 0 1\n", 4, "a must be finite, got 'nan'"),
    (_LIN + "a = ;\n", 4, "empty matrix"),
    (_LIN + "a = 1 0 ; 0\n", 4, "matrix must be square (rows separated by ';')"),
    (
        _LIN + "a = 0+0i 1+0i ; 0+0i 0+0i\n",
        4,
        "A: matrix is not Hermitian: entry (0,1)=1+0j does not conjugate-match (1,0)=0+0j "
        "(defect 1)",
    ),
    (_LIN + "a = 1\n", 4, "A: operator dimension must be >= 2, got 1"),
    (_LIN + "psi0 = 1 0 0\n", 4, "psi0 must have 2 amplitudes, got 3"),
    (_LIN + "psi0 = 0 0\n", 4, "psi0: cannot normalize a zero or non-finite vector"),
    ("[run]\nscenario = zeno\n[wibble]\n", 3, "unknown section [wibble]"),
    ("[run]\nscenario zeno\n", 2, "expected 'key = value', got 'scenario zeno'"),
    ("scenario = zeno\n", 1, "key outside any [section]"),
    ("[run]\nscenario = zeno\nwibble = 3\n", 3, "unknown key 'wibble' in section [run]"),
    ("[run]\nscenario = zeno\nseed = 1\nseed = 2\n", 4, "duplicate key 'seed' in section [run]"),
    ("[run]\nseed = 1\n", None, "missing required key 'scenario' in section [run]"),
    (
        "[run]\nscenario = teleport\n",
        2,
        "unknown scenario 'teleport' (choose from lindblad, chm, sse-ensemble, chain, "
        "zeno, rabi-monitor, transition, verify)",
    ),
    ("[run]\nscenario = zeno\nseed = 1.5\n", 3, "seed must be an integer, got '1.5'"),
    (_LIN + "kappa = abc\n", 4, "kappa must be a number, got 'abc'"),
    ("[run]\nscenario = lindblad\n[grid]\ndt = 0\n", 4, "dt must be positive"),
    ("[run]\nscenario = zeno\nseed = -1\n", 3, "seed must be non-negative"),
    (_ZENO + "[sse]\nn_traj = 10\n", 4, "key 'n_traj' does not apply to scenario 'zeno'"),
    (
        _LIN + "preset = two-level\na = 1 0 ; 0 -1\n",
        None,
        "give either a preset or explicit matrices, not both",
    ),
    (_LIN + "preset = four-level\n", 4, "unknown preset 'four-level' (two-level, three-level)"),
    (_LIN + "h = 1 0 ; 0 -1\n", 4, "h needs a as well; give a, or drop h and use a preset"),
    (
        _LIN + "h = 0 0 0 ; 0 0 0 ; 0 0 0\na = 1 0 ; 0 -1\n",
        None,
        "H and A must have the same dimension",
    ),
    (
        _LIN + "preset = three-level\ndim = 2\n",
        5,
        "declared dim 2 does not match matrices of dim 3",
    ),
    (_ZENO + "[zeno]\nkappa_list = 1 two\n", 4, "kappa_list must be numbers, got '1 two'"),
    (_ZENO + "[zeno]\nkappa_list = 1 0\n", 4, "kappa_list values must be positive"),
    (_ZENO + "[zeno]\nkappa_list = 2 1\n", 4, "kappa_list must be sorted ascending"),
    (
        "[run]\nscenario = transition\n[transition]\ninitial = sideways\n",
        4,
        "initial must be 'ground' or 'excited'",
    ),
    (
        "[run]\nscenario = chm\n[grid]\nt0 = 7\ndt = 0.5\nn_steps = 99\n"
        "[chm]\nrecord_file = r.csv\n",
        4,
        "key 't0' does not apply with record_file: the record's t column sets the grid",
    ),
    (
        "[run]\nscenario = transition\n[transition]\nthreshold_fraction = -0.25\n",
        4,
        "threshold_fraction must be non-negative",
    ),
    (
        "[run]\nscenario = rabi-monitor\n[rabi]\nmax_offset_bins = -1\n",
        4,
        "max_offset_bins must be non-negative",
    ),
    (
        "[run]\nscenario = chm\n[chm]\nrecord_value = -3\nrecord_file = r.csv\n",
        4,
        "key 'record_value' does not apply with record_file: the record's a column sets the readouts",
    ),
    (
        "[run]\nscenario = chm\n[chm]\nrecord_file = r.csv\nrecord_value = -3\n",
        5,
        "key 'record_value' does not apply with record_file: the record's a column sets the readouts",
    ),
    ("[run]\nscenario = rabi-monitor\n[model]\nrabi = -1\n", 4, "rabi must be positive"),
    ("[run]\nscenario = transition\n[model]\nrabi = -1\n", 4, "rabi must be non-negative"),
    # the background band would hold no bin outside the line core; the
    # trajectory need not run to know that
    (
        "[run]\nscenario = rabi-monitor\n[rabi]\nband_bins = 3\n",
        4,
        "[rabi] band_bins = 3 must exceed LINE_CORE_BINS = 3, "
        "the line-core bins left out of the background band",
    ),
    (
        "[run]\nscenario = rabi-monitor\n[rabi]\nband_bins = 1\nsearch_bins = 1\n",
        4,
        "[rabi] band_bins = 1 must exceed LINE_CORE_BINS = 3, "
        "the line-core bins left out of the background band",
    ),
    # 1 - collapse_threshold <= 0: every chain collapses at its first shot
    (
        "[run]\nscenario = chain\n[chain]\ncollapse_threshold = 1\n",
        4,
        "[chain] collapse_threshold = 1 must be below 1, "
        "or every chain reads as collapsed at its first shot",
    ),
    # kappa * (2||A||)^2 * dt above the SSE step guard, in each scenario that
    # steps the SSE on its [grid] dt; the line is that of dt when the config
    # sets it, else that of kappa, else that of the key that sets A
    (
        "[run]\nscenario = sse-ensemble\n[model]\nkappa = 40\n",
        4,
        "[model] kappa = 40.0 and [grid] dt = 0.001 give kappa * (2||A||)^2 * dt = 0.16 "
        "with ||A|| = 1, above the SSE step's STEP_GUARD = 0.1; reduce dt or kappa",
    ),
    (
        "[run]\nscenario = sse-ensemble\n[model]\npreset = three-level\n[grid]\ndt = 0.01\n",
        6,
        "[model] kappa = 0.5 and [grid] dt = 0.01 give kappa * (2||A||)^2 * dt = 0.18 "
        "with ||A|| = 3, above the SSE step's STEP_GUARD = 0.1; reduce dt or kappa",
    ),
    (
        "[run]\nscenario = rabi-monitor\n[model]\nkappa = 30\n",
        4,
        "[model] kappa = 30.0 and [grid] dt = 0.001 give kappa * (2||A||)^2 * dt = 0.12 "
        "with ||A|| = 1, above the SSE step's STEP_GUARD = 0.1; reduce dt or kappa",
    ),
    (
        "[run]\nscenario = transition\n[model]\nlevel_splitting = 6\n",
        4,
        "[model] kappa = 4.0 and [grid] dt = 0.001 give kappa * (2||A||)^2 * dt = 0.144 "
        "with ||A|| = 3, above the SSE step's STEP_GUARD = 0.1; reduce dt or kappa",
    ),
]


@pytest.mark.parametrize("text,line,message", INVALID_CONFIGS)
def test_invalid_config_message(text, line, message):
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert exc.value.line == line
    assert str(exc.value) == (message if line is None else f"line {line}: {message}")


def _library_step_guard_passes(scenario, kappa, dt, norm):
    """Whether sse._guard, which every SSE run calls before its first step,
    passes the model that the scenario runs."""
    if scenario == "sse-ensemble":
        a = HermitianOperator(np.diag([norm, -0.5 * norm]))
        model = MonitoringModel(pauli_x(), a, kappa)
    else:
        model = DrivenTwoLevel(2.0 * norm, 1.0, kappa).monitoring_model()
    try:
        _guard(model, dt)
    except ValidationError:
        return False
    return True


# kappa is drawn at the guard's edge, up to two ulps either side of it
@pytest.mark.parametrize("scenario", ["sse-ensemble", "rabi-monitor", "transition"])
@given(dt=st.floats(1e-5, 1e-2), norm=st.floats(0.1, 10.0), ulps=st.integers(-2, 2))
@settings(max_examples=60, deadline=None)
def test_parse_time_step_guard_is_the_library_guard(scenario, dt, norm, ulps):
    kappa = STEP_GUARD / ((2.0 * norm) ** 2 * dt)
    for _ in range(abs(ulps)):
        kappa = float(np.nextafter(kappa, np.inf if ulps > 0 else 0.0))
    if scenario == "sse-ensemble":
        model = f"a = {norm!r} 0 ; 0 {-0.5 * norm!r}\nkappa = {kappa!r}\n"
    else:
        model = f"level_splitting = {2.0 * norm!r}\nkappa = {kappa!r}\n"
    text = f"[run]\nscenario = {scenario}\n[model]\n{model}[grid]\ndt = {dt!r}\n"
    try:
        parse_config(text)
        parsed = True
    except ConfigError as exc:
        assert "STEP_GUARD" in str(exc)
        parsed = False
    assert parsed == _library_step_guard_passes(scenario, kappa, dt, norm)


# every key that converts to float, with a scenario it applies to
FLOAT_KEYS = [
    ("model", "kappa", "lindblad"),
    ("model", "level_splitting", "zeno"),
    ("model", "rabi", "zeno"),
    ("grid", "t0", "lindblad"),
    ("grid", "dt", "lindblad"),
    ("chm", "record_value", "chm"),
    ("chain", "strength", "chain"),
    ("chain", "collapse_threshold", "chain"),
    ("transition", "smoothing_window", "transition"),
    ("transition", "threshold_fraction", "transition"),
    ("zeno", "kappa_list", "zeno"),
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section,key,scenario", FLOAT_KEYS)
def test_non_finite_number_names_key_and_line(section, key, scenario, value):
    text = f"[run]\nscenario = {scenario}\n[{section}]\n{key} = {value}\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert str(exc.value) == f"line 4: {key} must be finite, got {value!r}"


def test_non_finite_list_entry_is_rejected():
    with pytest.raises(ConfigError, match=r"^line 4: kappa_list must be finite, got '1 nan'$"):
        parse_config("[run]\nscenario = zeno\n[zeno]\nkappa_list = 1 nan\n")


# a non-finite entry of each [model] matrix or state key, on line 4
NON_FINITE_ENTRIES = [
    ("a", "a = {} 0 ; 0 1"),
    ("h", "h = 0 {} ; {} 0\na = 1 0 ; 0 -1"),
    ("psi0", "psi0 = 1 {}"),
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1+infi", "nani"])
@pytest.mark.parametrize("key,body", NON_FINITE_ENTRIES)
def test_non_finite_entry_names_key_and_line(key, body, value):
    with pytest.raises(ConfigError) as exc:
        parse_config(_LIN + body.format(value, value) + "\n")
    assert str(exc.value) == f"line 4: {key} must be finite, got {value!r}"


def test_zeno_rejects_model_kappa():
    # the scan takes its strengths from [zeno] kappa_list only
    with pytest.raises(ConfigError) as exc:
        parse_config("[run]\nscenario = zeno\n[model]\nrabi = 1.0\nkappa = 0.5\n")
    assert str(exc.value) == "line 5: key 'kappa' does not apply to scenario 'zeno'"


@pytest.mark.parametrize("scenario", ["rabi-monitor", "transition"])
def test_driven_runs_reject_grid_t0(scenario):
    # both runs build their grid from t = 0; a t0 they would ignore is an error
    with pytest.raises(ConfigError) as exc:
        parse_config(f"[run]\nscenario = {scenario}\n[grid]\ndt = 0.002\nt0 = 5.0\n")
    assert str(exc.value) == f"line 5: key 't0' does not apply to scenario '{scenario}'"

_DEFAULTS = {
    "seed": 0,
    "out": "",
    "h": None,
    "a": None,
    "kappa": 0.5,
    "psi0": None,
    "level_splitting": 2.0,
    "rabi": 1.0,
    "t0": 0.0,
    "dt": None,
    "n_steps": None,
    "record_value": 1.0,
    "record_file": None,
    "n_traj": 2000,
    "zeno_kappas": (0.1, 1.0, 10.0, 100.0),
    "zeno_n_traj": 400,
    "strength": 0.1,
    "n_shots": 500,
    "n_chains": 1,
    "collapse_threshold": 1e-4,
    "search_bins": 8,
    "band_bins": 25,
    "max_offset_bins": 2,
    "smoothing_window": None,
    "threshold_fraction": 0.25,
    "initial": "ground",
}
_TWO_LEVEL = {"h": [[0, 1], [1, 0]], "a": [[1, 0], [0, -1]], "psi0": [1, 0]}
_ZEROS3 = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]

# (config text, the values that differ from _DEFAULTS, raw echo or None for
# the bare [run] section)
RESOLVED_CONFIGS = [
    ("[run]\nscenario = lindblad\n", dict(_TWO_LEVEL, dt=0.01, n_steps=200), None),
    ("[run]\nscenario = chm\n", dict(_TWO_LEVEL, dt=0.05, n_steps=40), None),
    ("[run]\nscenario = sse-ensemble\n", dict(_TWO_LEVEL, dt=1e-3, n_steps=2000), None),
    ("[run]\nscenario = chain\n", dict(_TWO_LEVEL, psi0=[1 / np.sqrt(2)] * 2), None),
    ("[run]\nscenario = zeno\n", {}, None),
    ("[run]\nscenario = rabi-monitor\n", {"kappa": 0.04, "dt": 1e-3, "n_steps": 100_000}, None),
    ("[run]\nscenario = transition\n", {"kappa": 4.0, "dt": 1e-3, "n_steps": 30_000}, None),
    # an undriven transition monitor is a valid run; zeno and rabi-monitor reject rabi = 0
    (
        "[run]\nscenario = transition\n[model]\nrabi = 0\n",
        {"kappa": 4.0, "dt": 1e-3, "n_steps": 30_000, "rabi": 0.0},
        {"run": {"scenario": "transition"}, "model": {"rabi": "0"}},
    ),
    ("[run]\nscenario = verify\n", {}, None),
    (
        "[run]\nscenario = chain\nseed = 3\nout = runs/c\n[model]\ndim = 3\n"
        "a = 1 0 0 ; 0 0 0 ; 0 0 -1\npsi0 = basis1\n[chain]\nstrength = 0.05\n"
        "n_shots = 40\nn_chains = 7\ncollapse_threshold = 0.001\n",
        {
            "seed": 3,
            "out": "runs/c",
            "h": _ZEROS3,
            "a": [[1, 0, 0], [0, 0, 0], [0, 0, -1]],
            "psi0": [0, 1, 0],
            "strength": 0.05,
            "n_shots": 40,
            "n_chains": 7,
            "collapse_threshold": 1e-3,
        },
        {
            "run": {"scenario": "chain", "seed": "3", "out": "runs/c"},
            "model": {"dim": "3", "a": "1 0 0 ; 0 0 0 ; 0 0 -1", "psi0": "basis1"},
            "chain": {
                "strength": "0.05",
                "n_shots": "40",
                "n_chains": "7",
                "collapse_threshold": "0.001",
            },
        },
    ),
    (
        "[run]\nscenario = transition\n[model]\nlevel_splitting = 1.5\nrabi = 0.5\nkappa = 2\n"
        "[grid]\ndt = 0.002\nn_steps = 100\n[transition]\ninitial = excited\n"
        "smoothing_window = 0.25\nthreshold_fraction = 0.3\n",
        {
            "kappa": 2.0,
            "level_splitting": 1.5,
            "rabi": 0.5,
            "dt": 0.002,
            "n_steps": 100,
            "smoothing_window": 0.25,
            "threshold_fraction": 0.3,
            "initial": "excited",
        },
        {
            "run": {"scenario": "transition"},
            "model": {"level_splitting": "1.5", "rabi": "0.5", "kappa": "2"},
            "grid": {"dt": "0.002", "n_steps": "100"},
            "transition": {
                "initial": "excited",
                "smoothing_window": "0.25",
                "threshold_fraction": "0.3",
            },
        },
    ),
    (
        "[run]\nscenario = zeno\nseed = 9\n[zeno]\nkappa_list = 0.5 2 8\nn_traj = 64\n",
        {"seed": 9, "zeno_kappas": (0.5, 2.0, 8.0), "zeno_n_traj": 64},
        {
            "run": {"scenario": "zeno", "seed": "9"},
            "zeno": {"kappa_list": "0.5 2 8", "n_traj": "64"},
        },
    ),
    (
        "[run]\nscenario = chm\n[model]\npreset = Three-Level\nkappa = 0.25\npsi0 = plus\n"
        "[chm]\nrecord_value = 0.5\n",
        {
            "h": _ZEROS3,
            "a": [[0, 0, 0], [0, 1, 0], [0, 0, 3]],
            "psi0": [1 / np.sqrt(3)] * 3,
            "kappa": 0.25,
            "dt": 0.05,
            "n_steps": 40,
            "record_value": 0.5,
        },
        {
            "run": {"scenario": "chm"},
            "model": {"preset": "Three-Level", "kappa": "0.25", "psi0": "plus"},
            "chm": {"record_value": "0.5"},
        },
    ),
]


@pytest.mark.parametrize("text,changed,raw", RESOLVED_CONFIGS)
def test_resolved_config_values(text, changed, raw):
    cfg = parse_config(text)
    scenario = text.split("scenario = ")[1].split("\n")[0]
    assert cfg.scenario == scenario
    assert cfg.raw == (raw if raw is not None else {"run": {"scenario": scenario}})
    expected = dict(_DEFAULTS, **changed)
    got = {name: getattr(cfg, name) for name in expected}
    for name in ("h", "a"):
        got[name] = None if got[name] is None else got[name].entries.tolist()
    got["psi0"] = None if cfg.psi0 is None else cfg.psi0.amplitudes.tolist()
    assert got == expected
    scalars = [name for name in expected if name not in ("h", "a", "psi0")]
    assert {n: type(got[n]) for n in scalars} == {n: type(expected[n]) for n in scalars}

def test_help_lists_every_key(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for section, key in KEYS:
        assert f"[{section}] {key}" in text
    assert "[model] kappa = lindblad: 0.5, chm: 0.5," in text
    assert "[zeno] kappa_list = 0.1 1.0 10.0 100.0  (zeno)" in text

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

    def test_chm_record_file_with_grid_exit_code(self, tmp_path, capsys):
        rec_path = tmp_path / "rec.csv"
        rec_path.write_text("t,a\n0.05,1\n0.15,0.5\n", encoding="utf-8")
        text = f"[run]\nscenario = chm\n[chm]\nrecord_file = {rec_path}\n[grid]\ndt = 0.5\n"
        rc, out = run_cli(tmp_path, "chm_grid", text)
        assert rc == 1
        assert not out.exists()
        assert "line 6: key 'dt' does not apply with record_file" in capsys.readouterr().err

    def test_chm_single_row_record_file_exit_code(self, tmp_path, capsys):
        # [grid] is rejected next to record_file, so the fix is a second row
        rec_path = tmp_path / "rec.csv"
        rec_path.write_text("t,a\n0.05,1\n", encoding="utf-8")
        text = f"[run]\nscenario = chm\n[chm]\nrecord_file = {rec_path}\n"
        rc, _ = run_cli(tmp_path, "chm_one_row", text)
        assert rc == 1
        err = capsys.readouterr().err
        assert "declared dt" in err
        assert "give at least two rows, whose t spacing sets dt" in err

    def test_chm_record_file_with_record_value_exit_code(self, tmp_path, capsys):
        rec_path = tmp_path / "rec.csv"
        rec_path.write_text("t,a\n0.05,1\n0.15,0.5\n", encoding="utf-8")
        text = f"[run]\nscenario = chm\n[chm]\nrecord_file = {rec_path}\nrecord_value = -3\n"
        rc, out = run_cli(tmp_path, "chm_value", text)
        assert rc == 1
        assert not out.exists()
        assert "line 5: key 'record_value' does not apply with record_file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scenario,sign",
        [("zeno", "positive"), ("rabi-monitor", "positive"), ("transition", "non-negative")],
    )
    def test_negative_rabi_exit_code(self, tmp_path, capsys, scenario, sign):
        rc, out = run_cli(tmp_path, scenario, f"[run]\nscenario = {scenario}\n[model]\nrabi = -1\n")
        assert rc == 1
        assert not out.exists()
        assert f"line 4: rabi must be {sign}" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario", ["zeno", "rabi-monitor"])
    def test_zero_rabi_exit_code(self, tmp_path, capsys, scenario):
        # the zeno scan ends at pi/rabi and the Rabi monitor looks for a line
        # at rabi, so both need a drive; it is rejected before any output
        text = f"[run]\nscenario = {scenario}\n[model]\nrabi = 0\n"
        rc, out = run_cli(tmp_path, scenario, text)
        assert rc == 1
        assert not out.exists()
        assert "line 4: rabi must be positive" in capsys.readouterr().err

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

    def test_non_finite_smoothing_window_exit_code(self, tmp_path, capsys):
        text = "[run]\nscenario = transition\n[transition]\nsmoothing_window = nan\n"
        rc, out = run_cli(tmp_path, "nanwin", text)
        assert rc == 1
        assert "line 4: smoothing_window must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key,body", NON_FINITE_ENTRIES)
    def test_non_finite_entry_exit_code(self, tmp_path, capsys, key, body, value):
        rc, out = run_cli(tmp_path, f"{key}{value}", _LIN + body.format(value, value) + "\n")
        assert rc == 1
        assert f"line 4: {key} must be finite, got {value!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file(self):
        assert main(["--config", "/nonexistent/x.cfg", "--quiet"]) == 1

    @pytest.mark.parametrize("sub", ["", "deeper"])
    def test_out_through_an_existing_file_exit_code(self, tmp_path, capsys, sub):
        cfg, blocker = tmp_path / "lin.cfg", tmp_path / "taken"
        cfg.write_text(_LIN + "[grid]\ndt = 0.01\nn_steps = 5\n", encoding="utf-8")
        blocker.write_text("not a directory\n", encoding="utf-8")
        out = blocker / sub if sub else blocker
        assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot create output directory {out}: ")
        assert blocker.read_text(encoding="utf-8") == "not a directory\n"

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

    def test_summary_lists_only_the_tables_of_its_run(self, tmp_path):
        # a transition run into a rabi-monitor run's directory writes
        # record.csv alone; spectrum.csv is left from the earlier run
        cfg, out = tmp_path / "run.cfg", tmp_path / "shared"
        rabi = "[run]\nscenario = rabi-monitor\nseed = 1\n[model]\nkappa = 0.05\n"
        transition = "[run]\nscenario = transition\nseed = 10\n[model]\nkappa = 4.0\n"
        runs = [(rabi, 20000, ["record.csv", "spectrum.csv"]), (transition, 5000, ["record.csv"])]
        for text, n_steps, outputs in runs:
            cfg.write_text(f"{text}[grid]\ndt = 0.001\nn_steps = {n_steps}\n", encoding="utf-8")
            assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 0
            assert json.loads((out / "summary.json").read_text())["outputs"] == outputs
        assert (out / "spectrum.csv").exists()

    def test_a_failed_run_leaves_no_summary(self, tmp_path):
        # the second run's dt trips the positivity abort; the first run's
        # summary must not stay behind as if it were the second's
        cfg, out = tmp_path / "run.cfg", tmp_path / "shared"
        args = ["--config", str(cfg), "--out", str(out), "--quiet"]
        cfg.write_text(_LIN + "[grid]\ndt = 0.01\nn_steps = 20\n", encoding="utf-8")
        assert main(args) == 0
        first = (out / "summary.json").read_bytes()
        cfg.write_text(_LIN + "kappa = 100\n[grid]\ndt = 0.05\nn_steps = 20\n", encoding="utf-8")
        assert main(args) == 2
        assert not (out / "summary.json").exists()
        # and a successful run writes the same summary as into a fresh directory
        cfg.write_text(_LIN + "[grid]\ndt = 0.01\nn_steps = 20\n", encoding="utf-8")
        assert main(args) == 0
        assert (out / "summary.json").read_bytes() == first

    def test_positivity_window_is_a_numerical_failure(self, tmp_path, capsys):
        # an eigenvalue of -7.5e-7 after one step: below DensityMatrix's
        # -1e-9, so the history names the step and the dt to reduce
        text = _LIN + "a = 1 0 ; 0 -1\npsi0 = plus\nkappa = 139.264728\n[grid]\ndt = 0.01\nn_steps = 1\n"
        rc, out = run_cli(tmp_path, "window", text)
        assert rc == 2
        err = capsys.readouterr().err
        assert "positivity violated at step 1" in err and "< -1e-09" in err and "dt=0.01" in err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize(
        "error,code", [(IntegrationError("stub diverged"), 2), (ValidationError("stub rejected"), 1)]
    )
    def test_a_run_failing_after_its_first_table_leaves_no_summary(
        self, tmp_path, monkeypatch, error, code
    ):
        cfg, out = tmp_path / "run.cfg", tmp_path / "shared"
        args = ["--config", str(cfg), "--out", str(out), "--quiet"]
        cfg.write_text(_LIN + "[grid]\ndt = 0.01\nn_steps = 20\n", encoding="utf-8")
        assert main(args) == 0

        def stub(cfg, write, workers, quiet):
            write("first.csv", ["x"], [np.arange(3)])
            raise error

        monkeypatch.setitem(cli._RUNNERS, "lindblad", stub)
        assert main(args) == code
        assert (out / "first.csv").exists() and not (out / "summary.json").exists()

    def test_failed_checks_still_write_their_summary(self, tmp_path, monkeypatch):
        # verify's exit 2 reports a finished run whose checks failed
        cfg, out = tmp_path / "run.cfg", tmp_path / "checks"
        cfg.write_text(_LIN + "[grid]\ndt = 0.01\nn_steps = 20\n", encoding="utf-8")
        monkeypatch.setitem(cli._RUNNERS, "lindblad", lambda *args: {"n_failed": 1})
        assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 2
        assert json.loads((out / "summary.json").read_text())["headline"] == {"n_failed": 1}

    def test_summary_that_cannot_be_removed_exit_code(self, tmp_path, capsys):
        cfg, out = tmp_path / "lin.cfg", tmp_path / "out"
        cfg.write_text(_LIN + "[grid]\ndt = 0.01\nn_steps = 5\n", encoding="utf-8")
        (out / "summary.json").mkdir(parents=True)
        assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot remove {out / 'summary.json'}: ")
        assert sorted(p.name for p in out.iterdir()) == ["summary.json"]


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

    def test_byte_identical_across_workers(self, tmp_path, counted_pools):
        # 260 trajectories: five chunks, the last partial, two shares at 3 workers
        text = SMALL_SSE.replace("n_traj = 80", "n_traj = 260")
        rc1, out1 = run_cli(tmp_path, "w1", text, "--workers", "1")
        rc2, out2 = run_cli(tmp_path, "w3", text, "--workers", "3")
        assert counted_pools == [[2, 2]]
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


def _per_node_ensemble_csv(path, text):
    """ensemble.csv and max_trace_distance of an sse-ensemble config by one
    DensityMatrix, one trace_distance and one tr(A M) per node, frozen here
    so that the stacked pass over the mean states is held to it."""
    cfg = parse_config(text)
    model = MonitoringModel(cfg.h, cfg.a, cfg.kappa)
    rho_sum = ensemble_accumulate(model, cfg.psi0, cfg.grid, cfg.n_traj, cfg.seed)
    ref = integrate_lindblad(model, DensityMatrix.from_state(cfg.psi0), cfg.grid)
    expects, dists = [], []
    for s, r in zip(rho_sum, ref):
        mean = DensityMatrix(0.5 * (s + s.conj().T) / cfg.n_traj)
        dists.append(trace_distance(mean, r))
        expects.append(float(np.trace(cfg.a.entries @ mean.entries).real))
    header = ["t", "expect_A", "trace_distance_lindblad"]
    cli._write_csv(path, header, [cfg.grid.times(), expects, dists])
    return max(dists)


class TestEnsembleAgainstMaster:
    # the three-level run starts in |+>: |0> is an eigenstate of its A
    @pytest.mark.parametrize("model", ["two-level", "three-level\npsi0 = plus"])
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_csv_is_the_per_node_loop(self, tmp_path, model, workers, counted_pools):
        # 260 trajectories: five chunks, the last partial, two shares at 2 workers
        text = SMALL_SSE.replace("two-level", model).replace("n_traj = 80", "n_traj = 260")
        rc, out = run_cli(tmp_path, model[:5], text, "--workers", workers)
        assert rc == 0
        assert counted_pools == ([[2, 2]] if workers == "2" else [])
        worst = _per_node_ensemble_csv(tmp_path / "per_node.csv", text)
        assert (out / "ensemble.csv").read_bytes() == (tmp_path / "per_node.csv").read_bytes()
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["headline"]["max_trace_distance"] == worst


# One fresh interpreter: the pytest process has loaded scipy and the process
# pool already. Prints, per stage, [stage, exit code, whether scipy is loaded
# after it, whether concurrent.futures.process is, the loaded qmeas modules].
_STARTUP_PROBE = """\
import json, sys
def loaded():
    qmeas_modules = sorted(m[6:] for m in sys.modules if m.startswith("qmeas."))
    return ["scipy" in sys.modules, "concurrent.futures.process" in sys.modules, qmeas_modules]
import qmeas
stages = [["import qmeas", 0, *loaded()]]
from qmeas import cli
stages.append(["import qmeas.cli", 0, *loaded()])
for name, cfg in json.loads(sys.argv[1]):
    rc = cli.main(["--config", cfg, "--out", cfg + ".out", "--quiet", "--workers", "1"])
    stages.append([name, rc, *loaded()])
print(json.dumps(stages))
"""

# every scenario but verify; zeno's exact propagator exp(L t) runs the
# package's own matrix exponential, so it loads no scipy either
_STARTUP_CONFIGS = {
    "lindblad": "[run]\nscenario = lindblad\n[grid]\ndt = 0.01\nn_steps = 20\n",
    "chm": "[run]\nscenario = chm\n",
    "sse-ensemble": SMALL_SSE.replace("n_steps = 300", "n_steps = 50").replace(
        "n_traj = 80", "n_traj = 8"
    ),
    "chain": "[run]\nscenario = chain\n[chain]\nn_shots = 20\nn_chains = 10\n",
    "rabi-monitor": (
        "[run]\nscenario = rabi-monitor\nseed = 1\n[model]\nkappa = 0.05\n"
        "[grid]\ndt = 0.001\nn_steps = 20000\n"
    ),
    "transition": (
        "[run]\nscenario = transition\nseed = 10\n[model]\nkappa = 4.0\n"
        "[grid]\ndt = 0.001\nn_steps = 2000\n"
    ),
    "zeno": SMALL_ZENO.replace("kappa_list = 0.5 2.0", "kappa_list = 2.0"),
}

# the qmeas modules loaded by import qmeas.cli, and those each scenario adds;
# verify loads for scenario = verify alone
_CLI_MODULES = {"cli", "config", "errors", "hilbert"}
_DRIVEN_MODULES = {"experiments", "sse", "lindblad", "readout"}
_SCENARIO_MODULES = {
    "lindblad": {"lindblad", "readout"},
    "chm": {"chm", "lindblad", "readout"},
    "sse-ensemble": {"sse", "lindblad", "readout"},
    "chain": {"chain", "sse", "lindblad", "readout"},
    "rabi-monitor": _DRIVEN_MODULES,
    "transition": _DRIVEN_MODULES,
    "zeno": _DRIVEN_MODULES,
}


def _startup_stages(tmp_path, names):
    """The probe's stages for the named startup configs, run in order in one
    fresh interpreter."""
    cases = []
    for name in names:
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(_STARTUP_CONFIGS[name], encoding="utf-8")
        cases.append([name, str(cfg)])
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP_PROBE, json.dumps(cases)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestStartup:
    def test_no_stage_loads_scipy(self, tmp_path):
        stages = _startup_stages(tmp_path, _STARTUP_CONFIGS)
        names = ["import qmeas", "import qmeas.cli", *_STARTUP_CONFIGS]
        # no stage runs at more than one worker, so none starts a pool
        assert [stage[:4] for stage in stages] == [[name, 0, False, False] for name in names]

    @pytest.mark.parametrize("name", list(_STARTUP_CONFIGS))
    def test_a_run_loads_only_its_scenario_modules(self, tmp_path, name):
        stages = _startup_stages(tmp_path, [name])
        assert [stage[4] for stage in stages] == [
            [],  # import qmeas loads no numerical module
            sorted(_CLI_MODULES),
            sorted(_CLI_MODULES | _SCENARIO_MODULES[name]),
        ]


class TestWorkersResolution:
    def test_env_fallback(self, monkeypatch):
        from qmeas.cli import _resolve_workers

        monkeypatch.setenv("QMEAS_WORKERS", "5")
        assert _resolve_workers(None) == 5
        assert _resolve_workers(2) == 2  # flag wins over env
        monkeypatch.setenv("QMEAS_WORKERS", "many")
        with pytest.raises(ConfigError):
            _resolve_workers(None)

    def test_default_is_the_cpus_this_process_may_use(self, monkeypatch):
        from qmeas.cli import _resolve_workers

        monkeypatch.delenv("QMEAS_WORKERS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert _resolve_workers(None) == 1  # as under taskset -c 0 on a larger host
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert _resolve_workers(None) == 8  # platforms without affinity

    def test_verify_scenario_wiring(self, tmp_path, monkeypatch):
        from qmeas import cli as cli_mod
        from qmeas import verify
        from qmeas.verify import CheckResult

        calls = [
            CheckResult("alpha", True, "ok"),
            CheckResult("beta", False, "off by 1"),
        ]
        monkeypatch.setattr(verify, "run_all_checks", lambda: calls)
        cfg = tmp_path / "v.cfg"
        cfg.write_text("[run]\nscenario = verify\n", encoding="utf-8")
        out = tmp_path / "vout"
        rc = cli_mod.main(["--config", str(cfg), "--out", str(out), "--quiet"])
        assert rc == 2  # a failing check is a numerical failure
        rows = (out / "checks.csv").read_text().splitlines()
        assert rows[1].startswith("alpha,pass") and rows[2].startswith("beta,fail")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["headline"]["failed"] == ["beta"]

        monkeypatch.setattr(verify, "run_all_checks", lambda: calls[:1])
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

    def test_empty_background_band_is_validation_error(self, tmp_path, capsys):
        # frozen regime: band_bins = 3 leaves no bin outside the line core,
        # which read as a detected line with no power ratio; the config alone
        # says so, so the run stops before it makes its output directory
        text = (
            "[run]\nscenario = rabi-monitor\nseed = 1\n[model]\nkappa = 10\n"
            "[grid]\nn_steps = 20000\n[rabi]\nband_bins = 3\nsearch_bins = 1\n"
        )
        rc, out = run_cli(tmp_path, "emptyband", text)
        assert rc == 1
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: line 9: [rabi] band_bins = 3 ")

    def test_collapse_threshold_of_one_is_rejected_at_parse_time(self, tmp_path, capsys):
        # the library guard (0, 1) stays in chain._check_chain; the config
        # alone says so here, with its line, before the run makes its output
        text = "[run]\nscenario = chain\nseed = 1\n[chain]\nn_shots = 5\ncollapse_threshold = 1\n"
        rc, out = run_cli(tmp_path, "collapse", text)
        assert rc == 1
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "error: line 6: [chain] collapse_threshold = 1 must be below 1, "
            "or every chain reads as collapsed at its first shot"
        ]

    def test_step_guard_is_rejected_at_parse_time(self, tmp_path, capsys):
        # the library guard stays in sse._guard; the config alone says so
        # here, with its line, before the run makes its output
        rc, out = run_cli(tmp_path, "guard", "[run]\nscenario = sse-ensemble\n[model]\nkappa = 40\n")
        assert rc == 1
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "error: line 4: [model] kappa = 40.0 and [grid] dt = 0.001 give kappa * (2||A||)^2 * dt "
            "= 0.16 with ||A|| = 1, above the SSE step's STEP_GUARD = 0.1; reduce dt or kappa"
        ]

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


def _format_writer(path, header, columns, slice_rows=4096):
    """The str.format writer that the printf-style slices replaced: one
    template per table, 4096 rows per slice whatever the width. Kept as the
    reference for the writer's bytes."""
    blocks = [np.asarray(c) for c in columns]
    blocks = [c[:, None] if c.ndim == 1 else c for c in blocks]
    kinds = [c.dtype.kind for c in blocks for _ in range(c.shape[1])]
    template = ",".join("{:.17g}" if k in "biuf" else "{}" for k in kinds) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for lo in range(0, len(blocks[0]), slice_rows):
            cols = [col for c in blocks for col in c[lo : lo + slice_rows].T.tolist()]
            f.write("".join(template.format(*row) for row in zip(*cols)))


_ODD_FLOATS = [
    0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1e-300, 2.0**53 + 2, -2.5e17,
]
_ODD_INTS = [0, -1, 1, 2**53 + 1, -(2**53) - 1, 2**63 - 1, -(2**63)]
_ODD_OBJECTS = ["100%", "%s", "%(x)s", "%%", "{}", "{0}", "{:.3f}", "a,b", "", (1, "%s"), None]


def _odd_block(rng, kind, n, width):
    """An (n, width) block of kind f (floats), i (int64), u (uint64), b
    (bools), U (strings) or O (objects), about a third of its cells taken
    from the odd values above."""
    if kind == "f":
        block = rng.standard_normal((n, width)) * 10.0 ** rng.integers(-300, 300, (n, width))
        odd = rng.random((n, width)) < 0.3
        block[odd] = rng.choice(_ODD_FLOATS, odd.sum())
        return block
    if kind == "i":
        block = rng.integers(-(2**62), 2**62, (n, width))
        odd = rng.random((n, width)) < 0.3
        block[odd] = rng.choice(np.array(_ODD_INTS, dtype=np.int64), odd.sum())
        return block
    if kind == "u":
        return rng.choice(np.array([0, 2**53 + 1, 2**63, 2**64 - 1], dtype=np.uint64), (n, width))
    if kind == "b":
        return rng.random((n, width)) < 0.5
    texts = [f"r{k}{_ODD_OBJECTS[k % 8]}" for k in range(n)]
    if kind == "U":
        return np.array(texts, dtype=str).reshape(n, 1)
    block = np.empty((n, 1), dtype=object)
    for k in range(n):  # element by element, so a tuple stays one cell
        block[k, 0] = _ODD_OBJECTS[rng.integers(len(_ODD_OBJECTS))] if k % 2 else texts[k]
    return block


class TestCsvSlices:
    """The writer formats a slice of max(1, CSV_SLICE // width) rows with one
    printf-style call; its bytes are those of the str.format writer."""

    @settings(max_examples=60, deadline=None)
    @given(
        kinds=st.lists(st.sampled_from("fiubUO"), min_size=1, max_size=6),
        widths=st.lists(st.integers(1, 50), min_size=6, max_size=6),
        length=st.sampled_from(["zero", "one", "below", "boundary", "above", "two slices"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_bytes_as_the_format_writer(self, tmp_path_factory, kinds, widths, length, seed):
        widths = [w if k in "fiub" else 1 for k, w in zip(kinds, widths)]
        width = sum(widths)
        assert 1 <= width <= 300
        per_slice = max(1, cli.CSV_SLICE // width)
        n = {
            "zero": 0, "one": 1, "below": per_slice - 1, "boundary": per_slice,
            "above": per_slice + 1, "two slices": 2 * per_slice + 1,
        }[length]
        rng = np.random.default_rng(seed)
        blocks = [_odd_block(rng, k, n, w) for k, w in zip(kinds, widths)]
        columns = [b[:, 0] if b.shape[1] == 1 and i % 2 else b for i, b in enumerate(blocks)]
        header = [f"c{j}" for j in range(width)]
        out = tmp_path_factory.mktemp("csv")
        cli._write_csv(out / "new.csv", header, columns)
        _format_writer(out / "old.csv", header, columns)
        assert (out / "new.csv").read_bytes() == (out / "old.csv").read_bytes()

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_a_table_wider_than_a_slice(self, tmp_path, n):
        # the dim-64 lindblad table: 1 + 2 * 64**2 columns, one row per slice
        rng = np.random.default_rng(n)
        amps = _odd_block(rng, "f", n, 2 * 4096)
        header = ["t"] + [f"x{j}" for j in range(2 * 4096)]
        assert len(header) > cli.CSV_SLICE
        columns = [np.arange(n) * 0.01, amps]
        cli._write_csv(tmp_path / "new.csv", header, columns)
        _format_writer(tmp_path / "old.csv", header, columns)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_memory_does_not_grow_with_the_rows(self, tmp_path):
        # traced peak of the writer on a width-8193 table: 64 rows against 4;
        # measured 0.784 MB at both (ratio 1.000 over three runs), while the
        # row-count slices read 3.03 MB at 4 rows and 38.6 MB at 64
        import tracemalloc

        peaks = {}
        for n in (4, 64):
            rng = np.random.default_rng(n)
            columns = [np.arange(n) * 0.01, rng.standard_normal((n, 8192))]
            header = [f"c{j}" for j in range(8193)]
            tracemalloc.start()
            cli._write_csv(tmp_path / f"t{n}.csv", header, columns)
            peaks[n] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peaks[64] < 1.1 * peaks[4], peaks

    @pytest.mark.parametrize(
        "header, columns, match",
        [
            (["a", "b"], [np.zeros(3), np.zeros(4)], r"different row counts \[3, 4\]"),
            (["a", "b"], [np.zeros((3, 2)), ["x", "y"]], r"different row counts \[2, 3\]"),
            (["a", "b"], [np.zeros(3)], "2 header names for 1 columns"),
            (["a"], [np.zeros(3), np.zeros((3, 2))], "1 header names for 3 columns"),
        ],
    )
    def test_shape_guard(self, tmp_path, header, columns, match):
        with pytest.raises(ValueError, match=match):
            cli._write_csv(tmp_path / "t.csv", header, columns)
