"""Run configuration: flat sectioned key = value text, strictly validated.

Example::

    [run]
    scenario = zeno
    seed = 42

    [model]
    level_splitting = 2.0
    rabi = 1.0

    [zeno]
    kappa_list = 0.1 1 10 100
    n_traj = 400

Matrices are written as rows separated by ';' with complex entries like
``1+0i`` or ``0.5-0.25i`` separated by spaces. Unknown sections or keys are
rejected with the offending line number. The named presets cover the stock
scenarios so typical configs never spell out matrices.

Every key is declared once, on the :class:`RunConfig` field that stores it:
its section, the scenarios it applies to, its default, how its text is
converted and whether it must be positive. Parsing and the ``--help`` key
list both read those declarations.
"""

from __future__ import annotations

import math
import textwrap
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .errors import ConfigError, ValidationError
from .hilbert import HermitianOperator, QuantumState, basis_state, pauli_x, pauli_z, plus_state
from .readout import TimeGrid

SCENARIOS = (
    "lindblad",
    "chm",
    "sse-ensemble",
    "chain",
    "zeno",
    "rabi-monitor",
    "transition",
    "verify",
)

_ALL = frozenset(SCENARIOS)
_MATRIX_SCENARIOS = frozenset({"lindblad", "chm", "sse-ensemble", "chain"})
_DRIVEN_SCENARIOS = frozenset({"zeno", "rabi-monitor", "transition"})
_GRID_SCENARIOS = (_MATRIX_SCENARIOS | _DRIVEN_SCENARIOS) - {"zeno", "chain"}


def _convert(key: str, kind: type, text: str, line: int):
    """The value of a key's text: as given for str, an int, a finite float, or
    for tuple a space-separated list of finite, positive, ascending floats."""
    if kind is str:
        return text
    what = {int: "an integer", float: "a number", tuple: "numbers"}[kind]
    try:
        value = tuple(float(tok) for tok in text.split()) if kind is tuple else kind(text)
    except ValueError:
        raise ConfigError(f"{key} must be {what}, got {text!r}", line) from None
    if kind is int:
        return value
    if not all(map(math.isfinite, value if kind is tuple else (value,))):
        raise ConfigError(f"{key} must be finite, got {text!r}", line)
    if kind is tuple and (not value or min(value) <= 0):
        raise ConfigError(f"{key} values must be positive", line)
    if kind is tuple and any(b <= a for a, b in zip(value, value[1:])):
        raise ConfigError(f"{key} must be sorted ascending", line)
    return value


def _key(section, scenarios, default=None, kind=str, sign=None, name=None):
    """Declare the config key ``[section] name``; name defaults to the field's.

    ``scenarios`` is the set of scenarios the key applies to, or a dict that
    maps each of them to its own default; ``default`` covers the rest. ``kind``
    is the type the text converts to (see _convert), None for the keys that
    the [model] code reads itself. ``sign`` is "positive" or "non-negative".
    """
    meta = {"section": section, "name": name, "kind": kind, "sign": sign}
    meta["scenarios"] = set(scenarios)
    meta["defaults"] = scenarios if isinstance(scenarios, dict) else {}
    return field(default=default, metadata=meta)


@dataclass
class RunConfig:
    """Validated scenario configuration with all defaults resolved.

    ``h``, ``a`` and ``psi0`` hold the operators and state that the [model]
    keys resolve to; ``preset`` and ``dim`` are kept as given.
    """

    scenario: str = _key("run", _ALL, MISSING, kind=None)
    seed: int = _key("run", _ALL, 0, int, sign="non-negative")
    out: str = _key("run", _ALL, "")
    # matrix scenarios
    preset: str | None = _key("model", _MATRIX_SCENARIOS)
    dim: int | None = _key("model", _MATRIX_SCENARIOS, None, int, sign="positive")
    h: HermitianOperator | None = _key("model", _MATRIX_SCENARIOS - {"chain"}, kind=None)
    a: HermitianOperator | None = _key("model", _MATRIX_SCENARIOS, kind=None)
    kappa: float = _key(
        "model",
        {"lindblad": 0.5, "chm": 0.5, "sse-ensemble": 0.5, "rabi-monitor": 0.04, "transition": 4.0},
        0.5,
        float,
        sign="positive",
    )
    psi0: QuantumState | None = _key("model", _MATRIX_SCENARIOS, kind=None)
    # driven scenarios
    level_splitting: float = _key("model", _DRIVEN_SCENARIOS, 2.0, float, sign="positive")
    rabi: float = _key("model", _DRIVEN_SCENARIOS, 1.0, float)
    # grid; zeno picks its grid per scan point and chains are discrete
    t0: float = _key("grid", _GRID_SCENARIOS, 0.0, float)
    dt: float | None = _key(
        "grid",
        {
            "lindblad": 0.01,
            "chm": 0.05,
            "sse-ensemble": 1e-3,
            "rabi-monitor": 1e-3,
            "transition": 1e-3,
        },
        kind=float,
        sign="positive",
    )
    n_steps: int | None = _key(
        "grid",
        {
            "lindblad": 200,
            "chm": 40,
            "sse-ensemble": 2000,
            "rabi-monitor": 100_000,
            "transition": 30_000,
        },
        kind=int,
        sign="positive",
    )
    # scenario extras
    record_value: float = _key("chm", {"chm"}, 1.0, float)
    record_file: str | None = _key("chm", {"chm"})
    n_traj: int = _key("sse", {"sse-ensemble"}, 2000, int, sign="positive")
    zeno_kappas: tuple[float, ...] = _key(
        "zeno", {"zeno"}, (0.1, 1.0, 10.0, 100.0), tuple, name="kappa_list"
    )
    zeno_n_traj: int = _key("zeno", {"zeno"}, 400, int, sign="positive", name="n_traj")
    strength: float = _key("chain", {"chain"}, 0.1, float, sign="positive")
    n_shots: int = _key("chain", {"chain"}, 500, int, sign="positive")
    n_chains: int = _key("chain", {"chain"}, 1, int, sign="positive")
    collapse_threshold: float = _key("chain", {"chain"}, 1e-4, float, sign="positive")
    search_bins: int = _key("rabi", {"rabi-monitor"}, 8, int, sign="positive")
    band_bins: int = _key("rabi", {"rabi-monitor"}, 25, int, sign="positive")
    max_offset_bins: int = _key("rabi", {"rabi-monitor"}, 2, int)
    smoothing_window: float | None = _key("transition", {"transition"}, None, float, "positive")
    threshold_fraction: float = _key("transition", {"transition"}, 0.25, float)
    initial: str = _key("transition", {"transition"}, "ground")
    raw: dict[str, dict[str, str]] = field(default_factory=dict, repr=False)

    @property
    def grid(self) -> TimeGrid:
        """The [grid] time grid of the scenarios that take one."""
        return TimeGrid(t0=self.t0, dt=self.dt, n_steps=self.n_steps)


# (section, config name) -> the RunConfig field that declares the key
KEYS = {
    (f.metadata["section"], f.metadata["name"] or f.name): f
    for f in fields(RunConfig)
    if f.metadata
}
_SECTIONS = {section for section, _ in KEYS}


def _show(value) -> str:
    return " ".join(map(str, value)) if isinstance(value, tuple) else str(value)


def describe_keys() -> str:
    """A line per config key: section, name, default (per scenario where it
    differs) and, unless the key applies everywhere, its scenarios."""
    lines = []
    for (section, name), f in KEYS.items():
        scenarios, defaults = f.metadata["scenarios"], f.metadata["defaults"]
        text = f"[{section}] {name}"
        if f.default is MISSING:
            text += f" (required): {' | '.join(SCENARIOS)}"
        elif defaults:
            text += " = " + ", ".join(f"{s}: {_show(v)}" for s, v in defaults.items())
        elif f.default not in (None, ""):
            text += f" = {_show(f.default)}"
        if scenarios != _ALL and not defaults:
            text += f"  ({' '.join(s for s in SCENARIOS if s in scenarios)})"
        lines.append(textwrap.fill(text, 79, subsequent_indent="    ", break_on_hyphens=False))
    return "\n".join(lines)


def _parse_complex(token: str, line: int, key: str) -> complex:
    t = token.strip()
    # only a trailing i is the imaginary unit; the i of inf is not
    if t.endswith("i"):
        t = t[:-1] + "j"
    try:
        value = complex(t)
    except ValueError:
        raise ConfigError(f"bad complex entry {token!r} (use forms like 1+0i)", line) from None
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ConfigError(f"{key} must be finite, got {token!r}", line)
    return value


def parse_matrix(text: str, line: int, key: str) -> np.ndarray:
    rows = [r for r in text.split(";") if r.strip()]
    if not rows:
        raise ConfigError("empty matrix", line)
    data = [[_parse_complex(tok, line, key) for tok in row.split()] for row in rows]
    widths = {len(r) for r in data}
    if len(widths) != 1 or widths.pop() != len(data):
        raise ConfigError("matrix must be square (rows separated by ';')", line)
    return np.array(data, dtype=complex)


def _hermitian_from_text(text: str, line: int, name: str) -> HermitianOperator:
    m = parse_matrix(text, line, name.lower())
    defect = np.abs(m - m.conj().T)
    if defect.max() > 1e-12:
        i, j = np.unravel_index(np.argmax(defect), m.shape)
        raise ConfigError(
            f"{name} is not Hermitian: entry ({i},{j})={m[i, j]:.6g} does not "
            f"conjugate-match ({j},{i})={m[j, i]:.6g}",
            line,
        )
    try:
        return HermitianOperator(m)
    except ValidationError as exc:
        raise ConfigError(f"{name}: {exc}", line) from None


def _state_from_text(text: str, line: int, dim: int) -> QuantumState:
    named = {
        "basis0": lambda: basis_state(dim, 0),
        "basis1": lambda: basis_state(dim, 1),
        "plus": lambda: plus_state(dim),
    }
    key = text.strip().lower()
    if key in named:
        return named[key]()
    amps = np.array([_parse_complex(tok, line, "psi0") for tok in text.split()])
    if amps.size != dim:
        raise ConfigError(f"psi0 must have {dim} amplitudes, got {amps.size}", line)
    try:
        return QuantumState.from_vector(amps)
    except ValidationError as exc:
        raise ConfigError(f"psi0: {exc}", line) from None


def _read_entries(text: str) -> dict[str, dict[str, tuple[int, str]]]:
    """section -> key -> (line number, value text) of every known key."""
    entries: dict[str, dict[str, tuple[int, str]]] = {}
    section = None
    for no, raw_line in enumerate(text.split("\n"), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SECTIONS:
                raise ConfigError(f"unknown section [{section}]", no)
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", no)
        if section is None:
            raise ConfigError("key outside any [section]", no)
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower()
        if (section, key) not in KEYS:
            raise ConfigError(f"unknown key {key!r} in section [{section}]", no)
        if key in entries.setdefault(section, {}):
            raise ConfigError(f"duplicate key {key!r} in section [{section}]", no)
        entries[section][key] = (no, value)
    return entries


def _resolve_model(cfg: RunConfig, model: dict[str, tuple[int, str]]) -> None:
    """Set h, a and psi0 of a matrix scenario from its [model] entries."""
    h_text, a_text = model.get("h"), model.get("a")
    if cfg.preset is not None and (h_text or a_text):
        raise ConfigError("give either a preset or explicit matrices, not both")
    if a_text is None and h_text is not None:
        raise ConfigError("h needs a as well; give a, or drop h and use a preset", h_text[0])
    if a_text is None:
        preset = (cfg.preset or "two-level").lower()
        if preset == "two-level":
            cfg.h, cfg.a = pauli_x(), pauli_z()
        elif preset == "three-level":
            cfg.h = HermitianOperator(np.zeros((3, 3)))
            cfg.a = HermitianOperator(np.diag([0.0, 1.0, 3.0]))
        else:
            no, _ = model["preset"]
            raise ConfigError(f"unknown preset {preset!r} (two-level, three-level)", no)
    else:
        cfg.a = _hermitian_from_text(a_text[1], a_text[0], "A")
        if h_text is not None:
            cfg.h = _hermitian_from_text(h_text[1], h_text[0], "H")
        else:
            cfg.h = HermitianOperator(np.zeros((cfg.a.dim, cfg.a.dim)))
        if cfg.h.dim != cfg.a.dim:
            raise ConfigError("H and A must have the same dimension")
    dim = cfg.a.dim
    if cfg.dim is not None and cfg.dim != dim:
        raise ConfigError(
            f"declared dim {cfg.dim} does not match matrices of dim {dim}", model["dim"][0]
        )
    if "psi0" in model:
        cfg.psi0 = _state_from_text(model["psi0"][1], model["psi0"][0], dim)
    elif cfg.scenario == "chain":
        cfg.psi0 = _state_from_text("plus", 0, dim)
    else:
        cfg.psi0 = basis_state(dim, 0)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a config; raises ConfigError naming the first bad
    line. Missing optional keys get their declared defaults."""
    entries = _read_entries(text)
    run = entries.get("run", {})
    if "scenario" not in run:
        raise ConfigError("missing required key 'scenario' in section [run]")
    line, scen = run["scenario"]
    scen = scen.lower()
    if scen not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scen!r} (choose from {', '.join(SCENARIOS)})", line)

    for section, kv in entries.items():
        for key, (no, _) in kv.items():
            if scen not in KEYS[section, key].metadata["scenarios"]:
                raise ConfigError(f"key {key!r} does not apply to scenario {scen!r}", no)

    values = {}
    for (section, key), f in KEYS.items():
        meta = f.metadata
        if meta["kind"] is None:
            continue
        if key not in entries.get(section, {}):
            values[f.name] = meta["defaults"].get(scen, f.default)
            continue
        no, value = entries[section][key]
        v = _convert(key, meta["kind"], value, no)
        if meta["sign"] == "positive" and v <= 0 or meta["sign"] == "non-negative" and v < 0:
            raise ConfigError(f"{key} must be {meta['sign']}", no)
        values[f.name] = v

    raw = {s: {k: v for k, (_, v) in kv.items()} for s, kv in entries.items()}
    cfg = RunConfig(scenario=scen, raw=raw, **values)
    if scen in _MATRIX_SCENARIOS:
        _resolve_model(cfg, entries.get("model", {}))
    if cfg.initial not in ("ground", "excited"):
        no, _ = entries["transition"]["initial"]
        raise ConfigError("initial must be 'ground' or 'excited'", no)
    return cfg
