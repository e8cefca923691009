"""Measurement readouts as piecewise-constant records on a uniform time grid.

A readout is the recorded estimate a(t) of the monitored observable over the
measurement interval. Records are piecewise constant: value ``values[k]``
applies on the whole slice [t0 + k*dt, t0 + (k+1)*dt). Probability densities
of records are taken relative to the per-step Gaussian reference measure
sqrt(2*kappa*dt/pi) * da, the unique normalization under which the
single-step measurement operators exp(-kappa*(A-a)^2*dt) resolve the
identity exactly. :class:`FuzzySlice` is the one home of that family and of
its Gauss-Hermite quadrature: a record slice of :mod:`qmeas.chm` is the
member with the record's kappa and dt, a fuzzy shot of strength s in
:mod:`qmeas.chain` the member with kappa = s and dt = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import RecordParseError, ValidationError
from .hilbert import HermitianOperator


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid: n_steps slices of width dt starting at t0."""

    t0: float
    dt: float
    n_steps: int

    def __post_init__(self):
        if not (np.isfinite(self.t0) and np.isfinite(self.dt)):
            raise ValidationError("grid times must be finite")
        if self.dt <= 0:
            raise ValidationError("dt must be positive")
        n = self.n_steps
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
            raise ValidationError(f"n_steps must be an integer >= 1, got {n!r}")

    @property
    def duration(self) -> float:
        return self.n_steps * self.dt

    def times(self) -> np.ndarray:
        """The n_steps + 1 slice boundaries, t0 ... t0 + T."""
        return self.t0 + self.dt * np.arange(self.n_steps + 1)

    def midpoints(self) -> np.ndarray:
        return self.t0 + self.dt * (np.arange(self.n_steps) + 0.5)


@dataclass(frozen=True)
class ReadoutRecord:
    """Piecewise-constant readout a(t) on a TimeGrid, in units of the
    monitored observable."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size != self.grid.n_steps:
            raise ValidationError(
                f"record must have one value per step: expected {self.grid.n_steps}, got {v.size}"
            )
        if not np.all(np.isfinite(v)):
            raise ValidationError("record values must be finite")
        v = np.ascontiguousarray(v)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class ReadoutDensity:
    """Log probability density of a record relative to the reference measure."""

    log_density: float

    def __post_init__(self):
        if not np.isfinite(self.log_density):
            raise ValidationError("log_density must be finite")


def constant_record(grid: TimeGrid, a: float) -> ReadoutRecord:
    """Record with the same value on every step."""
    if not np.isfinite(a):
        raise ValidationError("record value must be finite")
    return ReadoutRecord(grid, np.full(grid.n_steps, float(a)))


def reference_log_weight(record: ReadoutRecord, kappa: float) -> float:
    """Log of the per-step Gaussian measure normalization, summed over steps.

    Each step contributes log sqrt(2*kappa*dt/pi). With this weight the
    single-step operators R_a = exp(-kappa*(A-a)^2*dt) satisfy
    integral da * sqrt(2*kappa*dt/pi) * R_a^2 = identity exactly, which is
    what makes squared state norms genuine probability densities.
    """
    if kappa <= 0:
        raise ValidationError("kappa must be positive")
    return 0.5 * record.grid.n_steps * float(np.log(2.0 * kappa * record.grid.dt / np.pi))


class FuzzySlice:
    """R_a = exp(-kappa*(A-a)^2*dt) in the eigenbasis of A (ascending
    ``evals``, eigenvector columns ``q``), one ``eigh`` per (A, kappa, dt)."""

    def __init__(self, a_op: HermitianOperator, kappa: float, dt: float):
        self.evals, self.q = a_op.eigh()
        self.kappa, self.dt = kappa, dt

    def factor(self, a: float | np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """exp(-kappa*(a_m - a)^2*dt) per eigenvalue a_m, into ``out`` if given;
        one row per readout of an array ``a``, each the bits of its own call."""
        w = np.subtract(self.evals, np.asarray(a)[..., None], out=out)
        np.square(w, out=w)
        np.multiply(-self.kappa, w, out=w)
        np.multiply(w, self.dt, out=w)
        return np.exp(w, out=w)

    def operator(self, a: float | np.ndarray) -> np.ndarray:
        """R_a in the original basis; (..., dim, dim) for an array ``a``, each
        matrix the bits of its own scalar call."""
        return (self.q * self.factor(a)[..., None, :]) @ self.q.conj().T

    def _quadrature(self, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gauss-Hermite nodes, weights / sqrt(pi), sqrt(2*kappa*dt)*(a_m - center)."""
        center = 0.5 * (self.evals[0] + self.evals[-1])
        x, w = np.polynomial.hermite.hermgauss(order)
        return x, w / np.sqrt(np.pi), np.sqrt(2.0 * self.kappa * self.dt) * (self.evals - center)

    def completeness_defect(self, order: int) -> float:
        """Largest |quadrature of integral da sqrt(2*kappa*dt/pi) <m|R_a^2|m> - 1|;
        summed on its own, since diag(K) is the same sum in other bits."""
        x, w, b = self._quadrature(order)
        s = np.einsum("i,im->m", w, np.exp(2.0 * np.outer(x, b) - b**2))
        return float(np.max(np.abs(s - 1.0)))

    def dephasing_kernel(self, order: int) -> np.ndarray:
        """K_mn, the quadrature of integral da sqrt(2*kappa*dt/pi) <m|R_a|m><n|R_a|n>,
        which multiplies rho_mn (A eigenbasis) in the readout-averaged slice; it
        tends to exp(-(kappa/2)*(a_m-a_n)^2*dt) as the order grows."""
        x, w, b = self._quadrature(order)
        g = np.exp(np.outer(x, b) - 0.5 * b**2)  # (order, dim)
        return np.einsum("i,im,in->mn", w, g, g)


def serialize_record(record: ReadoutRecord) -> str:
    """CSV text with header ``t,a`` and one row per step midpoint."""
    lines = ["t,a"]
    for t, a in zip(record.grid.midpoints(), record.values):
        lines.append(f"{t:.17g},{a:.17g}")
    return "\n".join(lines) + "\n"


def parse_record(text: str) -> ReadoutRecord:
    """Parse the CSV form produced by :func:`serialize_record`.

    The grid is inferred from the midpoint column: dt is the spacing of the
    first two rows, so a record needs at least two, and every row must sit
    on a midpoint of that grid. Raises :class:`RecordParseError` naming the
    offending data row on malformed input, non-monotonic times or
    inconsistent spacing.
    """
    lines = [ln for ln in text.split("\n") if ln.strip() != ""]
    if not lines or lines[0].strip() != "t,a":
        raise RecordParseError("missing 't,a' header")
    ts: list[float] = []
    vs: list[float] = []
    for i, ln in enumerate(lines[1:], start=1):
        parts = ln.split(",")
        if len(parts) != 2:
            raise RecordParseError(f"expected two comma-separated fields, got {ln!r}", row=i)
        try:
            t = float(parts[0])
            a = float(parts[1])
        except ValueError:
            raise RecordParseError(f"non-numeric field in {ln!r}", row=i) from None
        if not (np.isfinite(t) and np.isfinite(a)):
            raise RecordParseError("non-finite value", row=i)
        if ts and t <= ts[-1]:
            raise RecordParseError(f"non-monotonic time {t!r} after {ts[-1]!r}", row=i)
        ts.append(t)
        vs.append(a)
    if not ts:
        raise RecordParseError("record has no data rows")

    if len(ts) == 1:
        raise RecordParseError(
            "one row has no spacing and a record takes no declared dt; give at least two rows, "
            "whose t spacing sets dt",
            row=1,
        )
    steps = np.diff(ts)
    dt = float(steps[0])
    tol = 1e-9 * max(1.0, abs(dt))
    bad = np.nonzero(np.abs(steps - dt) > tol)[0]
    if bad.size:
        raise RecordParseError(
            f"non-uniform spacing {steps[bad[0]]!r} (expected {dt!r})", row=int(bad[0]) + 2
        )
    grid = TimeGrid(t0=ts[0] - 0.5 * dt, dt=dt, n_steps=len(ts))
    # spacings each within tol of dt can still drift off the grid together
    for i, (t, m) in enumerate(zip(ts, grid.midpoints()), start=1):
        if abs(t - m) > tol:
            raise RecordParseError(
                f"time {t!r} does not sit on the inferred grid (expected midpoint {m!r})", row=i
            )
    return ReadoutRecord(grid, np.array(vs))
