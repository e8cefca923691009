"""End-to-end energy-monitoring scenarios for a resonantly driven two-level
system.

The system has bare levels at +/- level_splitting/2 and a resonant drive of
Rabi frequency Omega; in the rotating frame at exact resonance the coherent
generator reduces to the drive term (Omega/2)*sigma_x while the continuously
measured observable remains the bare energy H0 = (level_splitting/2)*sigma_z,
which commutes with the frame rotation. Scenarios:

* Zeno scan - transfer probability at the bare flip time t = pi/Omega as a
  function of measurement strength; strong measurement freezes the drive.
* Rabi monitor - a single monitored trajectory whose readout record shows
  the coherent oscillation as a spectral line at Omega in the soft regime
  (kappa * splitting^2 < Omega) and loses it when frozen.
* Transition monitor - change-point detection of a level transition from the
  smoothed readout record.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .config import LINE_CORE_BINS
from .errors import ValidationError
from .hilbert import (
    DensityMatrix,
    HermitianOperator,
    _trace_distances,
    basis_state,
    pauli_x,
    pauli_z,
)
from .lindblad import MonitoringModel, lindblad_exact
from .readout import TimeGrid
from .sse import SseTrajectory, ensemble_sums, mean_states, simulate_trajectory


@dataclass(frozen=True)
class DrivenTwoLevel:
    """Driven two-level system under continuous energy measurement.

    level_splitting: gap between the bare levels (eigenvalues of the measured
    energy are +/- level_splitting/2). rabi: Rabi frequency of the resonant
    drive, entering the rotating-frame generator as (rabi/2)*sigma_x.
    """

    level_splitting: float
    rabi: float
    kappa: float

    def __post_init__(self):
        if not np.all(np.isfinite([self.level_splitting, self.rabi, self.kappa])):
            raise ValidationError("level_splitting, rabi and kappa must be finite; replace nan or inf")
        if self.level_splitting <= 0 or self.rabi < 0:
            raise ValidationError("level_splitting must be > 0 and rabi >= 0")
        if self.kappa <= 0:
            raise ValidationError("kappa must be positive")

    def energy_observable(self) -> HermitianOperator:
        return HermitianOperator(0.5 * self.level_splitting * pauli_z().entries)

    def drive_hamiltonian(self) -> HermitianOperator:
        return HermitianOperator(0.5 * self.rabi * pauli_x().entries)

    def monitoring_model(self) -> MonitoringModel:
        return MonitoringModel(self.drive_hamiltonian(), self.energy_observable(), self.kappa)

    lindblad_model = monitoring_model

    def soft_regime(self) -> bool:
        """kappa * splitting^2 < rabi: the record follows the Rabi oscillation."""
        return self.kappa * self.level_splitting**2 < self.rabi

    def dephasing_rate(self) -> float:
        """Coherence decay rate (kappa/2) * splitting^2 of the energy basis."""
        return 0.5 * self.kappa * self.level_splitting**2

    def ground_state(self):
        return basis_state(2, 1)

    def excited_state(self):
        return basis_state(2, 0)


@dataclass(frozen=True)
class ZenoScanResult:
    """Transfer probability at the flip time versus measurement strength.

    sse_trace_distances holds the trace distance at the flip time between
    the stochastic ensemble mean and the master-equation solution per scan
    point (NaN when the stochastic cross-check was disabled).
    """

    kappa_values: np.ndarray
    transfer_probabilities: np.ndarray
    sse_trace_distances: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.kappa_values, dtype=float)
        p = np.asarray(self.transfer_probabilities, dtype=float)
        d = np.asarray(self.sse_trace_distances, dtype=float)
        if not (k.size == p.size == d.size):
            raise ValidationError("scan result vectors must have equal length")
        if np.any((p < 0) | (p > 1)):
            raise ValidationError("transfer probabilities must lie in [0, 1]")

    def monotone_non_increasing(self) -> bool:
        """The transfer never rises with kappa (up to 1e-12)."""
        return bool(np.all(np.diff(self.transfer_probabilities) <= 1e-12))


def _scan_grid(system: DrivenTwoLevel, t_final: float) -> TimeGrid:
    # dt set by the fastest rate; keeps the stochastic step guard satisfied
    # at every kappa
    rate = 2.0 * system.dephasing_rate() + system.rabi
    dt = min(1e-3, 0.04 / rate)
    n = max(1, int(np.ceil(t_final / dt)))
    return TimeGrid(t0=0.0, dt=t_final / n, n_steps=n)


def run_zeno_scan(
    system: DrivenTwoLevel,
    kappa_list,
    n_traj: int = 0,
    seed: int = 0,
    workers: int = 1,
) -> ZenoScanResult:
    """Excited-state population at t = pi/Omega for each measurement strength.

    For each kappa the master equation is solved from the ground state with
    the drive on and the energy monitored, by its exact propagator; with
    n_traj > 0 a stochastic ensemble is run alongside and its agreement with
    the master equation is reported as a trace distance. The ensembles of all
    kappa run on one pool of ``workers`` processes (sse.ensemble_sums), each
    kappa's share of the workers in proportion to its step count, in shares
    of at least two chunks of trajectories, the longest grid first; the
    result does not depend on the worker count. The exact propagators run
    in this process while the pool steps the trajectories. The final-node
    means of all kappa are checked as one stack (sse.mean_states) and
    compared to the exact states by one trace-distance call, with the bits
    of trace_distance kappa by kappa.
    """
    kappas = np.asarray(list(kappa_list), dtype=float)
    if kappas.size == 0 or np.any(kappas <= 0):
        raise ValidationError("kappa_list must contain positive values")
    if np.any(np.diff(kappas) <= 0):
        raise ValidationError("kappa_list must be sorted ascending")
    if system.rabi <= 0:
        raise ValidationError("zeno scan needs a positive Rabi frequency")
    if n_traj < 0:
        raise ValidationError("n_traj must be >= 0; 0 skips the stochastic cross-check")
    t_flip = np.pi / system.rabi
    ensembles = []
    for kappa in kappas:
        sys_k = DrivenTwoLevel(system.level_splitting, system.rabi, float(kappa))
        grid = _scan_grid(sys_k, t_flip)
        ensembles.append((sys_k.monitoring_model(), sys_k.ground_state(), grid, n_traj, seed))

    def exact_states():
        return [lindblad_exact(m, DensityMatrix.from_state(g), t_flip) for m, g, *_ in ensembles]

    if n_traj > 0:
        # the exact propagators run while the pool steps; only the final
        # node is read, so only its projector sums are kept
        sums, exact = ensemble_sums(ensembles, workers, local=exact_states, final=True)
        means, _ = mean_states(np.concatenate(sums), n_traj)
        distances = _trace_distances(means, np.array([rho.entries for rho in exact]))
    else:
        exact = exact_states()
        distances = np.full(kappas.size, np.nan)
    transfers = np.array([rho.entries[0, 0].real for rho in exact])
    return ZenoScanResult(kappas, np.clip(transfers, 0.0, 1.0), distances)


def periodogram(values: np.ndarray, dt: float) -> np.ndarray:
    """Mean-removed periodogram: array of (frequency, power) rows up to the
    Nyquist frequency. Frequencies are ordinary (cycles per unit time)."""
    x = np.asarray(values, dtype=float)
    x = x - x.mean()
    power = np.abs(np.fft.rfft(x)) ** 2 / x.size
    freqs = np.fft.rfftfreq(x.size, dt)
    return np.stack([freqs, power], axis=1)


@dataclass(frozen=True)
class RabiLineStats:
    """Detection statistics of the Rabi line in a record periodogram."""

    peak_frequency: float
    offset_bins: int
    power_ratio: float
    detected: bool


def analyze_rabi_line(
    spectrum: np.ndarray,
    rabi: float,
    max_offset_bins: int = 2,
    search_bins: int = 8,
    band_bins: int = 25,
) -> RabiLineStats:
    """Locate the spectral peak nearest the Rabi line and grade it.

    The peak is the largest bin within ``search_bins`` of the line; its power
    is compared against the median bin of the surrounding band (``band_bins``
    on each side, with the LINE_CORE_BINS bins of the line core left out), so the test
    asks whether a discrete line stands out of the local spectral background.
    Detected means the peak sits within ``max_offset_bins`` of the line and
    carries at least 3x the background median. A band with no bin outside
    the line core (band_bins <= LINE_CORE_BINS, or a spectrum that ends
    there) raises ValidationError.
    """
    freqs = spectrum[:, 0]
    power = spectrum[:, 1]
    if len(freqs) < 2:
        raise ValidationError("spectrum too short")
    binw = freqs[1] - freqs[0]
    f_line = rabi / (2.0 * np.pi)
    i0 = int(round(f_line / binw))
    if not 1 <= i0 < len(freqs) - 1:
        raise ValidationError("Rabi line outside the resolved frequency range")
    lo = max(1, i0 - search_bins)
    hi = min(len(power) - 1, i0 + search_bins)
    peak = lo + int(np.argmax(power[lo : hi + 1]))
    band = [
        j
        for j in range(max(1, i0 - band_bins), min(len(power), i0 + band_bins + 1))
        if abs(j - i0) > LINE_CORE_BINS
    ]
    if not band:  # its median would be NaN and read as a detected line
        raise ValidationError(
            f"no background bins around the Rabi line: [rabi] band_bins = {band_bins} "
            f"must exceed LINE_CORE_BINS = {LINE_CORE_BINS}, the line-core bins left out"
        )
    background = float(np.median(power[band]))
    ratio = float(power[peak] / background) if background > 0 else np.inf
    offset = peak - i0
    detected = abs(offset) <= max_offset_bins and ratio >= 3.0
    return RabiLineStats(
        peak_frequency=float(freqs[peak]),
        offset_bins=int(offset),
        power_ratio=ratio,
        detected=detected,
    )


def _driven_trajectory(
    system: DrivenTwoLevel, t_final: float, dt: float, seed: int, initial
) -> SseTrajectory:
    """A monitored trajectory of round(t_final/dt) steps from t = 0 and the
    ground state unless ``initial`` is given."""
    grid = TimeGrid(t0=0.0, dt=dt, n_steps=max(1, int(round(t_final / dt))))
    psi0 = system.ground_state() if initial is None else initial
    return simulate_trajectory(system.monitoring_model(), psi0, grid, seed)


def run_rabi_monitor(
    system: DrivenTwoLevel, t_final: float, dt: float, seed: int
) -> tuple[SseTrajectory, np.ndarray]:
    """One monitored trajectory from the ground state plus the periodogram of
    its readout record.

    In the soft regime the record tracks the oscillating energy expectation
    and the spectrum shows a line at the Rabi frequency; outside the regime a
    warning is emitted and the line is typically absent (frozen dynamics).
    """
    if not system.soft_regime():
        warnings.warn(
            "kappa * splitting^2 >= rabi: outside the soft-measurement regime",
            RuntimeWarning,
            stacklevel=2,
        )
    traj = _driven_trajectory(system, t_final, dt, seed, None)
    spectrum = periodogram(traj.record.values, dt)
    return traj, spectrum


def moving_average(values: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average with shrinking windows at the edges."""
    if window < 1:
        raise ValidationError("window must be >= 1")
    x = np.asarray(values, dtype=float)
    c = np.concatenate([[0.0], np.cumsum(x)])
    half = window // 2
    idx = np.arange(x.size)
    lo = np.maximum(idx - half, 0)
    hi = np.minimum(idx + half + 1, x.size)
    return (c[hi] - c[lo]) / (hi - lo)


@dataclass(frozen=True)
class TransitionMonitorResult:
    """Trajectory plus change-point annotations of detected level transitions."""

    trajectory: SseTrajectory
    smoothed_record: np.ndarray
    detected_times: tuple[float, ...]
    lower_threshold: float
    upper_threshold: float
    smoothing_window: float


def detect_upward_crossings(
    times: np.ndarray, smoothed: np.ndarray, lower: float, upper: float
) -> list[float]:
    """Times at which the smoothed record first exceeds ``upper`` after
    having been below ``lower`` (hysteresis detector; re-arms on the next
    dip below ``lower``)."""
    out: list[float] = []
    armed = False
    for t, v in zip(times, smoothed):
        if v < lower:
            armed = True
        elif armed and v > upper:
            out.append(float(t))
            armed = False
    return out


def run_transition_monitor(
    system: DrivenTwoLevel,
    t_final: float,
    dt: float,
    seed: int,
    smoothing_window: float | None = None,
    threshold_fraction: float = 0.25,
    initial=None,
) -> TransitionMonitorResult:
    """Monitor a driven trajectory for upward level transitions.

    The record is smoothed with a centered moving average over
    ``smoothing_window`` (default half a Rabi period, 1/(2*Omega)); a
    transition is declared when the smoothed record crosses from below
    -threshold_fraction*splitting to above +threshold_fraction*splitting.
    Absence of detections is a valid outcome. Starts from the ground state
    unless ``initial`` is given. Unlike run_rabi_monitor it gives no warning
    outside the soft regime, where jumps between the levels show best.
    """
    traj = _driven_trajectory(system, t_final, dt, seed, initial)
    if smoothing_window is None:
        smoothing_window = 1.0 / (2.0 * system.rabi) if system.rabi > 0 else t_final / 20.0
    window = max(1, int(round(smoothing_window / dt)))
    smoothed = moving_average(traj.record.values, window)
    threshold = threshold_fraction * system.level_splitting
    times = traj.grid.midpoints()
    # detect only where the average spans a full window; the shrunken edge
    # windows are noisier and would inflate the false-positive rate
    half = window // 2
    hi = len(smoothed) - half
    detected = detect_upward_crossings(times[half:hi], smoothed[half:hi], -threshold, threshold)
    return TransitionMonitorResult(
        trajectory=traj,
        smoothed_record=smoothed,
        detected_times=tuple(detected),
        lower_threshold=-threshold,
        upper_threshold=threshold,
        smoothing_window=window * dt,
    )
