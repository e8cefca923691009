"""qmeas: simulation toolkit for continuous fuzzy quantum measurement.

Selective (readout-conditioned) dynamics via the complex-Hamiltonian
monitoring equation and its stochastic unraveling, nonselective dynamics via
the master equation, discrete fuzzy-measurement chains, and named
energy-monitoring experiments, with cross-method equivalence checks.

Each exported name loads its home module on first access (PEP 562), so
``import qmeas`` imports no numerical module.
"""

from importlib import import_module

__version__ = "0.1.0"

# home module -> the names exported from it
_EXPORTS = {
    "errors": (
        "ConfigError",
        "DimensionMismatchError",
        "IntegrationError",
        "QmeasError",
        "QuadratureError",
        "RecordParseError",
        "ResolutionMismatchError",
        "ValidationError",
    ),
    "hilbert": (
        "DensityMatrix",
        "HermitianOperator",
        "NonHermitianOperator",
        "QuantumState",
        "basis_state",
        "double_commutator",
        "expectation",
        "matrix_exponential",
        "pauli_x",
        "pauli_z",
        "plus_state",
        "trace_distance",
    ),
    "readout": (
        "ReadoutDensity",
        "ReadoutRecord",
        "TimeGrid",
        "constant_record",
        "parse_record",
        "reference_log_weight",
        "serialize_record",
    ),
    "lindblad": (
        "LindbladModel",
        "MonitoringModel",
        "integrate_lindblad",
        "kappa_from_atoms",
        "kappa_from_brownian",
        "lindblad_exact",
        "lindblad_rhs",
    ),
    "chm": (
        "PartialPropagator",
        "effective_hamiltonian",
        "generalized_unitarity_defect",
        "marginalize_readouts",
        "propagate_chm",
        "sliced_propagator",
    ),
    "sse": (
        "EnsembleSummary",
        "SseTrajectory",
        "ensemble_average",
        "simulate_trajectory",
        "sse_step",
    ),
    "chain": (
        "AncillaScheme",
        "ChainOutcome",
        "FuzzyKraus",
        "fit_effective_quadratic",
        "run_decoherence_chain",
        "sample_fuzzy_shot",
        "weak_ancilla_shot",
    ),
    "experiments": (
        "DrivenTwoLevel",
        "RabiLineStats",
        "TransitionMonitorResult",
        "ZenoScanResult",
        "analyze_rabi_line",
        "run_rabi_monitor",
        "run_transition_monitor",
        "run_zeno_scan",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import an exported name's home module, then cache the name here."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _HOME.keys())
