"""Receiver front-end analysis: termination choices, extracted power, and SNR.

The package models a receive antenna (or coupled array) as a Thevenin source
behind an impedance matrix and quantifies what different load terminations do
to delivered voltage, extracted power, amplifier output SNR, and noise factor.
All spectral densities are two-sided; Johnson noise of a resistor R at
temperature T is 2kTR volts squared per hertz.

Public names load on first use (PEP 562): ``import rxfront`` imports no
submodule, and ``rxfront.output_snr`` imports ``rxfront.link`` only then.
"""

import sys

_EXPORTS = {  # submodule -> the public names it defines
    "core": (
        "BOLTZMANN", "DEFAULT_TOL", "OPEN_CIRCUIT", "ComplexImpedance", "FrequencyGrid",
        "NumericalError", "ParseError", "SingularCircuitError", "TheveninSource", "ToolkitError",
        "ValidationError", "as_complex", "johnson_density", "thevenin_from_link",
    ),
    "impedance": (
        "ImpedanceMatrixSeries", "ValidationReport", "load_impedance_csv", "validate_passivity",
        "validate_reciprocity",
    ),
    "shannon": ("AwgnChannelSpec", "capacity", "capacity_bound", "eb_n0"),
    "link": (
        "AmplifierNoiseModel", "SearchBox", "SingleLink", "divided_voltage", "extracted_power",
        "max_available_power", "optimize_load", "output_snr", "snr_matched",
        "snr_ratio_oc_over_match",
    ),
    "noisefig": (
        "SignalGenerator", "VoltageAmplifierStage", "available_noise_power",
        "available_signal_power", "friis_gain", "input_snr", "noise_factor",
        "optimal_rs_for_noise_factor", "output_snr_friis",
    ),
    "mna": ("LinearNetlist", "MnaSolution", "mna_solve", "parse_netlist"),
    "frontend": (
        "FrontEndSolution", "OpAmpModel", "solve_buffer", "solve_constant_current",
        "solve_inside_out",
    ),
    "matching": ("TransformerMatch", "optimal_turns_ratio", "reflected_source", "snr_with_transformer"),
    "arrays": (
        "ArrayModel", "TerminationStrategy", "make_synthetic_model", "open_circuit_voltages",
        "terminate_array", "termination_matrix",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    # Not a public name: AttributeError, so `from rxfront import arrays` imports the submodule.
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_load(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def _load(name: str):
    """The module ``name``, imported by the import statement's route, which
    ``python -X importtime`` lists; every lazy import in the package uses it."""
    __import__(name)
    return sys.modules[name]


def __dir__() -> list:
    return sorted({*globals(), *__all__})
