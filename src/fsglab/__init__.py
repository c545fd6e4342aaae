"""fsglab: guess-and-determine cryptanalysis workbench for LFSR/NFSR filter
generators.

Models shift-register keystream generators, counts repeated state-bit
equations under constant and variable sampling schedules, evaluates the
resulting attack costs, searches for resistant tap placements, and executes
the attacks at desk scale against planted states.

``import fsglab`` loads no submodule: each public name below loads its module
on first use (PEP 562), so a command pays only for the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_EXPORTS = {
    "sampling": (
        "DifferenceScheme",
        "NoOverdefinedSystemError",
        "RankStop",
        "RepetitionProfile",
        "SampleStop",
        "SamplingSchedule",
        "TapSet",
        "consecutive_differences",
        "constant_profile",
        "cyclic_schedule",
        "difference_scheme",
        "greedy_schedule",
        "hybrid_window_profile",
        "is_fpds",
        "lambda_order",
        "repeated_count_constant",
        "repeated_count_variable",
        "repetition_profile",
        "scheme_q_sequence",
    ),
    "registers": (
        "FilterSpec",
        "GeneratorSpec",
        "HybridSpec",
        "HybridTaps",
        "LfsrSpec",
        "NfsrSpec",
        "keystream",
        "preimage_table",
        "primitive_lfsr",
        "primitive_lengths",
    ),
    "complexity": (
        "ComplexityEstimate",
        "WindowCostEstimate",
        "fsga_cost",
        "gfsga_constant_cost",
        "gfsga_variable_cost",
        "internal_state_recovery_cost",
        "optimal_constant_sigma",
        "restricted_annihilator_cost",
    ),
    "optimizer": (
        "CandidateDifferenceSet",
        "FeasibilityError",
        "Scorecard",
        "SearchExhaustedError",
        "StagedSearchParams",
        "calibrate_filter_width",
        "scorecard",
        "staged_search",
        "step_a_candidates",
        "step_ab_best_ordering",
        "step_b_best_ordering",
    ),
    "attack": (
        "AttackResult",
        "KeystreamFormatError",
        "WindowRecovery",
        "gfsga_recover",
        "nfsr_window_recover",
        "read_keystream_file",
        "write_keystream_file",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    # Not cached in the package: the name is read off its module on every
    # access, so a rebinding there (a test's monkeypatch) is what callers get.
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
