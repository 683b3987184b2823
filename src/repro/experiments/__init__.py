"""Experiment harness: every table and figure of the paper's evaluation.

Index (see DESIGN.md §3 for the full mapping):

- E1 Table 5 (:func:`run_table5`) — test-case execution rate
- E2 Table 6 (:func:`run_table6`) — edge-coverage improvement
- E3 Table 7 (:func:`run_table7`) — time-to-bug
- E4 §6.1.4 (:func:`run_correctness`) — semantic-correctness validation
- E5 spectrum (:func:`run_spectrum`) — mechanism cost spectrum
- E6 figures 3-5 (:func:`run_global_pass_figure`, :func:`run_restore_lifecycle`)
- E7 motivation (:func:`run_motivation`) — persistent-mode pathologies
- E8 ablations (:func:`run_pass_ablation`, :func:`run_fd_rewind_ablation`)
- i2s-guards (:func:`run_i2s_guards`) — input-to-state time-to-guarded-edge

``python -m repro.experiments`` lists and runs these entry points from
the command line.  Beyond the paper's fixed tables, the
:mod:`repro.experiments.platform` subpackage runs arbitrary
(mechanism x target x seed x config) matrices with fuzzbench-style
statistics — see docs/experiments.md.
"""

import importlib

# Public names by defining submodule.  Submodules load on first access
# (PEP 562), so importing one of them — e.g. ``campaign_runner`` from
# the fuzzing CLI — does not pull in the rest, nor scipy through
# ``stats``.
_SUBMODULES = {
    "ablation": (
        "FdRewindResult", "PassAblationResult", "PassAblationRow",
        "run_fd_rewind_ablation", "run_pass_ablation",
    ),
    "campaign_runner": (
        "MECHANISMS", "build_executor", "clear_campaign_cache", "run_campaign",
    ),
    "config": ("HORIZON_24H_NS", "ExperimentConfig"),
    "correctness_exp": ("CorrectnessResult", "CorrectnessRow", "run_correctness"),
    "figures": (
        "GlobalPassFigure", "MechanismPoint", "RestoreLifecycleFigure",
        "SpectrumResult", "TimelineFigure", "run_global_pass_figure",
        "run_restore_lifecycle", "run_spectrum", "run_timeline",
    ),
    "i2s_exp": (
        "GUARD_TARGETS", "I2SGuardResult", "I2SGuardRow", "guard_cells",
        "run_i2s_guards",
    ),
    "motivation": (
        "DEMO_SOURCE", "MotivationReport", "build_demo_modules", "run_motivation",
    ),
    "stats": (
        "a12_magnitude", "bootstrap_ci", "format_count", "format_table",
        "mann_whitney_p", "mann_whitney_u", "mean", "median", "stddev",
        "vargha_delaney_a12",
    ),
    "table5": ("Table5Result", "Table5Row", "run_table5"),
    "table6": ("Table6Result", "Table6Row", "edge_universe", "run_table6"),
    "table7": ("BUG_TARGETS", "Table7Result", "Table7Row", "run_table7"),
}
_EXPORTS = {name: module for module, names in _SUBMODULES.items() for name in names}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = list(_EXPORTS)
