"""Fixed-point iteration laboratory.

Concrete metric and gap structures (`spaces`), comparison gauges and gauge
families (`gauges`), iteration traces (`traces`), empirical certificates for
generalized contraction conditions (`certificates`), solvers and settling
diagnostics (`solvers`), and a declarative scenario front end
(`scenario`, `runner`, `gallery`, `cli`).

Every checker returns a three-valued CertificateReport (pass / fail /
inconclusive) carrying machine-checkable witnesses and the search budget
that produced it.

The package loads its modules on first use (PEP 562): `import fplab` imports
none of them.  Reading a public name, such as `fplab.build_scenario` or
`fplab.spaces`, imports that name's home module and what the home module
imports, so `fplab.build_scenario` loads only the schema layer.  A name of the
run layer (`certificates`, `solvers`, `traces`, `runner`) loads the whole
layer, as `runner` imports all of it: once one checker is reachable, every
module that binds a checker by `from .x import f` is loaded too, so a tool
that rebinds a function in each module holding it (perfbench's tracer) finds
every binding.  Only submodules end up bound here; a re-exported name such as
`fplab.check_asf2` is read from its home module on each access, so it always
follows that module's current binding.
"""

import importlib

# home module -> the names re-exported from it; each home module is public too
_EXPORTS = {
    "certificates": (
        "acf_asf_agreement", "check_acf_mapping", "check_asf1", "check_asf2", "check_asmk",
        "check_banach_rate", "check_c5", "check_cyclic", "check_f_psi_contraction",
        "check_p_controls_d", "consecutive_contraction_report",
    ),
    "errors": ("ConfigurationError", "ExpressionError", "FplabError", "InputError",
               "RefusalError"),
    "expressions": (),
    "gallery": ("GALLERY", "Expectation", "GalleryEntry", "gallery_names", "get_entry",
                "list_gallery"),
    "gauges": (
        "Gauge", "GaugeFamily", "builtin_gauge", "check_family_C6", "check_family_C7_multi",
        "explicit_family", "expression_gauge", "iterated_family", "require_profile",
        "verify_gauge_regularity",
    ),
    "maps": ("NamedMap", "builtin_map", "expression_map"),
    "reports": ("CertificateReport", "SearchBudget", "Verdict", "worst_verdict"),
    "runner": ("RunResult", "run_scenario", "run_scenario_doc"),
    "scenario": ("Scenario", "build_scenario", "load_scenario_file", "validate_scenario"),
    "solvers": (
        "CauchyCertificate", "NonCauchyWitness", "SolveResult", "WitnessScan",
        "cauchy_diagnostic", "certify_cauchy", "even_collapse_diagnostic",
        "extract_noncauchy_witness", "solve_best_proximity", "solve_common_fixed_point",
        "solve_fixed_point",
    ),
    "spaces": (
        "Box", "CyclicSetting", "DiskSet", "IntervalSet", "Point", "Premetric", "Space",
        "composed_premetric", "default_region", "metric_premetric", "sample_pairs",
        "shifted_premetric", "verify_premetric_axioms",
    ),
    "traces": ("AlternatingSchedule", "IterationTrace", "alternating_trace",
               "cyclic_even_trace", "picard_trace", "sequence_trace"),
}

# public name -> its home module
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(_HOME)

# homes that load as one layer: runner imports the other three
_RUN_LAYER = frozenset({"certificates", "solvers", "traces", "runner"})


def __getattr__(name: str):
    """Imports the home module of a public name (for a name of the run layer,
    the whole layer first) and returns the name's current value there."""
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    if home in _RUN_LAYER:
        importlib.import_module(f"{__name__}.runner")
    module = importlib.import_module(f"{__name__}.{home}")
    return module if name == home else getattr(module, name)


def __dir__() -> list[str]:
    return list(__all__)
