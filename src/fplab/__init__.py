"""Fixed-point iteration laboratory.

Concrete metric and gap structures (`spaces`), comparison gauges and gauge
families (`gauges`), iteration traces (`traces`), empirical certificates for
generalized contraction conditions (`certificates`), solvers and settling
diagnostics (`solvers`), and a declarative scenario front end
(`scenario`, `runner`, `gallery`, `cli`).

Every checker returns a three-valued CertificateReport (pass / fail /
inconclusive) carrying machine-checkable witnesses and the search budget
that produced it.
"""

from .certificates import (
    acf_asf_agreement,
    check_acf_mapping,
    check_asf1,
    check_asf2,
    check_asmk,
    check_banach_rate,
    check_c5,
    check_cyclic,
    check_f_psi_contraction,
    check_p_controls_d,
    consecutive_contraction_report,
)
from .errors import (
    ConfigurationError,
    ExpressionError,
    FplabError,
    InputError,
    RefusalError,
)
from .gauges import (
    Gauge,
    GaugeFamily,
    builtin_gauge,
    check_family_C6,
    check_family_C7_multi,
    explicit_family,
    expression_gauge,
    iterated_family,
    require_profile,
    verify_gauge_regularity,
)
from .gallery import GALLERY, Expectation, GalleryEntry, gallery_names, get_entry, list_gallery
from .maps import NamedMap, builtin_map, expression_map
from .reports import CertificateReport, SearchBudget, Verdict, worst_verdict
from .runner import RunResult, run_scenario, run_scenario_doc
from .scenario import Scenario, build_scenario, load_scenario_file, validate_scenario
from .solvers import (
    CauchyCertificate,
    NonCauchyWitness,
    SolveResult,
    WitnessScan,
    cauchy_diagnostic,
    certify_cauchy,
    even_collapse_diagnostic,
    extract_noncauchy_witness,
    solve_best_proximity,
    solve_common_fixed_point,
    solve_fixed_point,
)
from .spaces import (
    Box,
    CyclicSetting,
    DiskSet,
    IntervalSet,
    Point,
    Premetric,
    Space,
    composed_premetric,
    default_region,
    metric_premetric,
    sample_pairs,
    shifted_premetric,
    verify_premetric_axioms,
)
from .traces import (
    AlternatingSchedule,
    IterationTrace,
    alternating_trace,
    cyclic_even_trace,
    picard_trace,
    sequence_trace,
)

__all__ = [name for name in dir() if not name.startswith("_")]
