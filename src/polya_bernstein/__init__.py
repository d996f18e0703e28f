"""Polya-urn Bernstein-type operators and numerical verification of their
sup-norm error bounds."""

from .numeric_core import factorial_ratio, strict_floor_bracket
from .polya import (
    AdmissibilityError,
    PolyaParams,
    moments,
    pmf,
    pmf_matrix,
    truncated_first_moment,
    validate,
)
from .operators import (
    BUILTIN_FUNCTIONS,
    CProfile,
    FunctionSpec,
    bernstein_curve,
    bernstein_eval,
    builtin_function,
    function_from_csv,
    function_from_samples,
    modulus_of_continuity,
    operator_curve,
    polya_operator_eval,
    popoviciu_scan,
)
from .analysis import (
    breakpoints,
    f_n_c,
    f_n_c_curve,
    n6_case_check,
    scan_sup,
    sikkema_function,
    verify_sweep,
)
from .reports import GridSpec, ScanReport, VerificationReport, dump_json

__version__ = "0.1.0"
