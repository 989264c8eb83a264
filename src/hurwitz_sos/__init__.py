"""Exact sum-of-squares certificates for two-letter matrix word sums.

The package expands the sum of all length-p words with r B letters into
cyclic trace classes, verifies Hermitian-square certificates for those
sums exactly over the Gaussian rationals, searches for new certificates
over a fixed sandwich ansatz, and cross-validates everything against
floating-point word-sum traces on random positive semidefinite matrices.
"""

from .certificate import (
    AnsatzMismatchError,
    Certificate,
    CertificateFormatError,
    CertificateStructureError,
    GramMatrix,
    PsdCheckResult,
    SandwichBlock,
    VerifyReport,
    bundled_certificate,
    bundled_path,
    certificate_expansion,
    certificate_from_json,
    certificate_to_json,
    expand_gram,
    load_ansatz,
    load_certificate,
    pair_classes,
    psd_check_exact,
    quadratic_form,
    save_certificate,
    swap_certificate,
    verify_against,
    verify_certificate,
)
from .numeric import (
    ConvergenceError,
    NotPsdError,
    bmv_coefficients,
    derive_seed,
    eval_certificate_numeric,
    gaussian_stream,
    hermitian_eig,
    psd_sqrt,
    random_psd,
    trace_hurwitz_numeric,
)
from .rational import GaussianRational, grat
from .search import (
    ConstraintMap,
    SearchOptions,
    SearchOutcome,
    SearchStatus,
    build_constraint_map,
    feasibility_search,
)
from .validation import (
    TrialConfig,
    TrialReport,
    bmv_check_trials,
    validate_certificate_trials,
)
from .words import (
    CyclicClass,
    TracePolynomial,
    hurwitz_expand,
    reverse_class,
    swap_word,
)

__version__ = "0.1.0"

__all__ = [
    "AnsatzMismatchError",
    "Certificate",
    "CertificateFormatError",
    "CertificateStructureError",
    "ConstraintMap",
    "ConvergenceError",
    "CyclicClass",
    "GaussianRational",
    "GramMatrix",
    "NotPsdError",
    "PsdCheckResult",
    "SandwichBlock",
    "SearchOptions",
    "SearchOutcome",
    "SearchStatus",
    "TracePolynomial",
    "TrialConfig",
    "TrialReport",
    "VerifyReport",
    "bmv_check_trials",
    "bmv_coefficients",
    "build_constraint_map",
    "bundled_certificate",
    "bundled_path",
    "certificate_expansion",
    "certificate_from_json",
    "certificate_to_json",
    "derive_seed",
    "eval_certificate_numeric",
    "expand_gram",
    "feasibility_search",
    "gaussian_stream",
    "grat",
    "hermitian_eig",
    "hurwitz_expand",
    "load_ansatz",
    "load_certificate",
    "pair_classes",
    "psd_check_exact",
    "psd_sqrt",
    "quadratic_form",
    "random_psd",
    "reverse_class",
    "save_certificate",
    "swap_certificate",
    "swap_word",
    "trace_hurwitz_numeric",
    "validate_certificate_trials",
    "verify_against",
    "verify_certificate",
    "__version__",
]
