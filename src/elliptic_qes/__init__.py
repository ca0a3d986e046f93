"""Exact finite matrix representations of a quasi-exactly-solvable elliptic
many-body operator, with verified spectra.

The pipeline: `ModelParams` fixes couplings, degree, and cubic roots;
`build_gauged_operator` constructs the exact gauged differential operator for
one of eight gauge sectors; `build_matrix` represents it on its invariant
space of symmetric polynomials; `spectrum_of` diagonalizes the result.  The
`oracles` module holds reference data derived without the engine, and
`verify.run_checks` runs the built-in verification suite against it.
"""

from .errors import (
    InvalidDegree,
    NoConvergence,
    NonCancellingPole,
    NonZeroRemainder,
    NotSymmetric,
    OperatorNotClosed,
)
from .matrices import (
    OperatorMatrix,
    build_matrix,
    export_matrix,
    matrix_from_json,
    raising_coefficient_check,
    to_float,
)
from .model import (
    ALL_MASKS,
    GaugeMask,
    ModelParams,
    cubic_invariants,
    external_field_coupling,
    list_valid_masks,
)
from .operator import (
    GaugedOperator,
    build_gauged_operator,
    gauge_polynomials,
)
from .oracles import (
    counting_formula,
    degenerate_closed_forms,
    epsilon_roots,
    oscillator_energy,
)
from .polynomials import Poly, parse_rational, weierstrass_cubic
from .spectral import Spectrum, eigenvalues, eigenvector, spectrum_of
from .symmetric import BasisIndex, enumerate_basis, is_symmetric, tau_to_z, z_to_tau
from .verify import CheckResult, report_json, run_checks

__version__ = "0.1.0"

__all__ = [
    "ALL_MASKS",
    "BasisIndex",
    "CheckResult",
    "GaugeMask",
    "GaugedOperator",
    "InvalidDegree",
    "ModelParams",
    "NoConvergence",
    "NonCancellingPole",
    "NonZeroRemainder",
    "NotSymmetric",
    "OperatorMatrix",
    "OperatorNotClosed",
    "Poly",
    "Spectrum",
    "build_gauged_operator",
    "build_matrix",
    "counting_formula",
    "cubic_invariants",
    "degenerate_closed_forms",
    "eigenvalues",
    "eigenvector",
    "enumerate_basis",
    "epsilon_roots",
    "export_matrix",
    "external_field_coupling",
    "gauge_polynomials",
    "is_symmetric",
    "list_valid_masks",
    "matrix_from_json",
    "oscillator_energy",
    "parse_rational",
    "raising_coefficient_check",
    "report_json",
    "run_checks",
    "spectrum_of",
    "tau_to_z",
    "to_float",
    "weierstrass_cubic",
    "z_to_tau",
]
