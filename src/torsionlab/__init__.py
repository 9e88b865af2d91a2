"""Exact torsion and zeta arithmetic for circle-valued chain data.

The subpackages split along the objects they compute with: rings for
the Laurent/series arithmetic, complexes for based chain complexes and
their torsion, zeta for closed-orbit counting, novikov for the
critical-point complex, cut for the glued-complex identity, threedim
for path matrices, and fixtures/cli for the file and command surface.
The names re-exported here are the stable entry points.
"""

from .complexes import (
    BasedChainComplex,
    HomologyBasis,
    ShortExactSequence,
    default_homology_basis,
    homology_ranks,
    product_formula_check,
    rebase_basis,
    torsion_tau,
    torsion_tau_hat,
    validate_complex,
)
from .cut import (
    CutSystem,
    VerificationReport,
    approx_equal,
    assemble_boundary,
    check_K_vs_novikov,
    compute_K,
    tau_via_products,
    validate_cut_system,
    verify_main_theorem,
)
from .errors import FixtureError, PreconditionError
from .fixtures import (
    Fixture,
    Scenario,
    parse_fixture,
    parse_fixture_data,
    resolve_fixture_path,
    save_fixture,
    serialize_fixture,
)
from .novikov import (
    EulerLift,
    NovikovComplex,
    apply_lift,
    invariant_I,
    tau_novikov,
)
from .rings import (
    RationalFunction,
    RingSpec,
    TPolynomial,
    canonical_mod_units,
    expand_series,
    format_rational,
    format_tpolynomial,
    format_truncation,
    frac_equal,
    unit_equivalent,
)
from .threedim import (
    PathMatrix,
    i3_coefficients,
    path_matrix_det,
    rebase_col,
    rebase_row,
    sw_consistency_check,
    t_invariant,
)
from .zeta import (
    ClosedOrbit,
    orbit_counts,
    zeta_exp,
    zeta_lefschetz,
    zeta_product,
    zeta_trace,
)

__version__ = "0.1.0"

__all__ = [
    "BasedChainComplex",
    "ClosedOrbit",
    "CutSystem",
    "EulerLift",
    "Fixture",
    "FixtureError",
    "HomologyBasis",
    "NovikovComplex",
    "PathMatrix",
    "PreconditionError",
    "RationalFunction",
    "RingSpec",
    "Scenario",
    "ShortExactSequence",
    "TPolynomial",
    "VerificationReport",
    "apply_lift",
    "approx_equal",
    "assemble_boundary",
    "canonical_mod_units",
    "check_K_vs_novikov",
    "compute_K",
    "default_homology_basis",
    "expand_series",
    "format_rational",
    "format_tpolynomial",
    "format_truncation",
    "frac_equal",
    "homology_ranks",
    "i3_coefficients",
    "invariant_I",
    "orbit_counts",
    "parse_fixture",
    "parse_fixture_data",
    "path_matrix_det",
    "product_formula_check",
    "rebase_basis",
    "rebase_col",
    "rebase_row",
    "resolve_fixture_path",
    "save_fixture",
    "serialize_fixture",
    "sw_consistency_check",
    "t_invariant",
    "tau_novikov",
    "tau_via_products",
    "torsion_tau",
    "torsion_tau_hat",
    "unit_equivalent",
    "validate_complex",
    "validate_cut_system",
    "verify_main_theorem",
    "zeta_exp",
    "zeta_lefschetz",
    "zeta_product",
    "zeta_trace",
]
