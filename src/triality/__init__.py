"""Exact symbolic computation in the ring of D4 triality invariants.

Truncated q-series over exact rationals, the Weyl-generator polynomial
ring, the bigraded invariant ring with its cusp classification, the two
Seiberg-Witten curve-coefficient frames and their intersection test, an
exact weight/degree enumerator, and the classical joint covariants of a
binary quadratic and cubic with the substitution isomorphism between the
two worlds.
"""

from .exact_series import (
    LATTICE,
    FracSeries,
    UnknownCoefficientError,
    ZeroSeriesError,
    bernoulli,
    e_series,
    eisenstein,
    eta_delta,
    theta_const,
)
from .weyl_poly import (
    IPoly,
    NotInvariantError,
    ZPoly,
    ipoly_to_zpoly,
    weyl_generators,
    zpoly_to_ipoly,
)
from .invariant_ring import (
    INVARIANT,
    NOT_WEAK,
    WEAK_ONLY,
    AmbiguousRepresentationError,
    GradingError,
    HasPoleError,
    Invariant,
    KLMNPoly,
    NoRepresentationError,
    UnsupportedLatticeError,
    express_in_klmn,
    klmn,
    klmn_generator_jacobian,
)
from .sw_curve import (
    CurvePolyAB,
    CurvePolyCD,
    ab_to_cd,
    cd_to_ab,
    evaluate_ab,
    evaluate_cd,
    is_triality_invariant,
    jacobian_klmn,
    recover_klmn,
)
from .enumerator import (
    AnsatzBasis,
    dimension_table,
    monomials_of,
    rank_series,
    triality_basis,
)
from .covariants import (
    BadOrderError,
    FormPoly,
    GordanGenerator,
    NegativeOrderError,
    NotHomogeneousError,
    NotPolynomialError,
    cubic_form,
    gordan_generators,
    hat_coefficients,
    is_semiinvariant,
    order_of,
    psi_forward,
    psi_inverse,
    quadratic_form,
    roberts_to_covariant,
    roberts_to_semiinvariant,
    semiinvariant_dimension,
    transvectant,
    uv_order,
)

__version__ = "0.1.0"
