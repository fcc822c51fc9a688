"""Exact symbolic computation in the ring of D4 triality invariants.

Truncated q-series over exact rationals, the Weyl-generator polynomial
ring, the bigraded invariant ring with its cusp classification, the two
Seiberg-Witten curve-coefficient frames and their intersection test, an
exact weight/degree enumerator, and the classical joint covariants of a
binary quadratic and cubic with the substitution isomorphism between the
two worlds.

The root exports the five names of the README's library example; every
other name is imported from its module.
"""

from .enumerator import triality_basis
from .exact_series import eta_delta
from .invariant_ring import express_in_klmn, klmn
from .sw_curve import evaluate_ab

__version__ = "0.1.0"
