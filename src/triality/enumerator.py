"""Exact enumeration of triality invariants of given weight and degree.

The ansatz is the most general linear combination of curve-coefficient
monomials of the requested bigrading; mapping it to the other frame and
demanding that every negative power of c0 cancels is an exact rational
linear system whose kernel, back-substituted, is the invariant space.
Everything is symbolic in the six curve variables; q-series only enter
through the verification paths elsewhere.

The frame change keeps the leading coefficients: the shift u -> u + s v
fixes the leading coefficient of a binary form, so a0 maps to c0 and b0 to
d0.  The image of a0^j b0^l r, where the core r has no a0 and no b0, is
therefore c0^j d0^l times the image of r, and only the cores are sent
through `ab_to_cd` (each once per process).  Through the CLI, input is
capped at weight <= 96 and degree <= 32, so at most 556 cores are kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ._poly import bounded_monomials
from .linalg import nullspace
from .sw_curve import CurvePolyAB, ab_to_cd, curve_poly_json


def monomials_of(k, m):
    """Exponent tuples over (a0, a2, b0, b1, b2, b3) of weight k and degree m,
    in canonical (graded lexicographic, descending) order."""
    return bounded_monomials((CurvePolyAB.WEIGHTS, CurvePolyAB.DEGREES), (k, m))


@dataclass(frozen=True)
class AnsatzBasis:
    weight: int
    degree: int
    monomials: tuple
    basis: tuple

    @property
    def dimension(self):
        return len(self.basis)

    def to_json(self):
        return {
            "kind": "basis",
            "grading": {"weight": self.weight, "degree": self.degree},
            "dimension": self.dimension,
            "monomials": [list(e) for e in self.monomials],
            "basis": [curve_poly_json(p) for p in self.basis],
        }


@lru_cache(maxsize=None)
def _core_image(core):
    """The cd-frame terms of a monomial with no a0 and no b0, kept for the
    process; a caller never changes them."""
    return ab_to_cd(CurvePolyAB.monomial(core)).terms


def _column(mono):
    """The negative-c0 terms of a monomial's cd-frame image: its core's
    image times c0^j d0^l, where j and l are its a0 and b0 exponents."""
    j, l = mono[0], mono[2]
    return {
        (e[0] + j,) + e[1:3] + (e[3] + l,) + e[4:]: c
        for e, c in _core_image((0, mono[1], 0) + mono[3:]).items()
        if e[0] + j < 0
    }


def triality_basis(k, m):
    """All triality invariants of weight k and degree m, reduced echelon.

    The columns of the linear map are the parts of the ansatz monomials'
    frame-change images that carry a negative power of c0; its kernel,
    back-substituted, is the invariant space.  The frame change sends a0
    to c0 and b0 to d0 (the shift fixes leading coefficients), so each
    column is read off the image of the monomial's a0/b0-free core.
    """
    monos = monomials_of(k, m)
    columns = (_column(mono) for mono in monos)
    basis = [CurvePolyAB._new(dict(zip(monos, vec))) for vec in nullspace(columns)]
    return AnsatzBasis(k, m, tuple(monos), tuple(basis))


def dimension_table(k_max, m_max):
    """dim of the invariant space for all even k <= k_max, even m <= m_max."""
    return {
        (k, m): triality_basis(k, m).dimension
        for k in range(0, k_max + 1, 2)
        for m in range(0, m_max + 1, 2)
    }


def rank_series(m_max):
    """Coefficients of 1/((1-x^2)(1-x^4)^2(1-x^6)) up to degree m_max."""
    coeffs = [1] + [0] * m_max
    for period in (2, 4, 4, 6):
        # multiply by the geometric series of x^period
        for n in range(period, m_max + 1):
            coeffs[n] += coeffs[n - period]
    return coeffs
