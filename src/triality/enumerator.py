"""Exact enumeration of triality invariants of given weight and degree.

The ansatz is the most general linear combination of curve-coefficient
monomials of the requested bigrading; mapping it to the other frame and
demanding that every negative power of c0 cancels is an exact rational
linear system whose kernel is the invariant space.  Everything is symbolic
in the six curve variables; q-series only enter through the verification
paths elsewhere.  The map's columns, and the frame layout they depend on,
come from `sw_curve.negative_c0_part` as integer numerators over a
denominator, the form `linalg.LinearSolver.of_columns` takes.  A cell keeps
its solver: its dimension is the number of monomials minus the rank, so a
count (`dimension_table`) builds no kernel, and the integer kernel vectors
become the basis polynomials, as they are, only when the basis is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from ._poly import bounded_monomials
from .linalg import LinearSolver
from .sw_curve import CurvePolyAB, curve_poly_json, negative_c0_part


def monomials_of(k, m):
    """Exponent tuples over (a0, a2, b0, b1, b2, b3) of weight k and degree m,
    in canonical (graded lexicographic, descending) order."""
    return list(bounded_monomials((CurvePolyAB.WEIGHTS, CurvePolyAB.DEGREES), (k, m)))


@dataclass(frozen=True)
class AnsatzBasis:
    """The invariants of one (weight, degree) cell, over the solver of its
    linear map: `dimension` reads the rank, `basis` is built on first read."""

    weight: int
    degree: int
    monomials: tuple
    solver: LinearSolver = field(repr=False, compare=False)

    @property
    def dimension(self):
        return len(self.monomials) - self.solver.rank

    @cached_property
    def basis(self):
        """The reduced-echelon kernel basis as curve polynomials."""
        return tuple(
            CurvePolyAB._new(dict(zip(self.monomials, vec)), den) for vec, den in self.solver.integer_kernel()
        )

    def to_json(self):
        return {
            "kind": "basis",
            "grading": {"weight": self.weight, "degree": self.degree},
            "dimension": self.dimension,
            "monomials": [list(e) for e in self.monomials],
            "basis": [curve_poly_json(p) for p in self.basis],
        }


def triality_basis(k, m):
    """All triality invariants of weight k and degree m, reduced echelon.

    The columns of the linear map are the parts of the ansatz monomials'
    frame-change images that carry a negative power of c0
    (`sw_curve.negative_c0_part`); its kernel is the invariant space.
    """
    monos = monomials_of(k, m)
    return AnsatzBasis(k, m, tuple(monos), LinearSolver.of_columns(negative_c0_part(mono) for mono in monos))


def dimension_table(k_max, m_max):
    """dim of the invariant space for all even k <= k_max, even m <= m_max."""
    return {
        (k, m): triality_basis(k, m).dimension
        for k in range(0, k_max + 1, 2)
        for m in range(0, m_max + 1, 2)
    }

