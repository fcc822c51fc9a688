"""Polynomials in z1..z4 and in the Weyl invariant generators I2, I4, I6, I~4.

The generators are the elementary symmetric functions of the squares
z_i^2 together with the product z1 z2 z3 z4; they freely generate the
invariant ring of the degree-(2,4,6,4) reflection group acting on C^4.
Conversion from z-coordinates back to generator coordinates reduces by
leading terms, which doubles as an invariance test.  `rank_series` is the
Hilbert series of C[I2, I4, I6, I~4], read off `I_DEGREES` alone.
"""

from __future__ import annotations

from ._poly import PowerTable, SparsePoly, compose

I_DEGREES = (2, 4, 6, 4)


def rank_series(m_max):
    """Coefficients of 1/((1-x^2)(1-x^4)^2(1-x^6)), the Hilbert series of
    C[I2, I4, I6, I~4], a factor per `I_DEGREES` entry, to x^m_max."""
    coeffs = [1] + [0] * m_max
    for period in I_DEGREES:
        # multiply by the geometric series of x^period
        for n in range(period, m_max + 1):
            coeffs[n] += coeffs[n - period]
    return coeffs


class NotInvariantError(ValueError):
    """The z-polynomial is not a polynomial in the invariant generators."""


class ZPoly(SparsePoly):
    nvars = 4
    names = ("z1", "z2", "z3", "z4")


class IPoly(SparsePoly):
    nvars = 4
    names = ("I2", "I4", "I6", "I~4")


def weyl_generators():
    """I2 = sum z_i^2, I4/I6 = elementary symmetric in z_i^2, I~4 = prod z_i."""
    z2 = [ZPoly.variable(i, 2) for i in range(4)]
    i2 = ZPoly._sum(z2)
    i4 = ZPoly._sum(z2[i] * z2[j] for i in range(4) for j in range(i + 1, 4))
    i6 = ZPoly._sum(
        z2[i] * z2[j] * z2[k] for i in range(4) for j in range(i + 1, 4) for k in range(j + 1, 4)
    )
    i4t = ZPoly.monomial((1, 1, 1, 1))
    return i2, i4, i6, i4t


def ipoly_to_zpoly(p):
    return compose(p, PowerTable(weyl_generators(), ZPoly.one()))


def zpoly_to_ipoly(p):
    """Invert the generator substitution on a homogeneous z-polynomial.

    The lex-leading z-monomial of I2^a I4^b I6^c I~4^d is
    z1^(2a+2b+2c+d) z2^(2b+2c+d) z3^(2c+d) z4^d with coefficient 1, so the
    leading term of p names the next generator monomial to subtract; one
    `PowerTable` of the generators builds the images of all of them.
    Raises NotInvariantError when no generator polynomial expands to p.
    """
    p.weighted_degree((1, 1, 1, 1))  # raises NotHomogeneousError if inhomogeneous
    table = PowerTable(weyl_generators(), ZPoly.one())
    result = {}
    while not p.is_zero:
        lead = max(p.terms)
        p1, p2, p3, p4 = lead
        steps = (p1 - p2, p2 - p3, p3 - p4)
        if any(s < 0 or s % 2 for s in steps):
            raise NotInvariantError(f"{p} is not a polynomial in the invariant generators")
        exps = (steps[0] // 2, steps[1] // 2, steps[2] // 2, p4)
        coeff = p.terms[lead]
        result[exps] = coeff
        p = p - table.monomial(exps) * coeff
    return IPoly(result)


def vandermonde_product():
    """The product of (z_i^2 - z_j^2) over i < j, as a ZPoly."""
    prod = ZPoly.one()
    for i in range(4):
        for j in range(i + 1, 4):
            prod = prod * (ZPoly.variable(i, 2) - ZPoly.variable(j, 2))
    return prod
