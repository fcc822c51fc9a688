"""The two curve-coefficient frames and the invariant-ring evaluation map.

The abstract rings are Q[a0, a2, b0, b1, b2, b3] and Q[c0, c1, c2, d0, d2,
d3] (no a1, no d1), bigraded by modular weight and z-degree; each frame
class declares the two weight rows, which `SparsePoly.weighted_degree`
reads.  Each frame holds the coefficients of a binary quadratic and
cubic, and the frame changes are one shift u -> u + s v of both
(`_poly.taylor_shift`): s = -c1/(2 c0) completes the square (a1 = 0),
s = -b1/(3 b0) removes d1.
They introduce a controlled Laurent denominator (c0 going one way, b0 the
other); a polynomial is a triality invariant exactly when its image
carries no negative powers of c0 (`c0_valuation`), which is the
membership test the enumerator is built on.  Each direction keeps one
`_poly.PowerTable` of its six images for the whole process, so the image
of a monomial is a product of powers built once, whichever call asked
first; that image may be a kept power, and `compose` adds it into a new
value.  A table grows only to the largest exponent the process has asked
for; through the CLI that is at most 24 (parsed input is capped at total
degree 24, and a monomial of weight at most 96 has total degree at most
24).

The frame change keeps the leading coefficients: the shift u -> u + s v
fixes the leading coefficient of a binary form, so a0 maps to c0 and b0
to d0.  The image of a0^j b0^l r, where the core r has no a0 and no b0,
is therefore c0^j d0^l times the image of r.  `negative_c0_part`, the
enumerator's column of a monomial, reads the negative-c0 numerators off the
stored image of the core, which goes through `ab_to_cd` once per process,
and hands them out over that image's denominator.
Through the CLI, input is capped at weight <= 96 and degree <= 32, so at
most 556 cores are kept.

Evaluation sends the formal coefficients to their concrete values: each is
a polynomial in the four fundamental weak invariants K, L, M, N whose
coefficients are rational multiples of E4^i E6^j Delta^k.  `_frame_forms`
keeps them exactly, as `invariant_ring.ModularKLMN` forms with Delta in
them, in one pair of tables for every order.  `exact_ab` composes over the
ab table and takes the Delta-free normal form
(`invariant_ring.reduce_delta`), with no series built; `jacobian_klmn`
differentiates in rationals and goes to series once at the end, by the
determinant's `ModularKLMN.evaluate`; `_frame_values` takes each form to
its value at an order the same way.

`_frame_values` has one cached builder per order, which returns the six
values of each frame over `Invariant.one`, so every series power is built
once per order, whichever call asked first, and a table at one order never
serves another, whose window differs.  `evaluate_ab` and `evaluate_cd` give
`compose` over that table, core by core, as `negative_c0_part` reads the
frame change: a monomial is its unit part (a0, b0 resp. c0, d0) times its
core, and the unit images of a core with several monomials are summed into
one series before they meet the core's image.  A unit power is one series
of valuation 0 known to the table's window, and every kept coefficient c
has c.trunc <= window + val(c), so a product of c with a unit power has
c's window.  A sum of units can cancel its constant term (4 a0^6 - 216
a0^3 b0^2 + 2916 b0^4 is 4 Delta^2), and its product with c would then be
known further; cutting it to c's window keeps the windows `compose` gives,
which `express_in_klmn` reads its order from.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, prod
from operator import sub

from ._poly import PowerTable, SparsePoly, compose, jacobian, stored, taylor_shift
from .exact_series import LATTICE
from .invariant_ring import Invariant, ModularKLMN, reduce_delta


class CurvePolyAB(SparsePoly):
    """Polynomial in (a0, a2, b0, b1, b2, b3).

    b0 (and, for images of c0-Laurent values, a0) may go negative only as
    the result of a frame change; fresh polynomial ring elements keep all
    exponents nonnegative.
    """

    nvars = 6
    names = ("a0", "a2", "b0", "b1", "b2", "b3")
    laurent = frozenset({0, 2})
    WEIGHTS = (4, 8, 6, 8, 10, 12)
    DEGREES = (0, 4, 0, 2, 4, 6)
    frame = "ab"


class CurvePolyCD(SparsePoly):
    """Polynomial in (c0, c1, c2, d0, d2, d3), Laurent in c0.

    A value represents a member of the polynomial frame iff every c0
    exponent is nonnegative (d0 can also go negative, but only as the
    image of a b0-Laurent value under the frame change).
    """

    nvars = 6
    names = ("c0", "c1", "c2", "d0", "d2", "d3")
    laurent = frozenset({0, 3})
    WEIGHTS = (4, 6, 8, 6, 10, 12)
    DEGREES = (0, 2, 4, 0, 4, 6)
    frame = "cd"


def curve_poly_json(p):
    return {
        "kind": "curve_poly",
        "frame": type(p).frame,
        "laurent_bounds": {
            type(p).names[i]: p.min_degree_in(i) for i in sorted(type(p).laurent)
        },
        "terms": p.to_json(),
    }


@lru_cache(maxsize=None)
def _frame_changes():
    """Power tables of the ab variables in the cd frame, and of the cd
    variables in ab, kept for the whole process.

    Each frame's quadratic and cubic are the other's shifted by
    u -> u + s v: s = -c1/(2 c0) kills a1, and s = -b1/(3 b0) kills d1.
    """
    c0, c1, c2, d0, d2, d3 = (CurvePolyCD.variable(i) for i in range(6))
    s = c1 * c0 ** -1 * Fraction(-1, 2)
    a0, _, a2 = taylor_shift((c0, c1, c2), s)
    ab_in_cd = (a0, a2) + taylor_shift((d0, CurvePolyCD.zero(), d2, d3), s)

    a0, a2, b0, b1, b2, b3 = (CurvePolyAB.variable(i) for i in range(6))
    s = b1 * b0 ** -1 * Fraction(-1, 3)
    d0, _, d2, d3 = taylor_shift((b0, b1, b2, b3), s)
    cd_in_ab = taylor_shift((a0, CurvePolyAB.zero(), a2), s) + (d0, d2, d3)
    return PowerTable(ab_in_cd, CurvePolyCD.one()), PowerTable(cd_in_ab, CurvePolyAB.one())


def ab_to_cd(p):
    """Express an ab-frame polynomial in the cd frame (Laurent in c0)."""
    return compose(p, _frame_changes()[0])


def cd_to_ab(p):
    """Express a cd-frame polynomial in the ab frame (Laurent in b0).

    Negative c0 powers are allowed and land on a0, so the two frame
    changes are mutually inverse on everything either of them produces.
    """
    return compose(p, _frame_changes()[1])


def c0_valuation(p):
    """The least power of c0 in the cd-frame image of an ab-frame polynomial."""
    return ab_to_cd(p).min_degree_in(0)


def image_terms_bound(p):
    """At most how many terms `ab_to_cd(p)` builds before they merge, for p with
    no negative exponent: the e-th power of an n-term image has C(e + n - 1, e)."""
    counts = [len(image.terms) for image in _frame_changes()[0].images]
    return sum(prod(comb(e + n - 1, e) for e, n in zip(exps, counts)) for exps in p.terms)


def is_triality_invariant(p):
    """Membership test: the cd-frame image has no negative powers of c0."""
    return c0_valuation(p) >= 0


@lru_cache(maxsize=None)
def _core_image(core):
    """The cd-frame image of an ab monomial with no a0 and no b0, kept for the process."""
    return ab_to_cd(CurvePolyAB.monomial(core))


def negative_c0_part(mono):
    """The negative-c0 terms of the cd-frame image of the ab monomial with
    these exponents, read off the kept image of its a0/b0-free core, as
    (integer numerators, the image's denominator)."""
    j, l = mono[0], mono[2]
    num, den = stored(_core_image((0, mono[1], 0) + mono[3:]))
    return {
        (e[0] + j,) + e[1:3] + (e[3] + l,) + e[4:]: n for e, n in num.items() if e[0] + j < 0
    }, den


# -- evaluation into the invariant ring ------------------------------------------


@lru_cache(maxsize=None)
def _frame_forms():
    """Power tables of the twelve coefficient values as exact K,L,M,N forms
    over E4, E6 and Delta, the ab frame's and the cd frame's, over
    `ModularKLMN.one`."""
    K, L, M, N, e4, e6, delta = (ModularKLMN.variable(i) for i in range(7))
    e4i, e6i = e4 ** -1, e6 ** -1
    ab = (
        e4 / 12,
        K * K * delta * e4i / 4 - L * e6 / 24 + M * e4 / 24,
        e6 / 216,
        K * delta * e4i,
        -(K * K * e6 * delta * e4i ** 2) / 24 - L * e4 ** 2 / 288 + M * e6 / 288,
        -(K ** 3 * delta ** 2 * e4i ** 3) + K * M * delta * e4i / 4 + N * delta / 4,
    )
    cd = (
        e4 / 12,
        K * delta * e6i * -12,
        K * K * e4 ** 2 * delta * e6i ** 2 / 4 - L * e6 / 24 + M * e4 / 24,
        e6 / 216,
        -(K * K * e4 * delta * e6i) / 24 - L * e4 ** 2 / 288 + M * e6 / 288,
        K ** 3 * delta ** 2 * e6i ** 2 * 2 + K * L * e4 * delta * e6i / 4 + N * delta / 4,
    )
    one = ModularKLMN.one()
    return PowerTable(ab, one), PowerTable(cd, one)


@lru_cache(maxsize=None)
def _frame_values(order):
    """Power tables of the twelve coefficient values at this order, the ab
    frame's and the cd frame's, kept for the process."""
    one = Invariant.one(LATTICE * order)
    return tuple(PowerTable((f.evaluate(order) for f in t.images), one) for t in _frame_forms())


def exact_ab(p):
    """The exact value of an ab-frame polynomial: its Delta-free K,L,M,N form
    over E4 and E6 (`invariant_ring.reduce_delta`), for every order at once."""
    return reduce_delta(compose(p, _frame_forms()[0]))


def _evaluate(p, table):
    """`compose(p, table)` for a `_frame_values` table, core by core: a core
    with one monomial adds its image, and the unit images of a core with
    more are summed into one series s that each coefficient c of the core's
    image meets once, cut to c's window.  p's grading is checked first, as
    a sum of parts that cancel within the window would not check it, and
    the parts are added over p's denominator."""
    grading = [p.weighted_degree(row) for row in (type(p).WEIGHTS, type(p).DEGREES)]
    laurent = type(p).laurent
    num, den = stored(p)
    groups = {}
    for exps, n in num.items():
        core = tuple(0 if i in laurent else e for i, e in enumerate(exps))
        groups.setdefault(core, []).append((exps, n))
    parts = []
    for core, group in groups.items():
        if len(group) == 1:
            (exps, n), = group
            parts.append(table.monomial(exps) * n)
            continue
        units = Invariant._sum(table.monomial(tuple(map(sub, e, core))) * n for e, n in group)
        s = units.constant_series()
        image = table.monomial(core)
        scaled = {e: (c * s).truncate(c.trunc) for e, c in image.terms.items()}
        parts.append(Invariant._new(scaled, image.weight + units.weight, image.degree))
    total = Invariant._sum(parts, *grading)
    return total if den == 1 else total * Fraction(1, den)


def evaluate_ab(p, order):
    """Substitute the concrete coefficient values into an ab-frame polynomial.

    Only the unit coefficients a0, b0, c0, d0 (pure series of valuation 0)
    are ever inverted, where a frame change left them a negative power.
    The monomials that share a core multiply its image once (`_evaluate`).
    """
    return _evaluate(p, _frame_values(order)[0])


def evaluate_cd(p, order):
    """`evaluate_ab` for a cd-frame polynomial, over the cd frame's values."""
    return _evaluate(p, _frame_values(order)[1])


def jacobian_klmn(order):
    """Determinants of the frame coefficients by formal K, L, M, N.

    Returns (det d(a2,b1,b2,b3)/d(K,L,M,N), det d(c1,c2,d2,d3)/d(K,L,M,N))
    as plain series: both are constant as K,L,M,N-polynomials.
    """
    ab, cd = (table.images for table in _frame_forms())
    dets = jacobian((ab[1], ab[3], ab[4], ab[5])), jacobian((cd[1], cd[2], cd[4], cd[5]))
    return tuple(det.evaluate(order).constant_series() for det in dets)
