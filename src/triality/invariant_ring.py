"""The bigraded ring of (weak) D4 triality invariants.

The ring is written over two sets of four generators, and `SeriesPoly`
is the one polynomial type for both: a finite sum of generator monomials
whose coefficients are exact q-series on the (1/24)Z lattice, together
with its declared modular weight and its polynomial degree in the
z-variables.  Weight is metadata fixed at the construction sites (the
named modular series know their weights) and propagated additively by
arithmetic.  The constructor, for values built from outside input, checks
every monomial's degree against the declared one; arithmetic results go
through the trusted `_new` and sums through the one-pass `_sum`, where
the first summand nonzero within its window fixes the grading.  Either
raises `_poly.NotHomogeneousError`, the one error for gradings that
disagree.  The term kernels (product, square-and-multiply) are `_poly`'s;
a series polynomial is never differentiated.

`Invariant` is the element over the Weyl generators I2, I4, I6, I~4
(degrees 2, 4, 6, 4).  The module provides its exponent-shift injection,
which converts the cusp condition into plain q-regularity, and the
resulting three-way classification (invariant / weak only / neither).
`WeylForm` is its exact form over M(Gamma(2)) = Q[e1, e2], in which
`klmn_forms` writes the four fundamental weak invariants K, L, M, N once.
`KLMNPoly` is the element over K, L, M, N, which generate freely over the
level-1 forms E4, E6 (Wirthmueller).  `ModularKLMN` needs no window: it is
the rational polynomial in K, L, M, N, E4, E6, Delta (Laurent in E4 and E6) that a
K,L,M,N polynomial with coefficients in Q[E4^+-1, E6^+-1, Delta] is, for
every order at once.  Its value at an order is `ModularKLMN.evaluate`: the
E4, E6, Delta part of each K,L,M,N monomial summed into one series, then `klmn`
substituted.  `express_in_klmn` rewrites an invariant exactly, as the
`ModularKLMN` form it equals: a change of generators, then a fit of each
coefficient into rationals on E4^a E6^b Delta^j (`fit_coefficients`),
within a window that must pin every rational down.  `reduce_delta` writes
Delta out as (E4^3 - E6^2)/1728; as E4, E6 are algebraically independent
and K, L, M, N free over them, two forms are one value exactly when these
normal forms are equal, and a form lies in C[E4, E6][K, L, M, N] exactly
when its normal form has no negative power of E4 or E6.

`change_generators` reads each monomial's image from a `_poly.PowerTable`,
which windows each image once by its `one`; the image may be a kept power,
and its coefficient scales it into a new value.  Each kept image set has
one cached builder per order, which returns its table: `weyl_and_e`
(formal I2, I4, I6, I~4 and the series e1, e2 over `Invariant.one`, read
by `WeylForm.evaluate`), `klmn` (the values of `klmn_forms`, read by
`ModularKLMN.evaluate` and `verify`), `weyl_in_klmn` (over
`KLMNPoly.one`, read by `express_in_klmn`) and `modular_in_klmn` (the
plain series E4, E6, Delta over the unit series, read by `_modular_basis`
and by `ModularKLMN.evaluate`).
`SeriesPoly.variable` is the one formal generator, graded by its class's
rows.  So every series power is built once per order, and a table at one
order never serves another, whose window differs; the order-free
`_delta_reduction` (over `ModularKLMN.one`) has one for the process.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import _poly
from ._poly import (
    PowerTable, SparsePoly, _grlex_key, add_terms, format_monomial, monomial_degree, mul_terms, power,
)
from .exact_series import LATTICE, FracSeries, e_series, eisenstein, eta_delta
from .weyl_poly import I_DEGREES, IPoly

INVARIANT = "invariant"
WEAK_ONLY = "weak_only"
NOT_WEAK = "not_weak"

ONE_EXPS = (0, 0, 0, 0)

KLMN_WEIGHTS = (0, 2, 4, 0)
KLMN_DEGREES = (2, 4, 4, 6)


class HasPoleError(ValueError):
    """The injected series has negative q-powers."""


class NoRepresentationError(ValueError):
    """A rewritten coefficient is not in C[E4, E6] within the window."""


class AmbiguousRepresentationError(ValueError):
    """The window is too short to pin a rewritten coefficient down."""


class SeriesPoly:
    """Polynomial in four graded generators with q-series coefficients.

    Subclasses fix the generator names, their formal weights and degrees,
    and the JSON kind.  The declared (weight, degree) of the whole value
    splits per monomial into the coefficient weight plus the formal ones.
    Values of different subclasses never mix.  A coefficient that is zero
    within its window is kept for that window, and output skips it.
    """

    NAMES = ()
    WEIGHTS = (0, 0, 0, 0)
    DEGREES = ()
    KIND = ""

    def __init__(self, terms, weight, degree):
        self.weight = int(weight)
        self.degree = int(degree)
        self.terms = {tuple(int(e) for e in exps): s for exps, s in terms.items()}
        for exps in self.terms:
            mono_degree = monomial_degree(self.DEGREES, exps)
            if mono_degree != self.degree:
                raise _poly.NotHomogeneousError(
                    f"monomial {exps} has degree {mono_degree}, declared {self.degree}"
                )

    @classmethod
    def _new(cls, terms, weight, degree):
        """Arithmetic results: skip the degree check."""
        value = cls.__new__(cls)
        value.weight = weight
        value.degree = degree
        value.terms = terms
        return value

    @classmethod
    def _sum(cls, values, weight=0, degree=0):
        """Sum of values of this type, added into one dict in one pass.  The
        first summand nonzero within its window fixes the grading, (weight,
        degree) if none is; a later nonzero one of another raises NotHomogeneousError."""
        terms = {}
        grading = None
        for value in values:
            if not value.is_zero:
                grading = grading or (value.weight, value.degree)
                if grading != (value.weight, value.degree):
                    raise _poly.NotHomogeneousError(
                        "cannot add ({},{}) and ({},{})".format(*grading, value.weight, value.degree)
                    )
            add_terms(terms, value.terms)
        return cls._new(terms, *(grading or (weight, degree)))

    @classmethod
    def zero(cls):
        return cls._new({}, 0, 0)

    @classmethod
    def one(cls, trunc):
        """The unit, with its series known below t^trunc."""
        return cls._new({ONE_EXPS: FracSeries.constant(1, trunc)}, 0, 0)

    @classmethod
    def variable(cls, i, trunc):
        """Generator i, graded by WEIGHTS[i] and DEGREES[i], with the unit
        series known below t^trunc as its coefficient."""
        exps = tuple(int(j == i) for j in range(4))
        return cls._new({exps: FracSeries.constant(1, trunc)}, cls.WEIGHTS[i], cls.DEGREES[i])

    @classmethod
    def from_series(cls, series, weight):
        return cls({ONE_EXPS: series}, weight, 0)

    # -- structure -------------------------------------------------------

    @property
    def is_zero(self):
        return all(s.is_zero for s in self.terms.values())

    def common_trunc(self):
        return min((s.trunc for s in self.terms.values()), default=None)

    def constant_series(self):
        """The coefficient of the empty monomial; raises if others are present."""
        extra = [e for e, s in self.terms.items() if any(e) and not s.is_zero]
        if extra:
            raise ValueError(f"not a constant: contains {extra}")
        return self.terms.get(ONE_EXPS)

    def series_weight(self, exps):
        return self.weight - monomial_degree(self.WEIGHTS, exps)

    def __eq__(self, other):
        """Equal on each coefficient's common window, whatever the gradings."""
        if type(other) is not type(self):
            return NotImplemented
        difference = dict(self.terms)
        add_terms(difference, (-other).terms)
        return all(s.is_zero for s in difference.values())

    __hash__ = None

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._sum((self, other), self.weight, self.degree)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._new({e: -s for e, s in self.terms.items()}, self.weight, self.degree)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale_series(other, 0)
        if type(other) is not type(self):
            return NotImplemented
        return self._new(
            mul_terms(self.terms, other.terms), self.weight + other.weight, self.degree + other.degree
        )

    __rmul__ = __mul__

    def change_generators(self, table):
        """Substitute table.images[i] (of weight WEIGHTS[i]) for generator i, in
        the table's ring; each coefficient scales its monomial's image."""
        scaled = (table.monomial(e).scale_series(s, self.series_weight(e)) for e, s in self.terms.items())
        return type(table.one)._sum(scaled, self.weight, self.degree)

    def scale_series(self, series, series_weight):
        """Multiply by a degree-0 modular series of known weight (or a rational)."""
        return self._new(
            {e: s * series for e, s in self.terms.items()},
            self.weight + series_weight,
            self.degree,
        )

    def __pow__(self, n):
        if not isinstance(n, int):
            raise ValueError("powers must be integers")
        if n < 0:
            # only a degree-0 value with a single series coefficient is a unit
            if self.degree or set(self.terms) != {ONE_EXPS}:
                raise ValueError("negative power of a value that is not a single series")
            inverse = self.terms[ONE_EXPS].inverse()
            return self._new({ONE_EXPS: inverse}, -self.weight, 0) ** -n
        if n == 0:
            return self.one(LATTICE if (trunc := self.common_trunc()) is None else trunc)
        return power(self, n)

    def truncate(self, trunc):
        return self._new(
            {e: s.truncate(trunc) for e, s in self.terms.items()}, self.weight, self.degree
        )

    # -- output ---------------------------------------------------------------

    def _sorted_monomials(self):
        """Monomials with a coefficient that is nonzero within its window."""
        shown = [e for e, s in self.terms.items() if not s.is_zero]
        return sorted(shown, key=_grlex_key, reverse=True)

    def to_json(self):
        return {
            "kind": self.KIND,
            "grading": {"weight": self.weight, "degree": self.degree},
            "exponent_lattice": LATTICE,
            "trunc": self.common_trunc(),
            "terms": [
                [list(exps), self.terms[exps].to_json()["terms"]]
                for exps in self._sorted_monomials()
            ],
        }

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for exps in self._sorted_monomials():
            mono = format_monomial(self.NAMES, exps)
            parts.append(f"({self.terms[exps]})" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)

    def __repr__(self):
        return f"{type(self).__name__}({self!s}, weight={self.weight}, degree={self.degree})"


class Invariant(SeriesPoly):
    """Element of the Weyl-generator ring with q-series coefficients."""

    NAMES = ("I2", "I4", "I6", "I~4")
    DEGREES = I_DEGREES
    KIND = "invariant"

    # bound here too, so this class's own __dict__ holds its multiply for tracers
    __mul__ = __rmul__ = SeriesPoly.__mul__

    # -- the injection and classification -----------------------------------

    def inject(self):
        """Substitute generators by themselves over q^-1 (I~4 over q^-1/2).

        The coefficient of the monomial (a, b, c, d) is shifted by
        t^-(24a+24b+24c+12d); the grading is unchanged.
        """
        half = LATTICE // 2
        terms = {e: s.shift(-LATTICE * sum(e[:3]) - half * e[3]) for e, s in self.terms.items()}
        return self._new(terms, self.weight, self.degree)

    def classify(self):
        """invariant / weak_only / not_weak, relative to the truncation window.

        The value is an invariant iff the injected form is a power series in
        integer powers of q; it is weak iff the raw expansion sits on the
        nonnegative q^(1/2) lattice with integer powers on the even part in
        I~4 and half-odd-integer powers on the odd part.  Nonzero values of
        negative or odd weight are never (weak) invariants.
        """
        if not self.is_zero and (self.weight < 0 or self.weight % 2):
            return NOT_WEAK
        injected = self.inject().terms.values()
        if all(e >= 0 and e % LATTICE == 0 for s in injected for e in s.terms):
            return INVARIANT
        weak = all(
            e >= 0 and e % LATTICE == LATTICE // 2 * (exps[3] % 2)
            for exps, s in self.terms.items()
            for e in s.terms
        )
        return WEAK_ONLY if weak else NOT_WEAK

    def leading_ipoly(self):
        """The q^0 coefficient of the injected form, as an IPoly.

        Raises UnknownCoefficientError when one of them lies at or beyond
        its series' window.
        """
        coeffs = {}
        for exps, series in self.inject().terms.items():
            if not series.is_zero and series.valuation < 0:
                raise HasPoleError(f"injected coefficient of {exps} has a pole")
            c = series.coeff(0)
            if c:
                coeffs[exps] = c
        return IPoly(coeffs)


# -- the fundamental weak invariants -------------------------------------------


class WeylForm(SparsePoly):
    """Rational polynomial in I2, I4, I6, I~4 and the weight-2 forms e1, e2
    (e3 = -e1 - e2): an `Invariant` for every order at once.  The Weyl
    generators come first, so `_poly.jacobian` differentiates by them."""

    nvars = 6
    names = Invariant.NAMES + ("e1", "e2")

    def evaluate(self, order):
        """The `Invariant` value at this order: `compose` over `weyl_and_e`."""
        return _poly.compose(self, weyl_and_e(order))


@lru_cache(maxsize=None)
def weyl_and_e(order):
    """The power table of the six `WeylForm` generators at the given order,
    over `Invariant.one`: formal I2, I4, I6, I~4 and the series e1, e2."""
    if order < 2:
        raise ValueError("order must be >= 2")
    trunc = LATTICE * order
    images = [Invariant.variable(i, trunc) for i in range(4)]
    images += [Invariant.from_series(e, 2) for e in e_series(order)[:2]]
    return PowerTable(images, Invariant.one(trunc))


@lru_cache(maxsize=None)
def klmn_forms():
    """K, L, M, N as `WeylForm`s: K = I2, L = sum e_i T_i, M = 12 sum e_i^2 T_i,
    N = I6/4 - I2 I4/24 + I2^3/96, with T1 = I4/6 - I2^2/24 and T2, T3 =
    -T1/2 -+ I~4/2; gradings (weight, degree) (0,2), (2,4), (4,4), (0,6)."""
    I2, I4, I6, I4t, e1, e2 = (WeylForm.variable(i) for i in range(6))
    T1 = I4 / 6 - I2 * I2 / 24
    pairs = tuple(zip((e1, e2, -e1 - e2), (T1, -T1 / 2 - I4t / 2, -T1 / 2 + I4t / 2)))
    L = WeylForm._sum(e * t for e, t in pairs)
    M = WeylForm._sum(e * e * t for e, t in pairs) * 12
    return I2, L, M, I6 / 4 - I2 * I4 / 24 + I2 ** 3 / 96


@lru_cache(maxsize=None)
def klmn(order):
    """The power table of `klmn_forms` at this order; `.images` holds the four."""
    return PowerTable((f.evaluate(order) for f in klmn_forms()), Invariant.one(LATTICE * order))


# -- polynomials in formal K, L, M, N -------------------------------------------


class KLMNPoly(SeriesPoly):
    """Polynomial in formal K, L, M, N with q-series coefficients.

    Formal weights (0, 2, 4, 0) and degrees (2, 4, 4, 6).
    """

    NAMES = ("K", "L", "M", "N")
    WEIGHTS = KLMN_WEIGHTS
    DEGREES = KLMN_DEGREES
    KIND = "klmn_poly"

    # bound here too, so this class's own __dict__ holds its multiply for tracers
    __mul__ = __rmul__ = SeriesPoly.__mul__


@lru_cache(maxsize=None)
def weyl_in_klmn(order):
    """The power table of I2, I4, I6, I~4 as polynomials in formal K, L, M, N
    at the given order, over `KLMNPoly.one`; `.images` holds the four.

    The inverse of `klmn`: I2 = K, I4 = 6 T1 + K^2/4, I6 = 4N + K T1 and
    I~4 = -T1 - 2 T2, where (T1, T2) solve L = (e1-e3) T1 + (e2-e3) T2 and
    M = 12 (e1^2-e3^2) T1 + 12 (e2^2-e3^2) T2, a 2x2 system of determinant
    -3 eta^12.  Dividing by it costs up to one power of q of window.  T1, T2
    stay on this solve, not on exact forms over Q[e1, e2]: T2's denominator
    holds e2 - e3 = theta2^4/4, of valuation q^(1/2), because I~4 = T3 - T2
    is the q^(1/2)-odd part, and T1 alone over its unit denominator
    -12 (e1 - e2)(e3 - e1) would move the kept windows.
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    trunc = LATTICE * order
    e1, e2, e3 = e_series(order)
    a, b = e1 - e3, e2 - e3
    c, d = (e1 * e1 - e3 * e3) * 12, (e2 * e2 - e3 * e3) * 12
    inv_det = (a * d - b * c).inverse()
    T1 = KLMNPoly({(0, 1, 0, 0): d * inv_det, (0, 0, 1, 0): -b * inv_det}, 0, 4)
    T2 = KLMNPoly({(0, 1, 0, 0): -c * inv_det, (0, 0, 1, 0): a * inv_det}, 0, 4)
    K, N = KLMNPoly.variable(0, trunc), KLMNPoly.variable(3, trunc)
    weyl = (K, T1 * 6 + K * K * Fraction(1, 4), N * 4 + K * T1, -T1 - T2 * 2)
    return PowerTable(weyl, KLMNPoly.one(trunc))


class ModularKLMN(SparsePoly):
    """Polynomial in formal K, L, M, N, E4, E6, Delta with rational
    coefficients, Laurent in E4 and E6: the exact, order-free form of a
    K,L,M,N polynomial whose series coefficients are rational multiples of
    E4^i E6^j Delta^k, such as `express_in_klmn` gives.

    E4, E6 and Delta are free here, so what cancels only by E4^3 - E6^2 =
    1728 Delta is kept, and its value is a series that is zero in its
    window; `reduce_delta` applies the relation.
    The rows grade it like `KLMNPoly`: `weight` adds the modular weights of
    E4, E6, Delta to the formal ones, and `degree` counts K, L, M, N alone.
    """

    nvars = 7
    names = KLMNPoly.NAMES + ("E4", "E6", "Delta")
    laurent = frozenset({4, 5})
    WEIGHTS = KLMN_WEIGHTS + (4, 6, 12)
    DEGREES = KLMN_DEGREES + (0, 0, 0)

    weight = property(lambda self: self.weighted_degree(self.WEIGHTS))
    degree = property(lambda self: self.weighted_degree(self.DEGREES))

    def evaluate(self, order):
        """The `Invariant` value at this order: each K,L,M,N monomial's E4, E6,
        Delta part summed into one series, then the sums taken through `klmn` once."""
        table, sums = modular_in_klmn(order), {}
        for exps, c in self.terms.items():
            add_terms(sums, {exps[:4]: table.monomial(exps[4:]) * c})
        return KLMNPoly._new(sums, self.weight, self.degree).change_generators(klmn(order))


@lru_cache(maxsize=None)
def modular_in_klmn(order):
    """The power table of the series E4, E6 and Delta at the given order,
    over the unit series: each E4^a E6^b Delta^j that `ModularKLMN.evaluate`
    and `_modular_basis` read is built once per order."""
    if order < 2:
        raise ValueError("order must be >= 2")
    images = (eisenstein(4, order), eisenstein(6, order), eta_delta(order)[1])
    return PowerTable(images, FracSeries.constant(1, LATTICE * order))


@lru_cache(maxsize=None)
def _delta_reduction():
    """The power table of K, L, M, N, E4, E6 and (E4^3 - E6^2)/1728 over
    `ModularKLMN.one`, kept for the process: Delta's image in E4 and E6."""
    K, L, M, N, e4, e6, _ = (ModularKLMN.variable(i) for i in range(7))
    return PowerTable((K, L, M, N, e4, e6, (e4 ** 3 - e6 ** 2) / 1728), ModularKLMN.one())


def reduce_delta(form):
    """The normal form of a `ModularKLMN` form: Delta replaced by
    (E4^3 - E6^2)/1728, so every value has exactly one Delta-free form."""
    return _poly.compose(form, _delta_reduction())


@lru_cache(maxsize=None)
def _modular_basis(weight, order):
    """(a, b, j, E4^a E6^b Delta^j), 4a + 6b = weight - 12j != 2, b in {0, 1}, one per
    j: a basis of C[E4, E6]_weight whose j-th element is q^j + O(q^(j+1))."""
    table = modular_in_klmn(order)
    basis = []
    for j in range(weight // 12 + 1):
        rest = weight - 12 * j
        if rest % 2 == 0 and rest != 2:
            b = rest % 4 // 2
            a = (rest - 6 * b) // 4
            basis.append((a, b, j, table.monomial((a, b, j)).truncate(LATTICE * order)))
    return tuple(basis)


def _fit_modular(series, weight, order):
    """{(a, b, j): c} of the form sum c E4^a E6^b Delta^j equal to series within its
    window (raises if none is), or None if the window ends before the last q^j."""
    basis = _modular_basis(weight, order)
    window = min(series.trunc, LATTICE * order)
    rest, fit = series, {}
    for a, b, j, element in basis:
        if LATTICE * j >= window:
            break
        c = rest.coeff(LATTICE * j)
        if c:
            rest = rest - element * c
            fit[a, b, j] = c
    if not rest.truncate(window).is_zero:
        raise NoRepresentationError(
            f"a weight-{weight} coefficient is not in C[E4, E6] within t^{window}"
        )
    return None if LATTICE * (len(basis) - 1) >= window else fit


def fit_coefficients(coeffs, order):
    """The `ModularKLMN` form of coeffs, each coefficient fitted into C[E4, E6].

    Raises NoRepresentationError when a coefficient is no form within its
    window, and AmbiguousRepresentationError when the window q^order is too
    short to pin every coefficient of the grading down.
    """
    fits = {
        exps: _fit_modular(series, coeffs.series_weight(exps), order)
        for exps, series in coeffs.terms.items()
    }
    # the window must also pin down the zero coefficients of the monomials
    # left out; a grading's widest spaces are at its weight and, next to L, 2 below
    widest = max(len(_modular_basis(coeffs.weight - b, order)) for b in (0, 2 * (coeffs.degree >= 4)))
    if widest > order or any(fit is None for fit in fits.values()):
        raise AmbiguousRepresentationError(
            f"window q^{order} is too short to pin every coefficient down"
        )
    return ModularKLMN({exps + abj: c for exps, fit in fits.items() for abj, c in fit.items()})


def express_in_klmn(phi):
    """Rewrite an invariant exactly, as the `ModularKLMN` form it equals.

    Substitutes `weyl_in_klmn` for the Weyl generators at the order of
    phi's window, which must reach q^2, fits every coefficient into C[E4, E6]
    of its weight, and checks the form by evaluating it over that whole window.
    That order, not the one phi was evaluated at, is what decides a curve
    value with Delta factors: they widen its window by a power of q or two,
    and at orders 2 to 4 that pins down rewrites the narrower order leaves
    ambiguous, at the cost of tables kept at the wider order too.
    """
    trunc = phi.common_trunc()
    if trunc is None:
        return ModularKLMN.zero()
    order = trunc // LATTICE
    if order < 2:
        raise AmbiguousRepresentationError(f"window t^{trunc} ends before q^2")
    rep = fit_coefficients(phi.change_generators(weyl_in_klmn(order)), order)
    if not rep.evaluate(order) == phi:
        raise NoRepresentationError("no representation matches the full window")
    return rep
