"""Sparse multivariate polynomials over exact rationals, and the term kernels.

`SparsePoly` backs the rational polynomial flavors in the package
(z-variables, the Weyl generators, the two curve-coefficient frames,
binary-form coefficients).  Like a `FracSeries`, it stores integer
numerators over one positive denominator in the canonical form of
`_reduced`, and `terms` is the read-only Fraction view `_Terms`, whose
`len` and iteration build no Fraction.  Both types derive from
`_IntegerStore`, the one definition of that store's read side (`terms`,
`is_zero`, division by a scalar), and other modules read the store only
through `stored`.  Subclasses fix the
arity, print names and which variables may carry negative (Laurent)
exponents.  The constructor validates values built from outside input;
arithmetic results go through the trusted `_new`, which only reduces, and
sums through the one-pass `_sum` over the lcm of the denominators; a
product is `mul_terms` on the numerators.  `monomial_degree` is the one
grading rule for a monomial under a weight row; `weighted_degree` applies
it to every term, is the one homogeneity check of the package (mostly on a
weight row its class declares), and raises NotHomogeneousError.  The
polynomials with q-series coefficients live in `invariant_ring` and share
the term kernels (`add_terms`, `mul_terms`, square-and-multiply `power`),
`monomial_degree` and `compose`, but only a `SparsePoly` differentiates:
`jacobian`, the one determinant of a matrix of partials, by `ring_det`, a
plain cofactor expansion (every caller's matrix is 4x4).  `PowerTable` is
the one home of monomial images: it windows each image once by the
target's `one` and keeps each power it builds; its `monomial` may return
a kept power or `one`, which every caller copies into a new value.
`format_terms` is the one term printer of `SparsePoly` and `FracSeries`,
`format_monomial` the one monomial text of both polynomial types, and
`fraction_text` the one JSON coefficient text of both, read off the store.
`taylor_shift` is the one shift u -> u + s v of a binary form's
coefficients, from which every frame change and hat substitution of the
package is built.  `bounded_monomials` lists the exponent vectors of fixed
weighted degrees, building the cells below a target in a loop from the
bottom up, and keeps every cell for the process.

The canonical term order used everywhere is graded lexicographic with the
first variable largest; `sorted_terms` lists terms in decreasing order.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import reduce
from math import comb, gcd, lcm
from operator import add, mul, sub


class NotHomogeneousError(ValueError):
    """Monomials disagree under a grading."""


class _Terms(Mapping):
    """Read-only {key: Fraction} view of numerators over one denominator."""

    __slots__ = ("_num", "_den")

    def __init__(self, num, den):
        self._num, self._den = num, den

    def __getitem__(self, key):
        return Fraction(self._num[key], self._den)

    def __iter__(self):
        return iter(self._num)

    def __len__(self):
        return len(self._num)


def _reduced(num, den):
    """Drop zero numerators and divide out the gcd of den and the rest; num is
    a new dict, which the result may keep."""
    if 0 in num.values():
        num = {e: n for e, n in num.items() if n}
    g = gcd(den, *num.values())
    if g == 1:
        return num, den
    return {e: n // g for e, n in num.items()}, den // g


def _over_lcm(fractions):
    """The reduced stored form of a {key: Fraction} dict."""
    den = lcm(*(c.denominator for c in fractions.values()))
    return _reduced({e: c.numerator * (den // c.denominator) for e, c in fractions.items()}, den)


def _grlex_key(exps):
    return (sum(exps), exps)


def monomial_degree(weights, exps):
    """Degree of the monomial with these exponents under a weight row."""
    return sum(map(mul, weights, exps))


def add_terms(acc, terms):
    """Add the {exps: coeff} items of terms into the dict acc, in place."""
    for exps, c in terms.items():
        cur = acc.get(exps)
        acc[exps] = c if cur is None else cur + c


def mul_terms(left, right):
    """Product of two {exps: coeff} dicts; terms that cancel stay in it."""
    out = {}
    for e1, c1 in left.items():
        for e2, c2 in right.items():
            e = tuple(map(add, e1, e2))
            prod = c1 * c2
            cur = out.get(e)
            out[e] = prod if cur is None else cur + prod
    return out


def derivative_terms(terms, i):
    """Partial derivative by variable i of a {exps: coeff} dict."""
    return {
        exps[:i] + (e - 1,) + exps[i + 1 :]: c * e for exps, c in terms.items() if (e := exps[i])
    }


def power(base, n):
    """base ** n for an integer n >= 1, by square-and-multiply."""
    result = None
    while True:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if not n:
            return result
        base = base * base


# every cell `bounded_monomials` has built, kept for the process: (weights, targets) -> monomials
_cells = {}


def bounded_monomials(weights, targets):
    """Exponent tuples e >= 0 with sum_i row[i] * e[i] == target for every
    (row, target) in zip(weights, targets), as a tuple in decreasing grlex
    order, kept for the process; both arguments are tuples.

    Every weight is nonnegative and every variable weighs something in some
    row, so each column lowers sum(targets): a cell's monomials are
    e + unit_i over each cell targets - column_i >= 0, and the cells below
    are built first, in a loop by increasing sum(targets).
    """
    columns = tuple(zip(*weights))
    below, todo = {}, [targets]  # cell -> its (i, targets - column_i >= 0)
    while todo:
        t = todo.pop()
        if t in below or (weights, t) in _cells:
            continue
        rests = [tuple(map(sub, t, column)) for column in columns]
        below[t] = [(i, rest) for i, rest in enumerate(rests) if min(rest) >= 0]
        todo.extend(rest for _, rest in below[t])
    for t in sorted(below, key=sum):
        found = set() if any(t) else {(0,) * len(columns)}
        for i, rest in below[t]:
            found.update(e[:i] + (e[i] + 1,) + e[i + 1 :] for e in _cells[weights, rest])
        _cells[weights, t] = tuple(sorted(found, key=_grlex_key, reverse=True))
    return _cells[weights, targets]


def format_terms(terms):
    """Text of a sum of (coefficient, monomial text) pairs, "" for the unit
    monomial: a coefficient of +-1 shows only its sign, and "0" for no terms."""
    parts = []
    for c, mono in terms:
        if mono and abs(c) == 1:
            parts.append(("-" if c < 0 else "") + mono)
        else:
            parts.append(str(c) + ("*" + mono if mono else ""))
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def fraction_text(n, den):
    """The reduced fraction n/den as "num/den", with "/1" for an integer:
    den > 0, and no Fraction is built."""
    g = gcd(n, den)
    return f"{n // g}/{den // g}"


def format_monomial(names, exps):
    """Text of a monomial, "" for the unit: name^e per variable, no "^1"."""
    return "*".join(n + (f"^{e}" if e != 1 else "") for n, e in zip(names, exps) if e)


class _IntegerStore:
    """The read side of the integer store, written once for `SparsePoly` and
    `exact_series.FracSeries`: both keep `_num` and `_den` as `_reduced`
    makes them, and divide by a scalar through their own product."""

    @property
    def terms(self):
        """Read-only {key: Fraction} view of the nonzero coefficients."""
        return _Terms(self._num, self._den)

    @property
    def is_zero(self):
        return not self._num

    __hash__ = None

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented


class SparsePoly(_IntegerStore):
    """`_num` maps exponent tuples to nonzero integer numerators over the
    positive denominator `_den`, and gcd(_den, *_num.values()) == 1."""

    nvars = 0
    names = ()
    laurent = frozenset()

    def __init__(self, terms=()):
        clean = {}
        for exps, coeff in (terms.items() if isinstance(terms, Mapping) else terms):
            coeff = Fraction(coeff)
            if not coeff:
                continue
            exps = tuple(int(e) for e in exps)
            if len(exps) != self.nvars:
                raise ValueError(f"expected {self.nvars} exponents, got {exps}")
            for i, e in enumerate(exps):
                if e < 0 and i not in self.laurent:
                    raise ValueError(f"negative exponent on {self.names[i]}")
            clean[exps] = clean.get(exps, 0) + coeff
        self._num, self._den = _over_lcm(clean)

    @classmethod
    def _new(cls, num, den=1):
        """Arithmetic results: integer numerators over den > 0, reduced here."""
        value = cls.__new__(cls)
        value._num, value._den = _reduced(num, den)
        return value

    @classmethod
    def _sum(cls, values):
        """Sum of values of this type, added into one dict in one pass over
        the lcm of their denominators."""
        num, den = {}, 1
        for value in values:
            if den % value._den:
                grown = lcm(den, value._den)
                num = {e: n * (grown // den) for e, n in num.items()}
                den = grown
            scale = den // value._den
            add_terms(num, value._num if scale == 1 else {e: n * scale for e, n in value._num.items()})
        return cls._new(num, den)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls.constant(1)

    @classmethod
    def constant(cls, value):
        """The constant value, an int or a Fraction."""
        return cls._new({(0,) * cls.nvars: value.numerator}, value.denominator)

    @classmethod
    def variable(cls, i, power=1):
        exps = [0] * cls.nvars
        exps[i] = power
        # a negative power goes through the constructor's Laurent check
        return cls._new({tuple(exps): 1}) if power >= 0 else cls.monomial(exps)

    @classmethod
    def monomial(cls, exps, coeff=1):
        return cls({tuple(exps): Fraction(coeff)})

    # -- queries -------------------------------------------------------

    def __bool__(self):
        return bool(self._num)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def total_degree(self):
        return max((sum(e) for e in self._num), default=0)

    def min_degree_in(self, i):
        return min((e[i] for e in self._num), default=0)

    def weighted_degree(self, weights):
        """Common degree of all terms under the weight row; 0 for zero."""
        degs = {monomial_degree(weights, exps) for exps in self._num}
        if len(degs) > 1:
            raise NotHomogeneousError(f"not homogeneous: weighted degrees {sorted(degs)}")
        return degs.pop() if degs else 0

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._sum((self, other))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._new({e: -n for e, n in self._num.items()}, self._den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # like ** 1, times 1 is the value itself (arithmetic never mutates a value)
            if other == 1:
                return self
            c = other.numerator
            return self._new({e: c * n for e, n in self._num.items()}, self._den * other.denominator)
        if type(other) is not type(self):
            return NotImplemented
        return self._new(mul_terms(self._num, other._num), self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int):
            raise ValueError("polynomial powers must be integers")
        if n < 0:
            # only a Laurent monomial is a unit
            if len(self._num) != 1:
                raise ValueError("negative power of a polynomial that is not a monomial")
            (exps, coeff), = self.terms.items()
            return type(self).monomial(tuple(-e for e in exps), 1 / coeff) ** -n
        if n == 0:
            return type(self).one()
        return power(self, n)

    def derivative(self, i):
        return self._new(derivative_terms(self._num, i), self._den)

    # -- output ----------------------------------------------------------

    def to_json(self):
        num, den = self._num, self._den
        return [[list(e), fraction_text(num[e], den)] for e in sorted(num, key=_grlex_key, reverse=True)]

    def __str__(self):
        return format_terms((c, format_monomial(self.names, e)) for e, c in self.sorted_terms())

    def __repr__(self):
        return f"{type(self).__name__}({self!s})"


def stored(poly):
    """(numerators, denominator): the stored form of a `SparsePoly`, for a
    reader that needs its integers; never changed."""
    return poly._num, poly._den


class PowerTable:
    """Powers of fixed images in a target ring, built on demand and kept.

    `one` is the unit of the target ring.  Each image is multiplied by it
    once, which cuts a series image to one's window; a product of nonzero
    series is as wide as its narrowest factor, so no monomial image is
    wider than `one`.  Powers are built one factor at a time, up (or down)
    from the nearest power already stored, so a table grows only to the
    largest exponent asked of it.  A negative exponent builds on
    images[i] ** -1, which the target ring defines only for its units; when
    that raises, the table keeps what it had.

    Each image set kept for the process has one cached builder, which
    returns its table (per order for series images); a table built inside
    a call caches within that call only.
    """

    def __init__(self, images, one):
        self.one = one
        self.images = tuple(one * image for image in images)
        self.powers = [{0: one, 1: image} for image in self.images]

    def power(self, i, e):
        cache = self.powers[i]
        if e not in cache:
            if e < 0 and -1 not in cache:
                cache[-1] = self.images[i] ** -1
            step, factor = (1, self.images[i]) if e > 0 else (-1, cache[-1])
            k = e
            while k not in cache:
                k -= step
            while k != e:
                k += step
                cache[k] = cache[k - step] * factor
        return cache[e]

    def monomial(self, exps):
        """The image of the monomial with these exponents: the product of its
        kept powers, or `one` for the constant monomial.  It may be a kept
        value, so a caller builds a new value from it and never changes it."""
        factors = [self.power(i, e) for i, e in enumerate(exps) if e]
        return reduce(mul, factors) if factors else self.one


def compose(poly, table):
    """Substitute table.images[i] for variable i of poly, in the table's ring:
    the images of the monomials times their numerators, summed, over the
    denominator once."""
    total = type(table.one)._sum(table.monomial(exps) * n for exps, n in poly._num.items())
    return total if poly._den == 1 else total * Fraction(1, poly._den)


def taylor_shift(coeffs, s):
    """Coefficients of F(u + s v, v) for the binary form F = sum coeffs[i] u^(n-i) v^i.

    out_i = sum over j <= i of C(n-j, i-j) s^(i-j) coeffs[j].  The
    coefficients and s may lie in any commutative ring with integer
    multiples; shifting by s and then by t is shifting by s + t.
    """
    n = len(coeffs) - 1
    return tuple(
        sum((comb(n - j, i - j) * s ** (i - j) * coeffs[j] for j in range(i)), coeffs[i])
        for i in range(n + 1)
    )


def ring_det(matrix):
    """Determinant of a small square matrix of polynomials of one type.

    Cofactor expansion along the first row; each minor is one `_sum` of its
    signed cofactor products.  The recursion runs in an inner helper, so
    `ring_det` itself is entered once per determinant.
    """
    if not matrix:
        raise ValueError("empty matrix")

    def det(rows):
        if len(rows) == 1:
            return rows[0][0]
        minors = ([row[:k] + row[k + 1 :] for row in rows[1:]] for k in range(len(rows)))
        products = (x * det(minor) for x, minor in zip(rows[0], minors))
        return type(rows[0][0])._sum(-p if k % 2 else p for k, p in enumerate(products))

    return det(matrix)


def jacobian(polys):
    """Determinant of the partials of polys[i] by variable j, for i, j < len(polys)."""
    return ring_det([[p.derivative(j) for j in range(len(polys))] for p in polys])
