"""Truncated Laurent series in t = q^(1/24) with exact rational coefficients.

Every modular object in the package lives on the single exponent lattice
(1/24)Z, stored as integer exponents in t-units (q = t^24, q^(1/2) = t^12,
the eta prefactor q^(1/24) = t).  A series knows its truncation bound
`trunc`: coefficients at exponents >= trunc are unknown, never assumed zero.
Equality is therefore only ever tested on the common window of two series.

A series stores integer numerators over one positive common denominator,
reduced by the gcd of the denominator and all numerators, so its stored
form is canonical.  `_poly`'s `SparsePoly` is stored the same way, through
the same reduction; both types derive from `_poly._IntegerStore`, which
reads the store (`terms`, `is_zero`, division by a scalar), and no other
module reads either.  Sums scale both sides to the lcm of the
denominators, and products are integer convolutions over the product of
the denominators, on three kernels that give the same stored form, chosen
by the operands' sizes alone.  A product of fewer than `DENSE_PAIRS` term
pairs, or with a one-term operand, runs one interpreted step per pair.
Any other writes both operands as lists on the gcd of their exponent gaps,
nearly always dense (the lattice strides 24 and 12).  If both lists hold
at least `KRONECKER_TERMS` entries and the two widest numerators total at
most `KRONECKER_BITS` bits, each list is packed into one integer of
fixed-width slots and a single int product, which CPython runs with
Karatsuba in C, gives every coefficient (Kronecker substitution);
otherwise each coefficient below the window is one dot product in C.  The
pair loop stays because the small products (one term or twelve times a
series) are most of a session's stream, where the list set-up costs more
than it saves.  The packed product takes about 0.45x the time of the dot
products on the long narrow q-series of the deep checks; the dot products
stay for the wide ones, the powers of E4^-1 and E6^-1, whose numerators
grow with the index while every slot takes the widest one's width, so
packed they take about 2.9x.  The fraction-free inverse, too, takes each
coefficient as one dot product on the stride; a quotient of series is
x * y.inverse(), and / takes scalars only.  `coeff` reads one coefficient
as a Fraction; `terms` is a read-only {exponent: Fraction} view that makes
a Fraction only when a value is read.

Constructors for the special functions (Bernoulli numbers, Eisenstein
series, Jacobi theta constants, the eta product and the discriminant, and
the weight-2 level-2 forms e1, e2, e3) take an `order` argument in q-units:
the result is exact for all exponents below q^order.  Every one is built on
integers: Bernoulli's series as (k+1)!/(j+1)! over (k+1)!, thetas as +-1 and
+-2, Eisenstein series from divisor sums and eta from prod (1 - q^n) are
handed to `_new` in stored form, and Delta and the triple (e1, e2, e3),
which `e_series` builds from one set of theta fourth powers, are products of
series, by the one series product `__mul__`.  A series is never changed once
built, so the Bernoulli numbers, Eisenstein series, eta, Delta and the
e-triple are each computed once per argument and kept for the process.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from operator import mul

from ._poly import _IntegerStore, _over_lcm, _reduced, format_terms, fraction_text, power

# t-units per power of q: the lattice (1/24)Z houses eta (1/24), theta2
# (1/8) and q^(1/2) simultaneously.
LATTICE = 24

# Products of at least this many term pairs run on the common stride
# (`_convolve`); smaller ones, and any with a one-term operand (1 x 300
# takes 2.7x as long as dot products), keep the term-pair loop.  On dense
# stride-24 operands with 42-bit numerators (CPython 3.11, x86-64) the two
# break even at 16 x 16 = 256 pairs, the loop is 25% faster at 12 x 12 and
# the dot products 15% faster at 12 x 24 and 40% at 96 x 96.
DENSE_PAIRS = 256
# Of those, a product whose two stride lists both hold at least
# KRONECKER_TERMS entries and whose two widest numerators total at most
# KRONECKER_BITS bits is one packed int product.  Against the dot products
# (medians, same host): the 125 such products of the order-96 checks (93 to
# 192 entries, up to 158 bits) take 0.45x the time, and packing their 93 of
# 770 to 1,740 bits (powers of E4^-1 and E6^-1) would take 2.9x.  On 64
# entries whose widths grow with the index, as those powers' do, packing
# takes 0.9x at 192 bits, 1.0x at 224 and 1.08x at 256; at order 24 (22 to
# 24 entries) 1.04x up to 192 bits and 1.4x past it.
KRONECKER_TERMS = 64
KRONECKER_BITS = 192


class ZeroSeriesError(ZeroDivisionError):
    """Raised when inverting a series with no nonzero term below trunc."""


class UnknownCoefficientError(ValueError):
    """Raised when reading a coefficient at or beyond trunc, which is unknown."""


def _q_power_text(q):
    if q == 0:
        return ""
    if q == 1:
        return "q"
    return f"q^{q}" if q.denominator == 1 else f"q^({q})"


class FracSeries(_IntegerStore):
    """A truncated Laurent series sum_e c_e t^e, c_e rational, e < trunc.

    `_num` maps exponents to nonzero integer numerators over the positive
    denominator `_den`, and gcd(_den, *_num.values()) == 1.
    """

    def __init__(self, terms, trunc):
        trunc = int(trunc)
        clean = {}
        for e, c in (terms.items() if isinstance(terms, Mapping) else terms):
            if e < trunc:
                e = int(e)
                clean[e] = clean.get(e, 0) + Fraction(c)
        self.trunc = trunc
        self._num, self._den = _over_lcm(clean)

    @classmethod
    def _new(cls, num, den, trunc):
        """Arithmetic results: exact numerators below trunc over den > 0."""
        value = cls.__new__(cls)
        value.trunc = trunc
        value._num, value._den = _reduced(num, den)
        return value

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, trunc):
        return cls({}, trunc)

    @classmethod
    def constant(cls, value, trunc):
        return cls({0: Fraction(value)}, trunc)

    # -- basic queries -----------------------------------------------

    @property
    def valuation(self):
        """Smallest known exponent; trunc for a (window-)zero series."""
        return min(self._num) if self._num else self.trunc

    def coeff(self, e):
        if e >= self.trunc:
            raise UnknownCoefficientError(f"exponent {e} is at or beyond trunc {self.trunc}")
        return Fraction(self._num.get(e, 0), self._den)

    def __eq__(self, other):
        if not isinstance(other, FracSeries):
            return NotImplemented
        w = min(self.trunc, other.trunc)
        a, b, da, db = self._num, other._num, self._den, other._den
        return all(a.get(e, 0) * db == b.get(e, 0) * da for e in a.keys() | b.keys() if e < w)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, FracSeries):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other):
        if not isinstance(other, FracSeries):
            return NotImplemented
        return self._combine(other, -1)

    def _combine(self, other, sign):
        """self + sign * other over the lcm of the two denominators."""
        trunc = min(self.trunc, other.trunc)
        den = math.lcm(self._den, other._den)
        num = {}
        for part, scale in ((self._num, den // self._den), (other._num, sign * den // other._den)):
            for e, n in part.items():
                if e < trunc:
                    num[e] = num.get(e, 0) + n * scale
        return FracSeries._new(num, den, trunc)

    def __neg__(self):
        return FracSeries._new({e: -n for e, n in self._num.items()}, self._den, self.trunc)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = other.numerator
            num = {e: n * c for e, n in self._num.items()}
            return FracSeries._new(num, self._den * other.denominator, self.trunc)
        if not isinstance(other, FracSeries):
            return NotImplemented
        # The product coefficient at e is complete iff every split e = i + j
        # with i >= val(a), j >= val(b) has i, j inside the known windows.
        # Long operands go to `_convolve`, which packs the long narrow ones
        # into one int product and takes the rest as dot products; short ones
        # and one-term ones go through one step per term pair, cheaper there.
        trunc = min(self.trunc + other.valuation, other.trunc + self.valuation)
        a, b = self._num, other._num
        if len(a) * len(b) >= DENSE_PAIRS and min(len(a), len(b)) > 1:
            num = _convolve(a, b, trunc)
        else:
            right = sorted(b.items())
            num = {}
            for e1, n1 in a.items():
                limit = trunc - e1
                for e2, n2 in right:
                    if e2 >= limit:
                        break
                    e = e1 + e2
                    num[e] = num.get(e, 0) + n1 * n2
        return FracSeries._new(num, self._den * other._den, trunc)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return FracSeries.constant(1, self.trunc)
        return power(self, n)

    def inverse(self):
        """Multiplicative inverse; valuation flips sign, trunc shrinks by 2*val."""
        if self.is_zero:
            raise ZeroSeriesError("cannot invert a series with no nonzero term below trunc")
        v = self.valuation
        width = self.trunc - v
        # self = (sign/den) t^v sum_k a_k t^(step k) with a_0 > 0; the k-th
        # coefficient of the inverse of the sum is b_k / a_0^(k+1), where
        # b_0 = 1 and b_k = -sum_{j>=1} a_j a_0^(j-1) b_(k-j), all integers,
        # one dot product of b with u[k], ..., u[1] for u[j] = a_j a_0^(j-1).
        sign = 1 if self._num[v] > 0 else -1
        step = math.gcd(*(e - v for e in self._num)) or width
        a0 = sign * self._num[v]
        top = (width - 1) // step
        a = {(e - v) // step: sign * n for e, n in self._num.items()}
        u = [0] + [a.get(j, 0) * a0 ** (j - 1) for j in range(1, top + 1)]
        b = [1]
        for k in range(1, top + 1):
            b.append(-sum(map(mul, u[k:0:-1], b)))
        num = {step * k - v: sign * self._den * bk * a0 ** (top - k) for k, bk in enumerate(b)}
        return FracSeries._new(num, a0 ** (top + 1), self.trunc - 2 * v)

    def shift(self, offset):
        """Multiply by t^offset (exponents and trunc move together)."""
        num = {e + offset: n for e, n in self._num.items()}
        return FracSeries._new(num, self._den, self.trunc + offset)

    def truncate(self, trunc):
        trunc = min(self.trunc, trunc)
        return FracSeries._new({e: n for e, n in self._num.items() if e < trunc}, self._den, trunc)

    # -- output --------------------------------------------------------

    def to_json(self):
        return {
            "trunc": self.trunc,
            "terms": [[e, fraction_text(n, self._den)] for e, n in sorted(self._num.items())],
        }

    def __str__(self):
        terms = sorted(self.terms.items())
        return format_terms((c, _q_power_text(Fraction(e, LATTICE))) for e, c in terms)

    def __repr__(self):
        return f"FracSeries({self!s}, trunc={self.trunc})"


def _convolve(a, b, trunc):
    """The numerators below trunc of the product of two nonempty {exponent:
    numerator} dicts, neither operand one term, on the common stride.

    Both operands are written as lists on the gcd `step` of all their
    exponent gaps, from their own valuations on, with zeros in the gaps, and
    the right list is reversed.  Output k sits at t^(va + vb + step k) and
    is the sum of left[i] right[k - i] over the i that both lists hold.  If
    both lists hold at least KRONECKER_TERMS entries and the two widest
    numerators total at most KRONECKER_BITS bits, `_packed_product` makes
    all outputs at once.  Otherwise each is one dot product: up to the right
    list's top index it dots all of left with a window of the reversed
    right, and past it a window of left with all of right.
    """
    va, vb = min(a), min(b)
    step = math.gcd(*(e - va for e in a), *(e - vb for e in b))
    left = [0] * ((max(a) - va) // step + 1)
    for e, n in a.items():
        left[(e - va) // step] = n
    top = (max(b) - vb) // step
    right = [0] * (top + 1)
    for e, n in b.items():
        right[top - (e - vb) // step] = n
    la, base = len(left), va + vb
    width = min(la + top, (trunc - base + step - 1) // step)
    if min(la, top + 1) >= KRONECKER_TERMS and (
        bits := max(map(int.bit_length, a.values())) + max(map(int.bit_length, b.values()))
    ) <= KRONECKER_BITS:
        sums = _packed_product(left, right[::-1], width, bits)
    else:
        sums = [sum(map(mul, left, right[top - k : top - k + la])) for k in range(min(width, top + 1))]
        sums += [sum(map(mul, left[k - top : k + 1], right)) for k in range(top + 1, width)]
    return {base + step * k: c for k, c in enumerate(sums) if c}


def _packed_product(left, right, width, bits):
    """The first `width` coefficients of the product of two integer lists
    whose widest entries have `bits` bits together, by one int product.

    Each list is packed into one integer, entry k in the little-endian slot
    k of `size` bytes.  An output is a sum of at most min(len) products of
    less than 2^bits each, so it is less than 2^(8 size - 1) in size and
    never overflows its slot.  Slot k of the product, read as a signed
    digit d_k, is then output k less the borrow of 1 that a negative digit
    below it took, so output k is d_k + (d_(k-1) < 0).
    """
    size = (bits + min(len(left), len(right)).bit_length() + 8) // 8
    n = size * width
    data = (_pack(left, size) * _pack(right, size) & ((1 << 8 * n) - 1)).to_bytes(n, "little")
    digits = [int.from_bytes(data[i : i + size], "little", signed=True) for i in range(0, n, size)]
    return [d + (p < 0) for p, d in zip([0] + digits, digits)]


def _pack(values, size):
    """sum_k values[k] 256^(size k): the positive and the negative entries,
    each below 256^size in size, packed apart into two integers."""
    zero = bytes(size)
    pos = b"".join(n.to_bytes(size, "little") if n > 0 else zero for n in values)
    neg = b"".join((-n).to_bytes(size, "little") if n < 0 else zero for n in values)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


# -- special functions ------------------------------------------------


@lru_cache(maxsize=None)
def bernoulli(k):
    """Exact Bernoulli number B_k in the x/(e^x - 1) convention (B_1 = -1/2)."""
    if k < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    # x/(e^x - 1) = 1 / sum_{j>=0} x^j/(j+1)!, up to x^k: numerators (k+1)!/(j+1)! over (k+1)!
    top = math.factorial(k + 1)
    series = FracSeries._new({j: top // math.factorial(j + 1) for j in range(k + 1)}, top, k + 1)
    return series.inverse().coeff(k) * math.factorial(k)


@lru_cache(maxsize=None)
def eisenstein(two_n, order):
    """Weight-2n Eisenstein series 1 - (4n/B_2n) sum k^(2n-1) q^k/(1-q^k).

    The coefficient of q^m is the factor -4n/B_2n times the divisor sum
    sigma_(2n-1)(m), summed on integers and scaled once over the factor's
    denominator.
    """
    if two_n < 2 or two_n % 2:
        raise ValueError("Eisenstein weight must be an even integer >= 2")
    if order < 1:
        raise ValueError("order must be >= 1")
    n = two_n // 2
    factor = Fraction(-4 * n) / bernoulli(two_n)
    sigma = [0] * order
    for k in range(1, order):
        kp = k ** (two_n - 1)
        for m in range(k, order, k):
            sigma[m] += kp
    num = {LATTICE * m: factor.numerator * s for m, s in enumerate(sigma)}
    num[0] = factor.denominator
    return FracSeries._new(num, factor.denominator, LATTICE * order)


def theta_const(k, order):
    """Jacobi theta constant theta_k(0, tau) for k in {2, 3, 4}.

    theta2 = sum over half-integers n of q^(n^2/2): leading term 2 q^(1/8);
    theta3/theta4 sum over integers, with alternating signs for theta4.
    With m = 2n the term of n sits at t^(3 m^2), m odd for theta2 and even
    for theta3/theta4; n and -n share it, so its coefficient is 2 unless
    m = 0, and theta4 takes the sign (-1)^n.  The sum stops at the window.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if k not in (2, 3, 4):
        raise ValueError("theta constant index must be 2, 3 or 4")
    trunc = LATTICE * order
    num = {}
    m = 1 if k == 2 else 0
    while 3 * m * m < trunc:
        sign = -1 if k == 4 and m % 4 == 2 else 1
        num[3 * m * m] = sign * (2 if m else 1)
        m += 2
    return FracSeries._new(num, 1, trunc)


@lru_cache(maxsize=None)
def eta_delta(order):
    """The eta product q^(1/24) prod (1 - q^n) and the discriminant eta^24.

    The product is taken on the integer coefficients of q^0 .. q^(order-1),
    one factor (1 - q^n) at a time in place; Delta is a series power.
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    c = [1] + [0] * (order - 1)
    for n in range(1, order):
        # k descends, so c[k - n] still holds the product before this factor
        for k in range(order - 1, n - 1, -1):
            c[k] -= c[k - n]
    eta = FracSeries._new({LATTICE * k + 1: ck for k, ck in enumerate(c)}, 1, LATTICE * order)
    return eta, eta ** 24


@lru_cache(maxsize=None)
def e_series(order):
    """The weight-2 forms (e1, e2, e3), built from one set of fourth powers of thetas."""
    if order < 1:
        raise ValueError("order must be >= 1")
    th2, th3, th4 = (theta_const(k, order) ** 4 for k in (2, 3, 4))
    twelfth = Fraction(1, 12)
    return (th3 + th4) * twelfth, (th2 - th4) * twelfth, (th2 + th3) * -twelfth
