"""Property tests for the FracSeries kernel, against a naive Fraction oracle.

A separate module, so that a missing `hypothesis` skips only these tests and
not the example tests in test_exact_series.py.
"""

import random
from fractions import Fraction as F
from math import gcd
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from triality import exact_series  # noqa: E402
from triality.exact_series import DENSE_PAIRS, KRONECKER_BITS, KRONECKER_TERMS, FracSeries  # noqa: E402

PROPERTY = settings(derandomize=True, database=None, max_examples=80, deadline=None)

DENOMINATORS = (1, 2, 3, 4, 6, 9, 10, 35)
coefficients = st.builds(F, st.integers(-30, 30).filter(bool), st.sampled_from(DENOMINATORS))


@st.composite
def series(draw, exponents=st.integers(-30, 90), max_terms=10):
    trunc = draw(st.integers(-6, 120))
    terms = draw(st.dictionaries(exponents, coefficients, max_size=max_terms))
    return FracSeries(terms, trunc)


@st.composite
def units(draw):
    """Series with a nonzero term below trunc, supported on v + step*N."""
    v = draw(st.integers(-40, 40))
    step = draw(st.sampled_from([1, 2, 3, 12, 24]))
    trunc = v + draw(st.integers(1, 100))
    lead = draw(coefficients)
    rest = draw(st.dictionaries(st.integers(1, 100 // step), coefficients, max_size=6))
    terms = {v: lead, **{v + step * k: c for k, c in rest.items()}}
    return FracSeries(terms, trunc)


@st.composite
def long_series(draw, min_terms=16, max_terms=40, squares=True):
    """At least min_terms stored terms, so that two of them reach DENSE_PAIRS:
    a run on offset + step*k with a few gaps, or (if squares) the theta2
    exponents 3m^2 for odd m moved by an offset; offsets reach negative
    valuations, and trunc cuts inside the support or lies past its end.  The
    coefficients come from a drawn seed, small or up to 90 bits, because a
    draw per term would dominate the run time."""
    offset = draw(st.integers(-60, 40))
    n = draw(st.integers(min_terms, max_terms))
    if not squares or draw(st.booleans()):
        step = draw(st.sampled_from([1, 2, 3, 12, 24]))
        exps = [offset + step * k for k in range(n + 4)]
    else:
        exps = [offset + 3 * m * m for m in range(1, 2 * n + 8, 2)]
    gaps = draw(st.sets(st.integers(0, n + 3), max_size=3))
    kept = [e for k, e in enumerate(exps) if k not in gaps]
    trunc = kept[n - 1] + 1 + draw(st.integers(0, kept[n] - kept[n - 1] + 2))
    rng = random.Random(draw(st.integers(0, 2**32)))
    bits = draw(st.sampled_from([5, 90]))
    numerators = (rng.getrandbits(bits) - 2 ** (bits - 1) or 1 for _ in kept)
    return FracSeries({e: F(n, rng.choice(DENOMINATORS)) for e, n in zip(kept, numerators)}, trunc)


@st.composite
def one_term(draw):
    e = draw(st.integers(-40, 40))
    return FracSeries({e: draw(coefficients)}, e + draw(st.integers(1, 400)))


# operand pairs with at least DENSE_PAIRS term pairs: two long supports (the
# dot products), or one term against a long run, either way round (the pair
# loop, which a one-term operand takes at any pair count)
dense_operands = st.one_of(
    st.tuples(long_series(), long_series()),
    st.tuples(one_term(), long_series(DENSE_PAIRS, DENSE_PAIRS + 40, squares=False)),
    st.tuples(long_series(DENSE_PAIRS, DENSE_PAIRS + 40, squares=False), one_term()),
)


@st.composite
def stride_run(draw, step, bits):
    """A run of at least KRONECKER_TERMS integer terms on offset + step*k,
    the first and the last kept and up to three gaps between, so that its
    stride list is the run; the widest numerator has exactly `bits` bits.
    The numerators are random of at most that width, or all 2^bits - 1 or
    all 1 - 2^bits, whose products with another such run fill the slots as
    far as they can: runs of one sign sum to the largest outputs, and runs
    of opposite signs make every output negative.  Trunc lies just past the
    last term, which cuts a product inside its support, or far past it."""
    offset = draw(st.integers(-60, 40))
    n = draw(st.integers(KRONECKER_TERMS, KRONECKER_TERMS + 40))
    gaps = draw(st.sets(st.integers(1, n - 2), max_size=3))
    rng = random.Random(draw(st.integers(0, 2**32)))
    top = 2**bits - 1
    numerators = draw(st.sampled_from([None, [top] * n, [-top] * n]))
    if numerators is None:
        numerators = [rng.randint(-top, top) or 1 for _ in range(n - 1)] + [rng.choice((top, -top))]
    terms = {offset + step * k: c for k, c in enumerate(numerators) if k not in gaps}
    return FracSeries(terms, offset + step * n + draw(st.sampled_from([0, step - 1, 200 * step])))


@st.composite
def packed_operands(draw):
    """Two runs on one stride, 1, 12 or 24, whose widest numerators total
    KRONECKER_BITS - 1, KRONECKER_BITS or KRONECKER_BITS + 1 bits, or 12,
    or KRONECKER_BITS - 7, where the 7-bit count of 64 to 104 entries takes
    a whole byte more, split either way.  One draw in five is instead the
    run of n equal terms against (1 - x)(1 - x^n) on the stride, n + 2
    entries: their product cancels to 0 everywhere but at 1, x^n and x^(2n)."""
    step = draw(st.sampled_from([1, 12, 24]))
    total = draw(st.sampled_from([12, KRONECKER_BITS - 7, KRONECKER_BITS - 1, KRONECKER_BITS, KRONECKER_BITS + 1]))
    bits = draw(st.integers(1, total - 1))
    if draw(st.integers(0, 4)):
        return draw(stride_run(step, bits)), draw(stride_run(step, total - bits))
    n = draw(st.integers(KRONECKER_TERMS, KRONECKER_TERMS + 40))
    va, vb = draw(st.integers(-60, 40)), draw(st.integers(-60, 40))
    ca, cb = 2**bits - 1, 2 ** (total - bits) - 1
    past = draw(st.sampled_from([0, 300 * step]))
    a = FracSeries({va + step * k: ca for k in range(n)}, va + step * n + past)
    cancel = ((0, cb), (1, -cb), (n, -cb), (n + 1, cb))
    b = FracSeries({vb + step * k: c for k, c in cancel}, vb + step * (n + 2) + past)
    return a, b


def naive_product(a, b):
    trunc = min(a.trunc + b.valuation, b.trunc + a.valuation)
    terms, right = {}, b.terms
    for e1, c1 in a.terms.items():
        for e2, c2 in right.items():
            if e1 + e2 < trunc:
                terms[e1 + e2] = terms.get(e1 + e2, F(0)) + c1 * c2
    return {e: c for e, c in terms.items() if c}, trunc


def canonical(s):
    """The series' coefficients are reduced Fractions with no zero stored."""
    return all(isinstance(c, F) and c for c in s.terms.values()) and all(
        e < s.trunc for e in s.terms
    )


@PROPERTY
@given(series(), series())
def test_product_equals_naive_fraction_convolution(a, b):
    prod = a * b
    terms, trunc = naive_product(a, b)
    assert prod.trunc == trunc
    assert prod.terms == terms
    assert canonical(prod)


@PROPERTY
@given(dense_operands)
def test_products_past_the_pair_selection_equal_the_naive_convolution(operands):
    a, b = operands
    assert len(a.terms) * len(b.terms) >= DENSE_PAIRS
    terms, trunc = naive_product(a, b)
    for prod in (a * b, b * a):
        assert prod.trunc == trunc
        assert prod.terms == terms
        assert canonical(prod)


@PROPERTY
@given(packed_operands())
def test_packed_products_equal_the_naive_convolution(operands):
    # both stride lists hold at least KRONECKER_TERMS entries, so the widths
    # alone choose between the packed product and the dot products
    a, b = operands
    widest = sum(max(abs(c.numerator) for c in s.terms.values()).bit_length() for s in operands)
    terms, trunc = naive_product(a, b)
    for x, y in ((a, b), (b, a)):
        with mock.patch.object(exact_series, "_packed_product", wraps=exact_series._packed_product) as spy:
            prod = x * y
        assert spy.called == (widest <= KRONECKER_BITS)
        assert prod.trunc == trunc
        assert prod.terms == terms
        assert canonical(prod)


@PROPERTY
@given(series(), series())
def test_product_window_and_valuation_rule(a, b):
    prod = a * b
    assert prod.trunc == min(a.trunc + b.valuation, b.trunc + a.valuation)
    if a.is_zero or b.is_zero:
        assert prod.is_zero
    else:
        # the leading coefficients multiply inside the product's window
        assert prod.valuation == a.valuation + b.valuation
        assert prod.coeff(prod.valuation) == a.coeff(a.valuation) * b.coeff(b.valuation)


@PROPERTY
@given(series(), series(), coefficients)
def test_sum_difference_and_scaling_match_fractions(a, b, c):
    w = min(a.trunc, b.trunc)
    at, bt = a.terms, b.terms
    keys = at.keys() | bt.keys()
    for got, op in ((a + b, F.__add__), (a - b, F.__sub__)):
        want = {e: op(at.get(e, F(0)), bt.get(e, F(0))) for e in keys if e < w}
        assert got.trunc == w
        assert got.terms == {e: v for e, v in want.items() if v}
        assert canonical(got)
    assert (a * c).terms == {e: v * c for e, v in at.items()}
    assert (-a).terms == {e: -v for e, v in at.items()}


@PROPERTY
@given(series(), series(), st.integers(-6, 120))
def test_equality_compares_coefficients_on_the_common_window(a, b, w):
    cut = a.truncate(w)
    assert a == cut and cut == a
    window = min(a.trunc, b.trunc)
    at, bt = a.terms, b.terms
    keys = at.keys() | bt.keys()
    assert (a == b) == all(at.get(e, 0) == bt.get(e, 0) for e in keys if e < window)


@PROPERTY
@given(units())
def test_inverse_is_a_two_sided_inverse_on_its_window(a):
    v = a.valuation
    inv = a.inverse()
    assert inv.trunc == a.trunc - 2 * v
    assert inv.valuation == -v
    step = 0
    for e in a.terms:
        step = gcd(step, e - v)
    if step:
        assert all((e + v) % step == 0 for e in inv.terms)
    for prod in (a * inv, inv * a):
        assert prod.trunc == a.trunc - v
        assert prod == FracSeries.constant(1, prod.trunc)


@PROPERTY
@given(series(), series(), series(), coefficients)
def test_two_routes_to_one_series_serialize_identically(a, b, c, k):
    def same(x, y):
        w = min(x.trunc, y.trunc)
        assert x.truncate(w).to_json() == y.truncate(w).to_json()
        assert str(x.truncate(w)) == str(y.truncate(w))

    same((a + b) * c, a * c + b * c)
    same(a * b, b * a)
    same((a + b) - b, a)
    same((a * k) * (1 / k), a)
    same(a - a, FracSeries.zero(a.trunc))
    same(a.shift(7).shift(-7), a)
    rebuilt = FracSeries({e: F(n) for e, n in a.to_json()["terms"]}, a.trunc)
    assert rebuilt.to_json() == a.to_json()
