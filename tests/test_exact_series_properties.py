"""Property tests for the FracSeries kernel, against a naive Fraction oracle.

A separate module, so that a missing `hypothesis` skips only these tests and
not the example tests in test_exact_series.py.
"""

import random
from fractions import Fraction as F
from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from triality.exact_series import DENSE_PAIRS, FracSeries  # noqa: E402

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
