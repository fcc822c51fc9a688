"""Property tests for the polynomial layer: frame changes (and the power
tables they keep for the process), the monomial images of every kept power
table, the binary-form shift, the trusted arithmetic constructor, the
grading rule of the one-pass sum, the integer-numerator store against
a reference on {exponents: Fraction} dicts, and the JSON coefficient text
read off that store.

A separate module, so that a missing `hypothesis` skips only these tests.
"""

from fractions import Fraction as F
from functools import reduce
from math import gcd
from operator import add, mul

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from triality._poly import (  # noqa: E402
    NotHomogeneousError, PowerTable, compose, fraction_text, stored, taylor_shift,
)
from triality.covariants import FormPoly  # noqa: E402
from triality.exact_series import LATTICE, FracSeries, eisenstein, eta_delta  # noqa: E402
from triality.invariant_ring import (  # noqa: E402
    klmn, modular_in_klmn, weyl_in_klmn,
)
from triality.sw_curve import (  # noqa: E402
    CurvePolyAB, CurvePolyCD, _frame_changes, _frame_forms, _frame_values, ab_to_cd, cd_to_ab,
    evaluate_ab,
)

PROPERTY = settings(derandomize=True, database=None, max_examples=80, deadline=None)

rationals = st.builds(F, st.integers(-12, 12), st.sampled_from([1, 2, 3, 5, 8]))


@st.composite
def curve_polys(draw, max_terms=4):
    """Small polynomials in (a0, a2, b0, b1, b2, b3), cancelling terms included."""
    exps = st.tuples(*[st.integers(0, 2)] * 6)
    terms = draw(st.lists(st.tuples(exps, rationals), max_size=max_terms))
    return CurvePolyAB._sum(CurvePolyAB.monomial(e, c) for e, c in terms)


@st.composite
def laurent_cd_polys(draw, max_terms=4):
    """Small polynomials in (c0, c1, c2, d0, d2, d3) with c0 exponents down to -4."""
    exps = st.tuples(st.integers(-4, 3), *[st.integers(0, 3)] * 5)
    terms = draw(st.lists(st.tuples(exps, rationals), max_size=max_terms))
    return CurvePolyCD._sum(CurvePolyCD.monomial(e, c) for e, c in terms)


@PROPERTY
@given(curve_polys(), curve_polys(), rationals)
def test_frame_change_is_a_ring_homomorphism(p, q, c):
    assert ab_to_cd(p + q) == ab_to_cd(p) + ab_to_cd(q)
    assert ab_to_cd(p * q) == ab_to_cd(p) * ab_to_cd(q)
    assert ab_to_cd(p * c) == ab_to_cd(p) * c
    assert cd_to_ab(ab_to_cd(p)) == p


def fresh_compose(p, direction):
    """The frame change of p through a new table over the same images."""
    kept = _frame_changes()[direction]
    return compose(p, PowerTable(kept.images, kept.one))


@PROPERTY
@given(st.lists(st.one_of(curve_polys(), laurent_cd_polys()), max_size=6))
def test_kept_frame_change_tables_match_fresh_ones(polys):
    # the kept tables grow in whatever order calls arrive
    for p in polys:
        if isinstance(p, CurvePolyAB):
            assert ab_to_cd(p) == fresh_compose(p, 0)
        else:
            assert cd_to_ab(p) == fresh_compose(p, 1)


@PROPERTY
@given(curve_polys(), laurent_cd_polys())
def test_round_trips_hold_after_the_tables_grew_past_the_input(p, q):
    for i in range(6):
        ab_to_cd(CurvePolyAB.variable(i, 7))
        cd_to_ab(CurvePolyCD.variable(i, 7))
    cd_to_ab(CurvePolyCD.monomial((-7, 0, 0, -7, 0, 0)))
    assert cd_to_ab(ab_to_cd(p)) == p
    assert ab_to_cd(cd_to_ab(q)) == q


def series_tables(order):
    """(kept table, its images before windowing, its unit variables) for
    every series table the package keeps; a builder that returns its table
    gives the images it holds, already windowed."""
    values = [[f.evaluate(order) for f in t.images] for t in _frame_forms()]
    modular = [eisenstein(4, order), eisenstein(6, order), eta_delta(order)[1]]
    return {
        "klmn": (klmn(order), klmn(order).images, ()),
        "weyl": (weyl_in_klmn(order), weyl_in_klmn(order).images, ()),
        "modular": (modular_in_klmn(order), modular, (0, 1, 2)),
        "ab values": (_frame_values(order)[0], values[0], (0, 2)),
        "cd values": (_frame_values(order)[1], values[1], (0, 3)),
    }


def windowed_by_one(one, images, exps):
    """one times the product of images[i] ** exps[i]: the image of a monomial
    as it was built before the tables windowed their images."""
    return reduce(mul, (image ** e for image, e in zip(images, exps) if e), one)


@st.composite
def table_monomials(draw):
    """A kept table, its images before windowing and a monomial: exponents 0
    to 2, and down to -2 on unit variables."""
    name = draw(st.sampled_from(["ab frame", "cd frame", "klmn", "weyl", "modular", "ab values", "cd values"]))
    if name.endswith("frame"):
        # a polynomial's one windows nothing: its kept images are its images
        source = CurvePolyCD if name == "cd frame" else CurvePolyAB
        table = _frame_changes()[source is CurvePolyCD]
        images, units = table.images, source.laurent
    else:
        table, images, units = series_tables(draw(st.sampled_from([6, 24])))[name]
    exps = tuple(draw(st.integers(-2 if i in units else 0, 2)) for i in range(len(images)))
    return table, images, exps


@PROPERTY
@given(table_monomials())
def test_monomial_images_equal_products_started_from_one(case):
    table, images, exps = case
    assert table.monomial(exps).to_json() == windowed_by_one(table.one, images, exps).to_json()


@PROPERTY
@given(st.sampled_from(["klmn", "weyl", "modular", "ab values", "cd values"]), st.data())
def test_images_wider_than_one_get_no_wider_window(name, data):
    # images at order 24 under the unit of order 6: windowing each image once
    # may cut a monomial's window below one times its product, never above
    kept, images, units = series_tables(24)[name]
    table = PowerTable(images, kept.one.truncate(LATTICE * 6))
    exps = tuple(data.draw(st.integers(-2 if i in units else 0, 2)) for i in range(len(images)))
    new, old = table.monomial(exps), windowed_by_one(table.one, images, exps)
    assert new == old
    new, old = coefficient_series(new), coefficient_series(old)
    assert set(new) == set(old)
    assert all(new[e].trunc <= s.trunc for e, s in old.items())


def coefficient_series(value):
    """{monomial: series} of a series polynomial; a plain series is its own one."""
    return {(): value} if isinstance(value, FracSeries) else value.terms


@PROPERTY
@given(st.lists(rationals, min_size=1, max_size=6), rationals, rationals)
def test_taylor_shift_composes_by_adding_the_shifts(coeffs, s, t):
    assert taylor_shift(taylor_shift(coeffs, s), t) == taylor_shift(coeffs, s + t)
    assert taylor_shift(coeffs, F(0)) == tuple(coeffs)


@PROPERTY
@given(curve_polys(), curve_polys(), rationals, st.integers(0, 5))
def test_arithmetic_results_store_no_zero_coefficient(p, q, c, i):
    results = [
        p + q, p - q, p - p, p + (-p), -p, p * q, p * c, p * 0, type(p).constant(c) - p, p / 2,
        p ** 2, p ** 0, p.derivative(i), ab_to_cd(p), cd_to_ab(ab_to_cd(q)),
    ]
    for r in results:
        assert all(isinstance(v, F) and v for v in r.terms.values())


def test_one_pass_sum_still_rejects_mixed_weights():
    # a0 evaluates to weight 4 and b0 to weight 6: their sum has no grading,
    # also where the two share the core b1 and their images are summed first,
    # and beside a group of monomials that sums to 4 Delta^2, zero below q^2
    a0, a2, b0, b1 = (CurvePolyAB.variable(i) for i in range(4))
    delta_squared = a0 ** 6 * 4 - a0 ** 3 * b0 ** 2 * 216 + b0 ** 4 * 2916
    for p, order in ((a0 + b0, 8), (a0 * b1 + b0 * b1, 8), (delta_squared * b1 + a2, 2)):
        with pytest.raises(NotHomogeneousError):
            evaluate_ab(p, order)


# -- the integer-numerator store, against {exponents: Fraction} dicts --------------


@st.composite
def sparse_polys(draw, cls, max_terms=3):
    """Small CurvePolyAB or FormPoly values with exponents 0 to 2."""
    exps = st.tuples(*[st.integers(0, 2)] * cls.nvars)
    return cls(draw(st.dictionaries(exps, rationals, max_size=max_terms)))


def ref_sum(*dicts):
    out = {}
    for d in dicts:
        for e, c in d.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def ref_mul(a, b):
    return ref_sum(*({tuple(map(add, e1, e2)): c1 * c2} for e1, c1 in a.items() for e2, c2 in b.items()))


def ref_pow(a, n, nvars):
    return reduce(ref_mul, [a] * n, {(0,) * nvars: F(1)})


def ref_compose(a, images, nvars):
    return ref_sum(*(
        ref_mul({(0,) * nvars: c}, reduce(ref_mul, (ref_pow(im, k, nvars) for im, k in zip(images, e))))
        for e, c in a.items()
    ))


def is_canonical(p):
    num, den = stored(p)
    return den > 0 and gcd(den, *num.values()) == 1 and all(type(n) is int and n for n in num.values())


@PROPERTY
@given(st.sampled_from([CurvePolyAB, FormPoly]), st.data())
def test_integer_store_matches_a_fraction_dict_reference(cls, data):
    p, q = data.draw(sparse_polys(cls)), data.draw(sparse_polys(cls))
    c = data.draw(rationals.filter(bool))
    i, n = data.draw(st.integers(0, cls.nvars - 1)), data.draw(st.integers(0, 3))
    images = [data.draw(sparse_polys(cls, 2)) for _ in range(cls.nvars)]
    a, b, ims = dict(p.terms), dict(q.terms), [dict(im.terms) for im in images]
    cases = [
        (p + q, ref_sum(a, b)),
        (p - q, ref_sum(a, {e: -v for e, v in b.items()})),
        (p * q, ref_mul(a, b)),
        (p * c, {e: v * c for e, v in a.items()}),
        (p / c, {e: v / c for e, v in a.items()}),
        (p.derivative(i), {e[:i] + (e[i] - 1,) + e[i + 1:]: v * e[i] for e, v in a.items() if e[i]}),
        (p ** n, ref_pow(a, n, cls.nvars)),
        (compose(p, PowerTable(images, cls.one())), ref_compose(a, ims, cls.nvars)),
    ]
    for result, want in cases:
        assert dict(result.terms) == want
        assert is_canonical(result)


# -- the JSON coefficient text, read off the store -----------------------------------

# numerators and denominators up to 4,096 bits, the CLI's coefficient cap
big_numerators = st.integers(-(2**4096), 2**4096)
big_denominators = st.integers(1, 2**4096)
big_rationals = st.builds(F, big_numerators, big_denominators) | rationals


@PROPERTY
@given(big_numerators, big_denominators | st.sampled_from([1, 2, 3, 8]))
def test_fraction_text_is_the_reduced_fraction(n, den):
    text = str(F(n, den))
    assert fraction_text(n, den) == (text if "/" in text else text + "/1")


@PROPERTY
@given(st.sampled_from([CurvePolyAB, FormPoly]), st.data())
def test_to_json_matches_the_fraction_view(cls, data):
    exps = st.tuples(*[st.integers(0, 2)] * cls.nvars)
    p = cls(data.draw(st.dictionaries(exps, big_rationals, max_size=4)))
    assert p.to_json() == [[list(e), f"{c.numerator}/{c.denominator}"] for e, c in p.sorted_terms()]
    s = FracSeries(data.draw(st.dictionaries(st.integers(-30, 90), big_rationals, max_size=6)), 91)
    terms = [[e, f"{c.numerator}/{c.denominator}"] for e, c in sorted(s.terms.items())]
    assert s.to_json() == {"trunc": 91, "terms": terms}
