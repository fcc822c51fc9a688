import random
from dataclasses import replace
from fractions import Fraction as F
from functools import reduce
from itertools import combinations_with_replacement
from math import factorial
from operator import mul

import pytest

from triality import covariants, verify
from triality._poly import NotHomogeneousError, PowerTable, compose, stored, taylor_shift
from triality.covariants import (
    BadOrderError,
    FormPoly,
    NotPolynomialError,
    cubic_form,
    gordan_generators,
    hat_coefficients,
    is_semiinvariant,
    named_forms,
    order_of,
    psi_forward,
    psi_inverse,
    quadratic_form,
    refined_form_degrees,
    roberts_to_covariant,
    roberts_to_semiinvariant,
    _semiinvariant_monomials,
    semiinvariant_dimension,
    transvectant,
    uv_order,
)
from triality.sw_curve import CurvePolyAB, is_triality_invariant

# the a-count and the b-count rows of the ab frame
AB_COUNTS = ((1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 1, 1))
AL0, AL1, AL2 = (FormPoly.variable(i) for i in range(3))
BE0, BE1, BE2, BE3 = (FormPoly.variable(3 + i) for i in range(4))


def beta_hats():
    """(c-hat, d-hat): the form coefficients with u shifted by -beta1/(3 beta0)."""
    shift = FormPoly.monomial((0, 0, 0, -1, 1, 0, 0, 0, 0), F(-1, 3))
    return taylor_shift((AL0, AL1, AL2), shift), taylor_shift((BE0, BE1, BE2, BE3), shift)


def test_zeroth_transvectant_is_product():
    f, g = quadratic_form(), cubic_form()
    assert transvectant(f, g, 0) == f * g


def test_second_transvectant_of_quadratic():
    f = quadratic_form()
    assert transvectant(f, f, 2) == 2 * AL0 * AL2 - AL1 * AL1 / 2


def test_first_transvectant_coefficients():
    f, g = quadratic_form(), cubic_form()
    fg1 = transvectant(f, g, 1)
    assert fg1.terms.get((1, 0, 0, 0, 1, 0, 0, 3, 0), 0) == F(1, 3)
    assert fg1.terms.get((0, 1, 0, 1, 0, 0, 0, 3, 0), 0) == F(-1, 2)
    assert uv_order(fg1) == 3


def test_odd_self_transvectants_vanish():
    f, g = quadratic_form(), cubic_form()
    P = transvectant(g, g, 2)
    for X in (f, g, P):
        assert transvectant(X, X, 1).is_zero
    assert transvectant(g, g, 3).is_zero


def test_bad_order():
    f = quadratic_form()
    with pytest.raises(BadOrderError):
        transvectant(f, f, 3)


def test_semiinvariance():
    assert is_semiinvariant(AL0)
    assert is_semiinvariant(BE0)
    assert not is_semiinvariant(AL1)
    assert not is_semiinvariant(BE2)
    assert is_semiinvariant(AL0 * AL2 - AL1 * AL1 / 4)


def test_order_of():
    assert order_of(AL0) == 2
    assert order_of(BE3) == -3
    assert order_of(AL0 * BE1) == 3
    with pytest.raises(NotHomogeneousError):
        order_of(AL0 + AL1)


def test_roberts_inverse_of_leading_coefficient():
    f = quadratic_form()
    assert roberts_to_covariant(AL0) == f
    assert roberts_to_semiinvariant(f) == AL0
    assert roberts_to_semiinvariant(cubic_form()) == BE0


def test_roberts_second_transvectant():
    semi = 2 * AL0 * AL2 - AL1 * AL1 / 2
    cov = roberts_to_covariant(semi)
    assert cov == transvectant(quadratic_form(), quadratic_form(), 2)


def test_roberts_guards():
    with pytest.raises(NotPolynomialError, match=r"order -\d+ is negative"):
        roberts_to_covariant(BE3)
    with pytest.raises(NotPolynomialError):
        roberts_to_covariant(AL1 * AL1)  # order 0 but not a semiinvariant


def test_roberts_round_trips_random_semiinvariants():
    rng = random.Random(23)
    disc = AL0 * AL2 - AL1 * AL1 / 4
    alpha0_b1 = AL0 * BE1 - AL1 * BE0 * F(3, 2)
    pool = [AL0, BE0, disc, alpha0_b1]
    for _ in range(8):
        semi = pool[rng.randrange(len(pool))] * pool[rng.randrange(len(pool))]
        cov = roberts_to_covariant(semi)
        assert roberts_to_semiinvariant(cov) == semi
        assert uv_order(cov) == order_of(semi)
        assert refined_form_degrees(cov) == refined_form_degrees(semi)


class _LaurentUFormPoly(FormPoly):
    """FormPoly with u Laurent as well, for the reference substitution only."""

    laurent = frozenset({0, 3, FormPoly.U})


def _reference_roberts_to_covariant(Phi):
    """The covariant as the substitution u^omega Phi(hatted coefficients): the
    hatted alpha_i is sum_(j>=i) alpha_j C(j, i) (v/u)^(j-i), and every
    negative power of u cancels iff Phi is a semiinvariant of order omega >= 0."""
    omega = order_of(Phi)
    if omega < 0:
        raise NotPolynomialError(f"order {omega} is negative")
    x = [_LaurentUFormPoly.variable(i) for i in range(FormPoly.nvars)]
    v_over_u = x[FormPoly.V] * _LaurentUFormPoly.variable(FormPoly.U, -1)
    alpha_hat = taylor_shift(x[2::-1], v_over_u)[::-1]
    beta_hat = taylor_shift(x[6:2:-1], v_over_u)[::-1]
    images = alpha_hat + beta_hat + (x[FormPoly.U], x[FormPoly.V])
    result = compose(_LaurentUFormPoly(Phi.terms), PowerTable(images, _LaurentUFormPoly.one()))
    result = result * _LaurentUFormPoly.variable(FormPoly.U, omega)
    if result.min_degree_in(FormPoly.U) < 0:
        raise NotPolynomialError("negative powers of u survived")
    return FormPoly(result.terms)


def test_roberts_agrees_with_the_laurent_substitution_on_semiinvariants():
    # the 15 leading coefficients and their pairwise products, except the 15
    # products with the largest one, <f^3,g*Q>^6: on those the reference
    # substitution takes about 7 s of the 10 s it takes on all 120
    leads = [roberts_to_semiinvariant(g.poly) for g in gordan_generators()]
    products = [a * b for a, b in combinations_with_replacement(leads[:-1], 2)]
    for semi in leads + products:
        assert roberts_to_covariant(semi) == _reference_roberts_to_covariant(semi)


def test_roberts_agrees_with_the_laurent_substitution_on_non_semiinvariants():
    rng = random.Random(14)
    refused = 0
    for d_a, d_b, omega in ((1, 0, 0), (2, 0, 0), (1, 1, 1), (0, 2, 2), (2, 1, 3), (1, 2, 4)):
        monos = _semiinvariant_monomials(d_a, d_b, omega)
        for _ in range(4):
            poly = FormPoly({m: rng.randint(-3, 3) for m in monos})
            if poly.is_zero or is_semiinvariant(poly):
                continue
            for covariant in (roberts_to_covariant, _reference_roberts_to_covariant):
                with pytest.raises(NotPolynomialError):
                    covariant(poly)
            refused += 1
    assert refused >= 20
    for covariant in (roberts_to_covariant, _reference_roberts_to_covariant):
        with pytest.raises(NotPolynomialError, match=r"order -\d+ is negative"):
            covariant(AL2 * BE1 + AL1 * BE2)


def test_form_coefficients_may_be_laurent_but_u_and_v_may_not():
    assert FormPoly.variable(0, -1) * AL0 == FormPoly.one()
    assert FormPoly.variable(3, -2).min_degree_in(3) == -2
    for i in (FormPoly.U, FormPoly.V):
        with pytest.raises(ValueError, match="negative exponent"):
            FormPoly.variable(i, -1)


def test_roberts_builds_no_power_table(monkeypatch):
    def refuse(*args):
        raise AssertionError("roberts_to_covariant built a PowerTable")

    monkeypatch.setattr("triality.covariants.PowerTable", refuse)
    for g in gordan_generators():
        assert roberts_to_covariant(roberts_to_semiinvariant(g.poly)) == g.poly


def test_gordan_generators_are_built_once(monkeypatch):
    gens = gordan_generators()
    monkeypatch.setattr("triality.covariants.transvectant", None)
    assert gordan_generators() is gens
    assert isinstance(gens, tuple)


def test_hat_coefficients():
    a_hat, b_hat = hat_coefficients()
    c_hat, d_hat = beta_hats()
    assert a_hat[1].is_zero
    assert d_hat[1].is_zero
    assert a_hat[0] == AL0
    assert a_hat[2] == AL2 - FormPoly({(-1, 2, 0, 0, 0, 0, 0, 0, 0): F(1, 4)})
    assert b_hat[1] == BE1 - FormPoly({(-1, 1, 0, 1, 0, 0, 0, 0, 0): F(3, 2)})
    assert d_hat[2] == BE2 - FormPoly({(0, 0, 0, -1, 2, 0, 0, 0, 0): F(1, 3)})


def test_hat_coefficients_give_semiinvariants():
    a_hat, b_hat = hat_coefficients()
    c_hat, d_hat = beta_hats()
    for i in (1, 2):
        assert is_semiinvariant(FormPoly.variable(0, i - 1) * a_hat[i])
    for i in range(4):
        assert is_semiinvariant(FormPoly.variable(0, i) * b_hat[i])
    for i in range(3):
        assert is_semiinvariant(FormPoly.variable(3, i) * c_hat[i])
    for i in (2, 3):
        assert is_semiinvariant(FormPoly.variable(3, i - 1) * d_hat[i])


def test_hat_coefficients_satisfy_frame_relations():
    # c-hats expressed through a-hats repeat the curve-frame substitution:
    # spot-check c1_hat = a1_hat - 2 a0_hat b1_hat / (3 b0_hat) after
    # clearing denominators
    a_hat, b_hat = hat_coefficients()
    c_hat, _ = beta_hats()
    lhs = c_hat[1] * 3 * b_hat[0]
    rhs = 3 * a_hat[1] * b_hat[0] - 2 * a_hat[0] * b_hat[1]
    assert lhs == rhs


def test_psi_forward():
    a0b1 = CurvePolyAB({(1, 0, 0, 1, 0, 0): 1})
    assert psi_forward(a0b1) == AL0 * BE1 - AL1 * BE0 * F(3, 2)
    assert psi_forward(CurvePolyAB.variable(0)) == AL0
    assert psi_forward(CurvePolyAB.variable(2)) == BE0


def test_psi_forward_rejects_one_frame_elements():
    with pytest.raises(NotPolynomialError):
        psi_forward(CurvePolyAB.variable(3))  # b1 alone is not in both frames


def test_psi_inverse():
    assert psi_inverse(AL0) == CurvePolyAB.variable(0)
    assert psi_inverse(2 * AL0 * AL2 - AL1 * AL1 / 2) == CurvePolyAB(
        {(1, 1, 0, 0, 0, 0): 2}
    )
    fg1_lead = (2 * AL0 * BE1 - 3 * AL1 * BE0) / 6
    assert psi_inverse(fg1_lead) == CurvePolyAB({(1, 0, 0, 1, 0, 0): F(1, 3)})


def test_psi_round_trips():
    gens = gordan_generators()
    for g in gens:
        semi = roberts_to_semiinvariant(g.poly)
        p = psi_inverse(semi)
        assert psi_forward(p) == semi
        assert is_triality_invariant(p)


def test_psi_image_order_relation():
    # order = 2 d_a + 3 d_b - m on every generator image
    for g in gordan_generators():
        semi = roberts_to_semiinvariant(g.poly)
        assert order_of(semi) == 2 * g.d_a + 3 * g.d_b - g.degree_m


def test_psi_round_trips_on_enumerated_bases():
    from triality.enumerator import triality_basis

    for k, m in ((12, 2), (14, 4), (16, 4), (20, 6), (24, 6)):
        for p in triality_basis(k, m).basis:
            image = psi_forward(p)
            assert psi_inverse(image) == p
            assert is_semiinvariant(image)
            d_a, d_b = (p.weighted_degree(row) for row in AB_COUNTS)
            assert order_of(image) == 2 * d_a + 3 * d_b - p.weighted_degree(CurvePolyAB.DEGREES)
            assert refined_form_degrees(image) == (d_a, d_b)


# the paper's Table 1: (d_a, d_b, m, omega) of each generator
TABLE1 = {
    "f": (1, 0, 0, 2),
    "g": (0, 1, 0, 3),
    "<f,g>^1": (1, 1, 2, 3),
    "<f,f>^2": (2, 0, 4, 0),
    "<f,g>^2": (1, 1, 4, 1),
    "<g,g>^2": (0, 2, 4, 2),
    "<f^2,g>^3": (2, 1, 6, 1),
    "<f,P>^1": (1, 2, 6, 2),
    "<g,P>^1": (0, 3, 6, 3),
    "<f,P>^2": (1, 2, 8, 0),
    "<f,Q>^2": (1, 3, 10, 1),
    "<f^3,g^2>^6": (3, 2, 12, 0),
    "<P,P>^2": (0, 4, 12, 0),
    "<f^2,Q>^3": (2, 3, 12, 1),
    "<f^3,g*Q>^6": (3, 4, 18, 0),
}


def test_gordan_generator_metadata():
    # the gradings read off the covariants are Table 1's, and those of the curve images
    gens = gordan_generators()
    assert len(gens) == 15
    assert [g.label for g in gens][:3] == ["f", "g", "<f,g>^1"]
    assert {g.label: (g.d_a, g.d_b, g.degree_m, g.order_omega) for g in gens} == TABLE1
    for g in gens:
        # each carries its leading coefficient and that coefficient's curve image
        semi = roberts_to_semiinvariant(g.poly)
        assert g.semi == semi and g.image == psi_inverse(semi)
        assert g.image.weighted_degree(CurvePolyAB.DEGREES) == g.degree_m
        assert g.image.weighted_degree(CurvePolyAB.WEIGHTS) == g.weight
        assert [g.image.weighted_degree(row) for row in AB_COUNTS] == [g.d_a, g.d_b]


def test_table1_checks_read_the_gradings_off_the_generators(monkeypatch):
    # a wrong generator, <f,P>^1 * f in place of <f,P>^2, has degrees (2, 2)
    # and order 4: the gradings it reads off fail both counts, and nothing raises
    f, _, P, _ = named_forms()
    wrong = transvectant(f, P, 1) * f
    gens = tuple(
        replace(g, poly=wrong) if g.label == "<f,P>^2" else g for g in gordan_generators()
    )
    monkeypatch.setattr(covariants, "gordan_generators", lambda: gens)
    # each patched generator carries its own leading coefficient and image
    passed = {r.name: r.passed for r in verify.table1_checks(6)}
    assert passed["exactly 15 generators"]
    assert not passed["per-(degree, order) cell counts"]
    assert not passed["order totals (5, 4, 3, 3)"]
    g = next(g for g in gens if g.poly is wrong)
    assert (g.d_a, g.d_b, g.degree_m, g.order_omega) == (2, 2, 6, 4)


def test_semiinvariant_dimension_basics():
    assert semiinvariant_dimension(0, 0, 0) == 1
    assert semiinvariant_dimension(1, 0, 2) == 1
    assert semiinvariant_dimension(1, 1, 3) == 1
    assert semiinvariant_dimension(1, 0, 0) == 0
    assert semiinvariant_dimension(0, 1, 3) == 1  # beta0 alone
    assert semiinvariant_dimension(0, 0, 2) == 0


def test_semiinvariant_dimension_matches_kernel_meaning():
    # degree (2, 0): only the discriminant square root pattern alpha0^2,
    # alpha0*alpha2 - alpha1^2/4 appear at orders 4 and 0
    assert semiinvariant_dimension(2, 0, 4) == 1
    assert semiinvariant_dimension(2, 0, 0) == 1
    assert semiinvariant_dimension(2, 0, 2) == 0


def test_semiinvariant_dimension_matches_cayley_sylvester():
    # dim = N(omega) - N(omega + 2) for omega >= 0, where N(w) counts the
    # monomials of refined degrees (d_a, d_b) and scaling order w; no
    # semiinvariant has negative order
    def orders(n, d):
        # scaling orders of the degree-d monomials in the coefficients of a form of order n
        monos = combinations_with_replacement(range(n + 1), d)
        return [sum(n - 2 * i for i in mono) for mono in monos]

    for d_a in range(5):
        for d_b in range(5):
            counts = {}
            for wa in orders(2, d_a):
                for wb in orders(3, d_b):
                    counts[wa + wb] = counts.get(wa + wb, 0) + 1
            top = 2 * d_a + 3 * d_b
            for omega in range(-top - 1, top + 2):
                expected = counts.get(omega, 0) - counts.get(omega + 2, 0) if omega >= 0 else 0
                assert semiinvariant_dimension(d_a, d_b, omega) == expected, (d_a, d_b, omega)


# -- the stored-term kernels against the polynomial algebra they replace ----------------


def reference_derivation(P, table):
    """sum of w x_j d/dx_i over the (i, j, w) of table, built from polynomial products."""
    return FormPoly._sum(P.derivative(i) * FormPoly.variable(j) * w for i, j, w in table)


def reference_psi_inverse(Phi):
    """alpha0 -> a0, alpha1 -> 0, alpha2 -> a2, beta_j -> b_j, (u, v) -> (1, 1), by compose."""
    a0, a2, *b = (CurvePolyAB.variable(i) for i in range(6))
    images = [a0, CurvePolyAB.zero(), a2, *b, CurvePolyAB.one(), CurvePolyAB.one()]
    return compose(Phi, PowerTable(images, CurvePolyAB.one()))


def reference_roberts_to_semiinvariant(Psi):
    """The leading coefficient through Fractions and the validating constructor."""
    return FormPoly((e[: FormPoly.U] + (0, 0), c) for e, c in Psi.terms.items() if not e[FormPoly.V])


def reference_roberts_to_covariant(Phi):
    """sum_k Delta^k Phi / k! u^(omega-k) v^k through Fractions and the
    validating constructor, with the same two refusals."""
    omega = order_of(Phi)
    if omega < 0:
        raise NotPolynomialError(f"order {omega} is negative: it leads no covariant")
    terms = {}
    lowered = Phi
    for k in range(omega + 1):
        scale = F(1, factorial(k))
        terms.update((e[: FormPoly.U] + (omega - k, k), c * scale) for e, c in lowered.terms.items())
        lowered = covariants._derivation(lowered, covariants._LOWERING)
    if not lowered.is_zero:
        raise NotPolynomialError("Delta^(omega+1) of the input is not 0: it leads no covariant")
    return FormPoly(terms)


def fresh_hat_table():
    a_hat, b_hat = hat_coefficients()
    return PowerTable([a_hat[0], a_hat[2], *b_hat], FormPoly.one())


def form_polys(st, uv=True, max_terms=5):
    """Small FormPolys with rational coefficients, alpha0 and beta0 exponents down to -2,
    and (with uv) powers of u and v."""
    laurent, plain = st.integers(-2, 2), st.integers(0, 2)
    uv_exps = plain if uv else st.just(0)
    exps = st.tuples(laurent, plain, plain, laurent, plain, plain, plain, uv_exps, uv_exps)
    rationals = st.builds(F, st.integers(-12, 12), st.sampled_from([1, 2, 3, 5, 8]))
    terms = st.lists(st.tuples(exps, rationals), max_size=max_terms)
    return terms.map(lambda ts: FormPoly._sum(FormPoly.monomial(e, c) for e, c in ts))


def test_derivation_kernel_matches_the_polynomial_sum():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(form_polys(st))
    def check(P):
        for table in (covariants._DERIVATION, covariants._LOWERING):
            assert covariants._derivation(P, table) == reference_derivation(P, table)

    check()


def test_psi_inverse_relabelling_matches_the_compose():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    # every drawn poly holds an alpha1 term, which psi_inverse drops
    alpha1_term = st.tuples(st.integers(1, 2), st.integers(-3, 3).filter(bool))

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(form_polys(st, uv=False), alpha1_term)
    def check(Phi, term):
        Phi = Phi + FormPoly.monomial((-1, term[0], 1, 0, 0, 0, 0, 0, 0), F(term[1], 3))
        assert psi_inverse(Phi) == reference_psi_inverse(Phi)

    check()


def test_roberts_on_stored_terms_matches_the_fraction_path_on_the_generators():
    for g in gordan_generators():
        assert stored(roberts_to_semiinvariant(g.poly)) == stored(reference_roberts_to_semiinvariant(g.poly))
        assert stored(roberts_to_covariant(g.semi)) == stored(reference_roberts_to_covariant(g.semi))


def test_roberts_on_stored_terms_matches_the_fraction_path():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    # products of semiinvariants, and the same plus a drawn polynomial, which
    # is refused unless it is homogeneous of the product's order and D kills it
    semi = st.sampled_from([AL0, BE0, AL0 * AL2 - AL1 * AL1 / 4, AL0 * BE1 - AL1 * BE0 * F(3, 2)])
    products = st.lists(semi, min_size=1, max_size=3).map(lambda fs: reduce(mul, fs))
    rationals = st.builds(F, st.integers(-12, 12).filter(bool), st.sampled_from([1, 2, 3, 5, 8]))

    def outcome(roberts, P):
        try:
            return stored(roberts(P))
        except (NotPolynomialError, NotHomogeneousError) as err:
            return type(err), str(err)

    @settings(derandomize=True, database=None, max_examples=80, deadline=None)
    @given(products, rationals, form_polys(st, uv=False), form_polys(st))
    def check(product, c, P, Psi):
        for Phi in (product * c, product * c + P):
            assert outcome(roberts_to_covariant, Phi) == outcome(reference_roberts_to_covariant, Phi)
        for Psi in (Psi, roberts_to_covariant(product)):
            assert stored(roberts_to_semiinvariant(Psi)) == stored(reference_roberts_to_semiinvariant(Psi))

    check()


def test_psi_forward_over_the_kept_table_matches_a_fresh_table():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    laurent, plain = st.integers(-2, 3), st.integers(0, 3)
    exps = st.tuples(laurent, plain, laurent, plain, plain, plain)
    rationals = st.builds(F, st.integers(-12, 12), st.sampled_from([1, 2, 3, 5, 8]))
    curve_polys = st.lists(st.tuples(exps, rationals), max_size=4).map(
        lambda ts: CurvePolyAB._sum(CurvePolyAB.monomial(e, c) for e, c in ts)
    )

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(curve_polys)
    def check(p):
        fresh = compose(p, fresh_hat_table())
        assert compose(p, covariants._hat_powers()) == fresh
        if fresh.min_degree_in(0) < 0:
            with pytest.raises(NotPolynomialError):
                psi_forward(p)
        else:
            assert psi_forward(p) == fresh

    check()
    for g in gordan_generators():
        assert psi_forward(g.image) == compose(g.image, fresh_hat_table()) == g.semi
