import random
from fractions import Fraction as F

import pytest

from triality._poly import NotHomogeneousError, PowerTable, add_terms, bounded_monomials, compose, jacobian
from triality.exact_series import (
    LATTICE, FracSeries, e_series, eisenstein, eta_delta,
)
from triality.invariant_ring import (
    INVARIANT,
    KLMN_DEGREES,
    NOT_WEAK,
    AmbiguousRepresentationError,
    HasPoleError,
    Invariant,
    KLMNPoly,
    ModularKLMN,
    NoRepresentationError,
    WeylForm,
    express_in_klmn,
    fit_coefficients,
    klmn,
    klmn_forms,
    modular_in_klmn,
    reduce_delta,
    weyl_and_e,
    weyl_in_klmn,
)
from triality.weyl_poly import I_DEGREES, IPoly


def test_klmn_definitions(KLMN, order):
    K, L, M, N = KLMN
    assert (K.weight, K.degree) == (0, 2)
    assert (L.weight, L.degree) == (2, 4)
    assert (M.weight, M.degree) == (4, 4)
    assert (N.weight, N.degree) == (0, 6)
    one = FracSeries.constant(1, 24 * order)
    assert K.terms[(1, 0, 0, 0)] == one
    assert len(K.terms) == 1
    # N has constant coefficients only
    assert N.terms[(0, 0, 1, 0)] == one * F(1, 4)
    assert N.terms[(1, 1, 0, 0)] == one * F(-1, 24)
    assert N.terms[(3, 0, 0, 0)] == one * F(1, 96)
    for series in N.terms.values():
        assert set(series.terms) == {0}


def modular_sums(form, table):
    """The `KLMNPoly` in formal K, L, M, N of a `ModularKLMN` form, each K,L,M,N
    monomial's E4^a E6^b Delta^j part summed into one series over table."""
    sums = {}
    for exps, c in form.terms.items():
        add_terms(sums, {exps[:4]: table.monomial(exps[4:]) * c})
    return KLMNPoly(sums, form.weight, form.degree)


def test_generators_are_graded_by_their_rows():
    # a formal generator reads its grading off WEIGHTS and DEGREES, and the
    # modular table holds the plain series E4, E6, Delta in ModularKLMN's row order
    trunc = LATTICE * 5
    for cls in (Invariant, KLMNPoly):
        for i in range(4):
            g = cls.variable(i, trunc)
            assert (g.weight, g.degree) == (cls.WEIGHTS[i], cls.DEGREES[i])
            assert g.terms == {tuple(int(j == i) for j in range(4)): FracSeries.constant(1, trunc)}
    table = modular_in_klmn(5)
    E4, E6, D = eisenstein(4, 5), eisenstein(6, 5), eta_delta(5)[1]
    assert all(type(g) is FracSeries for g in (table.one, *table.images))
    # one windows E4 and E6 to its own window; Delta, of valuation q, stays 23 steps wider
    assert [(g.trunc, g) for g in table.images] == [(trunc, E4), (trunc, E6), (trunc + 23, D)]
    assert (table.one.trunc, table.one) == (trunc, FracSeries.constant(1, trunc))
    # a form's value sums each K,L,M,N monomial's modular part, then goes through klmn once
    K, L, M, N, e4, e6, delta = (ModularKLMN.variable(i) for i in range(7))
    value = ((K * K * delta * e4 ** -1 - L * e6 * 3) / 24).evaluate(5)
    assert (value.weight, value.degree) == (8, 4)
    series = KLMNPoly({(2, 0, 0, 0): D * E4.inverse() / 24, (0, 1, 0, 0): E6 * F(-1, 8)}, 8, 4)
    assert value.to_json() == series.change_generators(klmn(5)).to_json()


def test_a_form_sums_its_modular_parts_before_klmn(monkeypatch):
    # table1's <f,g>^2 at a warm order: the two modular parts on L are one
    # series before klmn is asked for L, and no series polynomial is multiplied
    order = 24
    table, modular = klmn(order), modular_in_klmn(order)
    K, L, M, N, E4, E6, D = (ModularKLMN.variable(i) for i in range(7))
    form = (M * E4 * E6 - L * (E6 ** 2 + D * 576)) / 3456
    form.evaluate(order)
    asked, products = [], []
    monomial = PowerTable.monomial
    monkeypatch.setattr(PowerTable, "monomial", lambda t, exps: asked.append((t, exps)) or monomial(t, exps))
    for cls in (KLMNPoly, Invariant):
        multiply = cls.__mul__
        counted = lambda *args, multiply=multiply: products.append(args) or multiply(*args)
        monkeypatch.setattr(cls, "__mul__", counted)
        monkeypatch.setattr(cls, "__rmul__", counted)
    value = form.evaluate(order)
    assert products == []
    assert sorted(exps for t, exps in asked if t is table) == [(0, 0, 1, 0), (0, 1, 0, 0)]
    assert {t for t, _ in asked} == {table, modular}
    monkeypatch.undo()
    e4, e6, delta = modular.images
    sums = {(0, 0, 1, 0): e4 * e6 / 3456, (0, 1, 0, 0): (e6 * e6 + delta * 576) / -3456}
    assert value.to_json() == KLMNPoly(sums, 14, 4).change_generators(table).to_json()


def test_klmn_matches_building_blocks(KLMN, order):
    # L = sum e_i T_i recomputed monomial by monomial
    K, L, M, N = KLMN
    es = e_series(order)
    # I4-coefficient of L: e1/6 - e2/12 - e3/12
    assert L.terms[(0, 1, 0, 0)] == es[0] / 6 - es[1] / 12 - es[2] / 12
    # I~4-coefficient of M: 12(-e2^2/2 + e3^2/2)
    assert M.terms[(0, 0, 0, 1)] == 6 * (es[2] * es[2] - es[1] * es[1])


# the series assembly of K, L, M, N that `klmn_forms` replaced, kept as a
# reference: each T_i an IPoly, times the series e_i (or e_i^2)
T_POLYS = (
    IPoly({(0, 1, 0, 0): F(1, 6), (2, 0, 0, 0): F(-1, 24)}),
    IPoly({(0, 1, 0, 0): F(-1, 12), (0, 0, 0, 1): F(-1, 2), (2, 0, 0, 0): F(1, 48)}),
    IPoly({(0, 1, 0, 0): F(-1, 12), (0, 0, 0, 1): F(1, 2), (2, 0, 0, 0): F(1, 48)}),
)


def series_assembled_klmn(order):
    trunc = LATTICE * order

    def times(ipoly, series, weight):
        return Invariant({e: series * c for e, c in ipoly.terms.items()}, weight, ipoly.weighted_degree(I_DEGREES))

    es = e_series(order)
    K = Invariant.variable(0, trunc)
    L = Invariant._sum(times(t, e, 2) for e, t in zip(es, T_POLYS))
    M = Invariant._sum(times(t, e * e, 4) for e, t in zip(es, T_POLYS)) * 12
    N = times(IPoly({(0, 0, 1, 0): F(1, 4), (1, 1, 0, 0): F(-1, 24), (3, 0, 0, 0): F(1, 96)}),
              FracSeries.constant(1, trunc), 0)
    return PowerTable((K, L, M, N), Invariant.one(trunc)).images


@pytest.mark.parametrize("order", [2, 3, 4, 24, 96])
def test_klmn_matches_the_series_assembly(order):
    # the exact forms, composed at the order, keep every stored series and window
    for value, reference in zip(klmn(order).images, series_assembled_klmn(order)):
        assert (value.weight, value.degree) == (reference.weight, reference.degree)
        assert set(value.terms) == set(reference.terms)
        for exps, series in value.terms.items():
            ref = reference.terms[exps]
            assert (series.trunc, series.valuation, len(series.terms)) == (ref.trunc, ref.valuation, len(ref.terms))
            assert dict(series.terms) == dict(ref.terms)


def test_klmn_jacobian_is_pi_over_four():
    # det d(K,L,M,N)/d(I2,I4,I6,I~4) = (e1 - e2)(e2 - e3)(e3 - e1)/4 exactly,
    # with e3 = -e1 - e2; its value is -eta^12/16
    e1, e2 = WeylForm.variable(4), WeylForm.variable(5)
    e3 = -e1 - e2
    assert jacobian(klmn_forms()) == (e1 - e2) * (e2 - e3) * (e3 - e1) / 4


def test_l_leading_parts(KLMN):
    _, L, _, _ = KLMN
    assert L.terms[(0, 1, 0, 0)].coeff(0) == F(1, 24)
    assert L.terms[(2, 0, 0, 0)].coeff(0) == F(-1, 96)
    i4t_part = L.terms[(0, 0, 0, 1)]
    assert i4t_part.coeff(LATTICE // 2) == -2
    assert i4t_part.coeff(0) == 0


def test_addition_requires_matching_grading(KLMN):
    K, L, _, _ = KLMN
    with pytest.raises(NotHomogeneousError):
        K + L
    assert (K + Invariant.zero()) == K


def test_klmn_poly_does_not_mix_with_invariants(KLMN, delta):
    K = KLMN[0]
    rep = KLMNPoly({(1, 0, 0, 0): delta / 12}, 12, 2)
    with pytest.raises(TypeError):
        rep * K
    with pytest.raises(TypeError):
        rep + K
    # K has degree 2, not 4
    with pytest.raises(NotHomogeneousError):
        KLMNPoly({(1, 0, 0, 0): delta}, 0, 4)


def test_negative_powers_of_single_series_units(KLMN, E4):
    unit = Invariant.from_series(E4, 4)
    inverse = unit ** -1
    assert (inverse.weight, inverse.degree) == (-4, 0)
    assert inverse.terms[(0, 0, 0, 0)] == E4.inverse()
    assert unit ** -2 == inverse * inverse
    with pytest.raises(ValueError):
        KLMN[0] ** -1


def test_multiplication_adds_gradings(KLMN):
    K, L, _, _ = KLMN
    prod = K * L
    assert (prod.weight, prod.degree) == (2, 6)


def test_inject_shifts(KLMN, delta, E4):
    K, _, _, _ = KLMN
    injected = K.inject()
    assert injected.terms[(1, 0, 0, 0)].valuation == -24
    # degree-0 elements are untouched
    e4inv = Invariant.from_series(E4, 4)
    assert e4inv.inject() == e4inv
    # Delta*K becomes regular after injection
    dk = K.scale_series(delta, 12)
    shifted = dk.inject().terms[(1, 0, 0, 0)]
    assert shifted.coeff(0) == 1
    assert shifted.coeff(LATTICE) == -24
    assert shifted.coeff(LATTICE * 2) == 252


def test_inject_is_injective_on_random_samples(order):
    rng = random.Random(3)
    for _ in range(10):
        series = FracSeries(
            {12 * rng.randrange(0, 20): F(rng.randrange(-5, 6)) for _ in range(4)},
            24 * order,
        )
        phi = Invariant({(1, 0, 0, 1): series}, 0, 6)
        # the shift is invertible monomial-wise: un-shifting recovers the input
        back = Invariant(
            {e: s.shift(24 * (e[0] + e[1] + e[2]) + 12 * e[3]) for e, s in phi.inject().terms.items()},
            phi.weight,
            phi.degree,
        )
        assert back == phi


def test_classification(KLMN):
    # the verdicts on K, L, M, N, Delta*K, E4 and E6 are checked in `verify series`
    K = KLMN[0]
    assert K.inject().classify() == NOT_WEAK
    # an odd I~4 part on the integer lattice violates the parity pattern
    bad = Invariant({(0, 0, 0, 1): FracSeries.constant(1, 240)}, 0, 4)
    assert bad.classify() == NOT_WEAK
    # q-regularity is not enough: negative or odd weight is never invariant
    inverted_unit = Invariant.from_series(eisenstein(6, 10).inverse(), -6)
    assert inverted_unit.classify() == NOT_WEAK


def test_product_of_invariants_is_invariant(KLMN, delta, E4, E6):
    K, L, M, N = KLMN
    d2l = L.scale_series(delta ** 2, 24)
    dk = K.scale_series(delta, 12)
    for a in (dk, d2l, Invariant.from_series(E4, 4)):
        for b in (dk, d2l, Invariant.from_series(E6, 6)):
            assert (a * b).classify() == INVARIANT


def test_leading_ipoly(KLMN, delta):
    K, _, _, _ = KLMN
    dk = K.scale_series(delta, 12)
    assert dk.leading_ipoly() == IPoly({(1, 0, 0, 0): 1})
    with pytest.raises(HasPoleError):
        K.leading_ipoly()


def test_express_constant(delta):
    rep = express_in_klmn(Invariant.from_series(delta, 12))
    assert rep == ModularKLMN.variable(6) and str(rep) == "Delta"
    assert (rep.weight, rep.degree) == (12, 0)


def test_express_zero_is_the_zero_form():
    # the exact form of zero is zero, whatever the grading the value declared
    rep = express_in_klmn(Invariant({}, 12, 4))
    assert type(rep) is ModularKLMN and rep == ModularKLMN.zero()


@pytest.mark.parametrize("trunc", [LATTICE, 2 * LATTICE - 1])
def test_express_refuses_windows_below_q2(trunc):
    # a window that ends before q^2 pins nothing down: no table is built for it
    phi = Invariant.from_series(FracSeries.constant(1, trunc), 0)
    with pytest.raises(AmbiguousRepresentationError):
        express_in_klmn(phi)


@pytest.mark.parametrize("build", [klmn, weyl_and_e, weyl_in_klmn])
def test_generators_refuse_orders_below_two(build):
    with pytest.raises(ValueError, match="order must be >= 2"):
        build(1)


def test_express_delta_k(KLMN, delta, order):
    # the weight-12, degree-2 invariant Delta*K/12 comes out as the exact form K*Delta/12
    K, _, _, _ = KLMN
    phi = K.scale_series(delta / 12, 12)
    rep = express_in_klmn(phi)
    assert rep == ModularKLMN.variable(0) * ModularKLMN.variable(6) / 12
    assert str(rep) == "1/12*K*Delta" and (rep.weight, rep.degree) == (12, 2)
    assert rep.evaluate(order) == phi


def test_express_rejects_outside_ring(KLMN, delta, E4):
    K, L, _, _ = KLMN
    # K itself is exactly K, so use a genuinely unrepresentable value: its
    # K-coefficient has odd weight, and C[E4, E6] has no forms of odd weight
    bad = Invariant({(1, 0, 0, 0): delta}, 13, 2)
    with pytest.raises(NoRepresentationError):
        express_in_klmn(bad)
    # wrong series on a valid grading: eta^12 is not a level-1 form
    eta, _ = eta_delta(12)
    bad2 = Invariant({(1, 0, 0, 0): eta ** 24 + eta ** 12}, 12, 2)
    with pytest.raises(NoRepresentationError):
        express_in_klmn(bad2)


def test_klmn_poly_evaluate_round_trip(KLMN, order, delta, E4):
    K, L, M, N = KLMN
    rep = KLMNPoly({(1, 0, 0, 0): delta / 12}, 12, 2)
    value = rep.change_generators(klmn(order))
    assert value == K.scale_series(delta / 12, 12)


def test_express_reports_ambiguity_on_shallow_windows():
    # at order 2 the window ends before q^2, but a weight-54 coefficient has
    # five basis forms E4^a E6^b Delta^j (j <= 4) and a weight-24 one (of
    # <g,P>^1 and <f,P>^2) three, so the window cannot tell the last from zero
    from triality.covariants import gordan_generators
    from triality.sw_curve import evaluate_ab

    gens = {g.label: g for g in gordan_generators()}
    big = gordan_generators()[-1]
    for g in (big, gens["<g,P>^1"], gens["<f,P>^2"]):
        value = evaluate_ab(g.image, 2)
        with pytest.raises(AmbiguousRepresentationError):
            express_in_klmn(value)
    # a monomial the value leaves out must be pinned down too: Delta^2 * L
    # vanishes below q^2, so E4^5 E6 K^2 is not determined at order 2
    e4, e6 = eisenstein(4, 2), eisenstein(6, 2)
    value = KLMNPoly({(2, 0, 0, 0): e4 ** 5 * e6}, 26, 4).change_generators(klmn(2))
    with pytest.raises(AmbiguousRepresentationError):
        express_in_klmn(value)


def test_table1_passes_at_every_order_from_two():
    # membership is decided exactly and the explicit forms on the Weyl route,
    # whose Delta factors widen its window: no table1 check needs a deeper order
    from triality.verify import table1_checks

    for order in range(2, 7):
        assert [(r.name, r.detail) for r in table1_checks(order) if not r.passed or r.detail] == [], order


@pytest.mark.parametrize("order", [2, 3, 4, 6, 12, 24])
def test_exact_route_matches_the_weyl_route(order):
    # the exact form express_in_klmn fits to each of the 15 images' values at
    # this order has the normal form exact_ab gives, for every order; the
    # window q^2 pins 9 of them down and q^3 14, the rest are reported
    from triality.covariants import gordan_generators
    from triality.sw_curve import evaluate_ab, exact_ab

    decided = 0
    for label, p in ((g.label, g.image) for g in gordan_generators()):
        try:
            weyl = express_in_klmn(evaluate_ab(p, order))
        except AmbiguousRepresentationError:
            continue
        exact = exact_ab(p)
        assert reduce_delta(weyl) == exact, label
        assert (weyl.weight, weyl.degree) == (exact.weight, exact.degree), label
        decided += 1
    assert decided == {2: 9, 3: 14}.get(order, 15)


def test_exact_route_matches_the_weyl_route_on_the_basis():
    # every basis element of weight <= 36 and degree <= 12, at order 12
    from triality.enumerator import triality_basis
    from triality.sw_curve import evaluate_ab, exact_ab

    count = 0
    for k in range(0, 37, 2):
        for m in range(0, 13, 2):
            for p in triality_basis(k, m).basis:
                weyl = express_in_klmn(evaluate_ab(p, 12))
                assert reduce_delta(weyl) == exact_ab(p), (k, m, p)
                assert (weyl.weight, weyl.degree) == (k, m), (k, m, p)
                count += 1
    assert count == 182


@pytest.mark.parametrize("delta", ["free", 1727], ids=["Delta free", "1727 for 1728"])
def test_a_wrong_delta_reduction_fails_its_checks(monkeypatch, delta):
    # the generators whose exact forms are polynomial only through
    # E4^3 - E6^2 = 1728 Delta fail membership, and the explicit forms
    # written in another representative fail their exact comparison
    from triality import invariant_ring
    from triality.verify import table1_checks

    K, L, M, N, e4, e6, d = (ModularKLMN.variable(i) for i in range(7))
    image = d if delta == "free" else (e4 ** 3 - e6 ** 2) / delta
    table = PowerTable((K, L, M, N, e4, e6, image), ModularKLMN.one())
    monkeypatch.setattr(invariant_ring, "_delta_reduction", lambda: table)
    failed = [r.name for r in table1_checks(24) if not r.passed]
    assert failed == [
        f"explicit forms of {label} (curve and K,L,M,N)" for label in ("<f,g>^2", "<g,g>^2")
    ] + [
        f"{label} lies in the K,L,M,N polynomial ring over E4, E6"
        for label in (
            "<g,g>^2", "<g,P>^1", "<f,P>^2", "<f,Q>^2", "<f^3,g^2>^6", "<P,P>^2", "<f^2,Q>^3",
            "<f^3,g*Q>^6",
        )
    ]


def test_express_in_klmn_fits_at_its_input_window():
    # express_in_klmn fits at the order of its input's window: the Delta
    # factors of a curve value widen it by one or two powers of q past the
    # order it was evaluated at, and that decides the fits the composition
    # over the frame forms leaves ambiguous at that order; fitted at the
    # narrower order, they stay ambiguous
    from triality.covariants import gordan_generators
    from triality.sw_curve import _frame_forms, evaluate_ab

    decided = {}
    for order in (2, 3, 4):
        for label, p in ((g.label, g.image) for g in gordan_generators()):
            try:
                fit_coefficients(modular_sums(compose(p, _frame_forms()[0]), modular_in_klmn(order)), order)
                continue
            except AmbiguousRepresentationError:
                pass
            phi = evaluate_ab(p, order)
            with pytest.raises(AmbiguousRepresentationError):
                fit_coefficients(phi.change_generators(weyl_in_klmn(order)), order)
            try:
                rep = express_in_klmn(phi)
            except AmbiguousRepresentationError:
                continue
            assert rep.evaluate(order) == phi
            decided[order, label] = phi.common_trunc() // LATTICE - order
    assert decided == {
        (2, "<f,Q>^2"): 1,
        (3, "<f^3,g^2>^6"): 1, (3, "<P,P>^2"): 1, (3, "<f^2,Q>^3"): 1,
        (4, "<f^3,g*Q>^6"): 2,
    }


def test_table1_builds_tables_at_its_own_order_alone(monkeypatch):
    # no kept table or klmn at an order wider than the one asked for
    from triality import invariant_ring, sw_curve
    from triality.invariant_ring import SeriesPoly
    from triality.verify import table1_checks

    order = 24
    caches = (
        klmn, weyl_and_e, weyl_in_klmn, modular_in_klmn, invariant_ring._modular_basis,
        sw_curve._frame_forms, sw_curve._frame_values,
    )
    for cache in caches:
        cache.cache_clear()
    windows = []
    init = PowerTable.__init__

    def record(self, images, one):
        init(self, images, one)
        if isinstance(one, SeriesPoly):
            windows.append(one.common_trunc())

    monkeypatch.setattr(PowerTable, "__init__", record)
    assert all(r.passed for r in table1_checks(order))
    assert windows and set(windows) == {LATTICE * order}
    assert klmn.cache_info().currsize == 1
    hits = klmn.cache_info().hits
    klmn(order)
    assert klmn.cache_info().hits == hits + 1


def test_weyl_generators_in_klmn_evaluate_back(order, eta):
    trunc = 24 * order
    one = FracSeries.constant(1, trunc)
    weyl = [
        Invariant({exps: one}, 0, degree)
        for exps, degree in zip(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)), (2, 4, 6, 4))
    ]
    for image, generator in zip(weyl_in_klmn(order).images, weyl):
        value = image.change_generators(klmn(order))
        # dividing by the determinant, of valuation q^(1/2), costs at most q
        assert min(value.common_trunc(), generator.common_trunc()) >= trunc - 24
        assert value == generator
    e1, e2, e3 = e_series(order)
    det = 12 * (e1 - e3) * (e2 - e3) * (e2 - e1)
    assert det == eta ** 12 * -3


@pytest.mark.parametrize("weight, degree", [(16, 6), (20, 6), (24, 8), (30, 10), (36, 12)])
def test_express_round_trips_random_klmn_polys(weight, degree):
    # random rational combinations of E4^a E6^b Delta^j as coefficients, so
    # every coefficient lies in C[E4, E6] of its weight; the rewrite of the
    # value is the form itself once Delta is written out
    order = 6
    rng = random.Random(weight * 100 + degree)
    terms = {}
    for exps in bounded_monomials((KLMN_DEGREES,), (degree,)):
        w = weight - 2 * exps[1] - 4 * exps[2]
        forms = bounded_monomials(((4, 6, 12),), (w,))  # the (a, b, j) of weight w
        # keep every M and N monomial, and about half of the others
        if not forms or not (exps[2] or exps[3] or rng.random() < 0.5):
            continue
        coeffs = [F(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in forms]
        coeffs[0] = coeffs[0] or F(1)
        terms.update((exps + abj, c) for abj, c in zip(forms, coeffs))
    form = ModularKLMN(terms)
    assert any(e[2] for e in form.terms) and any(e[3] for e in form.terms)
    assert any(e[6] for e in form.terms) and any(e[5] > 1 for e in form.terms)
    rep = express_in_klmn(form.evaluate(order))
    assert reduce_delta(rep) == reduce_delta(form)
    assert (rep.weight, rep.degree) == (weight, degree)


def klmn_polys(st):
    """Strategy: (order, a KLMNPoly known to q^(order + 4)) of one small grading,
    every coefficient a rational combination of E4^a E6^b of its weight."""
    gradings = [(4, 2), (8, 4), (12, 4), (12, 6), (16, 6), (20, 8)]

    @st.composite
    def draw(draw):
        order = draw(st.sampled_from([6, 24]))
        weight, degree = draw(st.sampled_from(gradings))
        e4, e6 = eisenstein(4, order + 4), eisenstein(6, order + 4)
        terms = {}
        for exps in bounded_monomials((KLMN_DEGREES,), (degree,)):
            w = weight - 2 * exps[1] - 4 * exps[2]
            forms = [e4 ** ((w - 6 * b) // 4) * e6 ** b for b in range(w // 6 + 1) if (w - 6 * b) % 4 == 0]
            if not forms:
                continue
            coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(forms), max_size=len(forms)))
            if not terms:
                coeffs[0] = coeffs[0] or 1
            if any(coeffs):
                zero = FracSeries.zero(LATTICE * (order + 4))
                terms[exps] = sum((form * c for c, form in zip(coeffs, forms)), zero)
        return order, KLMNPoly(terms, weight, degree)

    return draw()


def test_kept_series_tables_match_fresh_ones():
    # evaluations and rewrites at two orders arrive in a random order; each
    # result equals the same substitution through a new table over the same
    # images, and the order alone sets a value's window, since rep knows more;
    # a rewrite is the exact form whose series over a new table is rep
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(derandomize=True, database=None, max_examples=80, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), klmn_polys(st)), min_size=1, max_size=4))
    def check(calls):
        for rewrite, (order, rep) in calls:
            trunc = LATTICE * order
            value = rep.change_generators(klmn(order))
            fresh = rep.change_generators(PowerTable(klmn(order).images, Invariant.one(trunc)))
            assert value.to_json() == fresh.to_json()
            assert trunc <= value.common_trunc() < rep.common_trunc()
            if rewrite:
                result = express_in_klmn(value)
                weyl = PowerTable(weyl_in_klmn(order).images, KLMNPoly.one(trunc))
                assert result == fit_coefficients(value.change_generators(weyl), order)
                modular = PowerTable(modular_in_klmn(order).images, FracSeries.constant(1, trunc))
                series = modular_sums(result, modular)
                assert series == rep and series.common_trunc() >= trunc
                assert (result.weight, result.degree) == (rep.weight, rep.degree)
            # each order's kept tables serve that order alone
            assert klmn(order).one.common_trunc() == trunc
            assert weyl_in_klmn(order).one.common_trunc() == trunc
            assert modular_in_klmn(order).one.trunc == trunc

    check()


def test_kept_series_results_own_their_terms(order, delta):
    # mutating a result must not reach the kept tables behind the next call
    rep = KLMNPoly({(1, 0, 0, 0): delta / 12}, 12, 2)
    before = rep.change_generators(klmn(order)).to_json()
    value = rep.change_generators(klmn(order))
    stored = [power.terms for cache in klmn(order).powers for power in cache.values()]
    assert all(value.terms is not terms for terms in stored)
    value.terms.clear()
    assert rep.change_generators(klmn(order)).to_json() == before
    # a rewrite is an exact form, and its value is a new series polynomial
    phi = rep.change_generators(klmn(order))
    result = express_in_klmn(phi)
    with pytest.raises(TypeError):
        result.terms[(1, 0, 0, 0, 0, 0, 1)] = 7
    before = result.evaluate(order).to_json()
    value = result.evaluate(order)
    value.terms[(1, 0, 0, 0)] = value.terms[(1, 0, 0, 0)] * 7
    assert result.evaluate(order).to_json() == before
    assert express_in_klmn(phi) == result == ModularKLMN({(1, 0, 0, 0, 0, 0, 1): F(1, 12)})


def test_monomial_is_a_product_of_windowed_powers():
    # the table windows each image once by one, and the image of a monomial
    # of two variables is a new product, never a kept power
    table = weyl_in_klmn(6)
    image = table.monomial((2, 0, 1, 0))
    assert image == table.power(0, 2) * table.power(2, 1)
    assert image is not table.power(0, 2) and image.terms is not table.power(0, 2).terms
    assert table.monomial((0, 0, 0, 0)) is table.one
    wide = FracSeries({0: 1, 24: 2}, 96)
    image = PowerTable((wide,), FracSeries.constant(1, 48)).monomial((3,))
    assert image.trunc == 48 and image == wide ** 3


def test_zeroth_power_keeps_a_window_that_ends_at_t0():
    value = Invariant({(1, 0, 0, 0): FracSeries.constant(1, 24)}, 0, 2).inject()
    assert value.common_trunc() == 0
    assert (value ** 0).common_trunc() == 0
    assert (Invariant.zero() ** 0).common_trunc() == LATTICE


def test_kept_special_series_survive_arithmetic():
    # each is built once per argument and shared, so no arithmetic may change it
    calls = [(eisenstein, (4, 24)), (eta_delta, (24,)), (e_series, (24,))]
    for fn, args in calls:
        first = fn(*args)
        series = first if isinstance(first, FracSeries) else first[1]
        before = series.to_json()
        for other in (series * series, series + series, -series, series ** 3, series.shift(5),
                      series.truncate(100), series * F(2, 3), series - series, series.inverse()):
            assert other is not series
        assert fn(*args) is first
        assert series.to_json() == before
        assert fn(*args) == fn.__wrapped__(*args)
