import hashlib
import random
from fractions import Fraction as F
from functools import lru_cache

import pytest

from triality._poly import (
    PowerTable, SparsePoly, bounded_monomials, compose, jacobian, stored, taylor_shift,
)
from triality import exact_series, invariant_ring, sw_curve, verify
from triality.covariants import gordan_generators
from triality.exact_series import LATTICE, FracSeries, eisenstein, eta_delta
from triality.invariant_ring import (
    ONE_EXPS, Invariant, KLMNPoly, ModularKLMN, klmn, modular_in_klmn, reduce_delta,
)
from triality.sw_curve import (
    CurvePolyAB,
    CurvePolyCD,
    _frame_changes,
    _frame_forms,
    _frame_values,
    ab_to_cd,
    cd_to_ab,
    evaluate_ab,
    evaluate_cd,
    is_triality_invariant,
    jacobian_klmn,
)
from triality.weyl_poly import ipoly_to_zpoly, vandermonde_product

A0, A2, B0, B1, B2, B3 = (CurvePolyAB.variable(i) for i in range(6))
C0, C1, C2, D0, D2, D3 = (CurvePolyCD.variable(i) for i in range(6))


def test_frame_change_images():
    # the literal substitution u -> u - c1/(2 c0) v of (c0, c1, c2), (d0, 0, d2, d3)
    assert [ab_to_cd(x) for x in (A0, A2, B0, B1, B2, B3)] == [
        C0,
        CurvePolyCD({(0, 0, 1, 0, 0, 0): 1, (-1, 2, 0, 0, 0, 0): F(-1, 4)}),
        D0,
        CurvePolyCD({(-1, 1, 0, 1, 0, 0): F(-3, 2)}),
        CurvePolyCD({(0, 0, 0, 0, 1, 0): 1, (-2, 2, 0, 1, 0, 0): F(3, 4)}),
        CurvePolyCD(
            {(0, 0, 0, 0, 0, 1): 1, (-1, 1, 0, 0, 1, 0): F(-1, 2), (-3, 3, 0, 1, 0, 0): F(-1, 8)}
        ),
    ]


def test_inverse_images():
    # the literal substitution u -> u - b1/(3 b0) v of (a0, 0, a2), (b0, b1, b2, b3)
    assert [cd_to_ab(x) for x in (C0, C1, C2, D0, D2, D3)] == [
        A0,
        CurvePolyAB({(1, 0, -1, 1, 0, 0): F(-2, 3)}),
        CurvePolyAB({(0, 1, 0, 0, 0, 0): 1, (1, 0, -2, 2, 0, 0): F(1, 9)}),
        B0,
        CurvePolyAB({(0, 0, 0, 0, 1, 0): 1, (0, 0, -1, 2, 0, 0): F(-1, 3)}),
        CurvePolyAB(
            {(0, 0, 0, 0, 0, 1): 1, (0, 0, -1, 1, 1, 0): F(-1, 3), (0, 0, -2, 3, 0, 0): F(2, 27)}
        ),
    ]


def test_frame_changes_fix_the_leading_coefficients():
    # the shift u -> u + s v keeps a binary form's leading coefficient, so
    # each frame's two leading coefficients map to single monomials
    assert ab_to_cd(A0).terms == {(1, 0, 0, 0, 0, 0): 1}
    assert ab_to_cd(B0).terms == {(0, 0, 0, 1, 0, 0): 1}
    assert cd_to_ab(C0).terms == {(1, 0, 0, 0, 0, 0): 1}
    assert cd_to_ab(D0).terms == {(0, 0, 1, 0, 0, 0): 1}


class _Symbols(SparsePoly):
    nvars = 6
    names = ("x0", "x1", "x2", "x3", "s", "t")


def test_taylor_shift_is_a_group_action():
    x = [_Symbols.variable(i) for i in range(4)]
    s, t = _Symbols.variable(4), _Symbols.variable(5)
    for coeffs in (x[:3], x):
        assert taylor_shift(taylor_shift(coeffs, s), t) == taylor_shift(coeffs, s + t)
        assert taylor_shift(coeffs, _Symbols.zero()) == tuple(coeffs)
    # F(u + s v, v) for F = x0 u^2 + x1 u v + x2 v^2
    assert taylor_shift(x[:3], s) == (x[0], x[1] + 2 * s * x[0], x[2] + s * x[1] + s * s * x[0])


def test_round_trip_on_random_polynomials():
    rng = random.Random(11)
    for _ in range(20):
        terms = {tuple(rng.randrange(3) for _ in range(6)): rng.randrange(-5, 6) for _ in range(4)}
        p = CurvePolyAB(terms)
        assert cd_to_ab(ab_to_cd(p)) == p


def test_round_trip_on_invariant_elements():
    for p in (A0, B0, A0 * B1, A0 ** 3 - 27 * B0 ** 2, A0 * A2 * 2):
        assert cd_to_ab(ab_to_cd(p)) == p


def test_frame_changes_are_mutually_inverse_on_generators():
    for p in (C0, C2, D0, D2, D3):
        assert ab_to_cd(cd_to_ab(p)) == p


def test_membership():
    assert is_triality_invariant(A0 * B1)
    assert not is_triality_invariant(B1)
    assert is_triality_invariant(A0 ** 3 - 27 * B0 ** 2)
    assert ab_to_cd(A0 ** 3 - 27 * B0 ** 2) == C0 ** 3 - 27 * D0 ** 2


def test_gradings():
    assert (A0 * B1).weighted_degree(CurvePolyAB.WEIGHTS) == 12
    assert (A0 * B1).weighted_degree(CurvePolyAB.DEGREES) == 2
    # the a-count and b-count rows: a-type are a0, a2 resp. c0, c1, c2
    ab_counts = ((1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 1, 1))
    cd_counts = ((1, 1, 1, 0, 0, 0), (0, 0, 0, 1, 1, 1))
    assert [(A0 * B1).weighted_degree(row) for row in ab_counts] == [1, 1]
    assert [ab_to_cd(A0 * B1).weighted_degree(row) for row in cd_counts] == [1, 1]
    # each generator is homogeneous of the declared weight/degree
    for i, (w, d) in enumerate(zip(CurvePolyAB.WEIGHTS, CurvePolyAB.DEGREES)):
        p = CurvePolyAB.variable(i)
        assert p.weighted_degree(CurvePolyAB.WEIGHTS) == w
        assert p.weighted_degree(CurvePolyAB.DEGREES) == d


def test_evaluate_generators(order, E4, E6, delta, KLMN):
    K, L, M, N = KLMN
    assert evaluate_ab(A0, order) == Invariant.from_series(E4 / 12, 4)
    assert evaluate_ab(B0, order) == Invariant.from_series(E6 / 216, 6)
    assert evaluate_ab(B1, order) == K.scale_series(delta * E4.inverse(), 8)
    assert evaluate_cd(C1, order) == K.scale_series(delta * E6.inverse() * -12, 6)
    assert evaluate_cd(D0, order) == Invariant.from_series(E6 / 216, 6)


def test_evaluate_is_graded_homomorphism(order):
    rng = random.Random(5)
    gens = [CurvePolyAB.variable(i) for i in range(6)]
    for _ in range(4):
        i, j = rng.randrange(6), rng.randrange(6)
        p, q = gens[i], gens[j]
        left = evaluate_ab(p * q, order)
        right = evaluate_ab(p, order) * evaluate_ab(q, order)
        assert left == right
        assert left.weight == p.weighted_degree(p.WEIGHTS) + q.weighted_degree(q.WEIGHTS)
        assert left.degree == p.weighted_degree(p.DEGREES) + q.weighted_degree(q.DEGREES)


def test_leading_coefficient_jacobians(order):
    # the four nonconstant leading coefficients per frame are independent
    ab = [
        ipoly_to_zpoly(evaluate_ab(CurvePolyAB.variable(i), order).leading_ipoly())
        for i in (1, 3, 4, 5)
    ]
    assert jacobian(ab) == vandermonde_product() * F(1, 32)
    cd = [
        ipoly_to_zpoly(evaluate_cd(CurvePolyCD.variable(i), order).leading_ipoly())
        for i in (1, 2, 4, 5)
    ]
    assert jacobian(cd) == vandermonde_product() * F(3, 8)


def recovery_polys():
    """The first-frame polynomials of `verify.RECOVERY` and their second-frame images."""
    ab = tuple(poly for _, _, _, poly in verify.RECOVERY)
    return ab, tuple(map(ab_to_cd, ab))


def test_recovery_polynomials():
    # their values are checked in `verify curve`
    ab_polys, cd_polys = recovery_polys()
    assert ab_polys[0] == 12 * A0 * B1
    assert cd_polys[0] == -18 * C1 * D0
    for poly in ab_polys:
        assert is_triality_invariant(poly)


# the paper's second-frame recovery polynomials of Delta K, Delta^2 L,
# Delta^2 M and Delta^3 N
CD_RECOVERY = (
    CurvePolyCD({(0, 1, 0, 1, 0, 0): -18}),
    CurvePolyCD(
        {
            (4, 0, 0, 0, 1, 0): -2,
            (3, 0, 1, 1, 0, 0): 3,
            (2, 2, 0, 1, 0, 0): F(-9, 4),
            (1, 0, 0, 2, 1, 0): 54,
            (0, 0, 1, 3, 0, 0): -81,
        }
    ),
    CurvePolyCD(
        {
            (5, 0, 1, 0, 0, 0): 2,
            (4, 2, 0, 0, 0, 0): F(-1, 2),
            (3, 0, 0, 1, 1, 0): -36,
            (2, 0, 1, 2, 0, 0): -54,
            (1, 2, 0, 2, 0, 0): -27,
            (0, 0, 0, 3, 1, 0): 972,
        }
    ),
    CurvePolyCD(
        {
            (6, 0, 0, 0, 0, 1): 4,
            (5, 1, 0, 0, 1, 0): -2,
            (4, 1, 1, 1, 0, 0): 3,
            (3, 3, 0, 1, 0, 0): F(-5, 4),
            (3, 0, 0, 2, 0, 1): -216,
            (2, 1, 0, 2, 1, 0): 54,
            (1, 1, 1, 3, 0, 0): -81,
            (0, 3, 0, 3, 0, 0): -27,
            (0, 0, 0, 4, 0, 1): 2916,
        }
    ),
)


def test_recovery_polynomials_are_one_another_in_the_other_frame():
    # the second frame's four, derived by the frame change, are the paper's,
    # and the inverse change takes the paper's back to the first frame's
    ab_polys, cd_polys = recovery_polys()
    assert cd_polys == CD_RECOVERY
    assert tuple(map(cd_to_ab, CD_RECOVERY)) == ab_polys


def exact_identities(normal_form):
    """The curve and Jacobian identities on exact forms, each side taken to
    normal_form first: the 8 recoveries of `verify.RECOVERY` (each polynomial
    over the ab forms and its `ab_to_cd` image over the cd forms), the 6 frame
    changes (each ab variable's image over the cd forms) and the 2 frame
    Jacobians, as three lists of verdicts."""
    ab, cd = _frame_forms()
    K, L, M, N, E4, E6, D = (ModularKLMN.variable(i) for i in range(7))

    def same(a, b):
        return normal_form(a) == normal_form(b)

    recoveries = [
        same(compose(poly, table), D ** k * (K, L, M, N)[i])
        for _, k, i, ab_poly in verify.RECOVERY
        for poly, table in ((ab_poly, ab), (ab_to_cd(ab_poly), cd))
    ]
    changes = [same(compose(ab_to_cd(CurvePolyAB.variable(i)), cd), ab.images[i]) for i in range(6)]
    jacobians = [
        same(jacobian([ab.images[i] for i in (1, 3, 4, 5)]), D ** 3 * E4 ** -1 / -16),
        same(jacobian([cd.images[i] for i in (1, 2, 4, 5)]), D ** 3 * E6 ** -1 * F(-3, 4)),
    ]
    return recoveries, changes, jacobians


def test_curve_and_jacobian_identities_hold_exactly():
    # the `verify curve` recoveries and frame changes and the `verify jacobians`
    # frame determinants, decided on the Delta-free normal forms with no window
    assert exact_identities(reduce_delta) == ([True] * 8, [True] * 6, [True] * 2)


def test_the_exact_identities_need_the_delta_relation():
    # negative control: with E4, E6 and Delta free, E4^3 - E6^2 = 1728 Delta
    # is not applied, and most of them fail
    assert [sum(verdicts) for verdicts in exact_identities(lambda form: form)] == [2, 3, 0]


def test_negative_exponent_guards():
    with pytest.raises(ValueError):
        CurvePolyAB({(0, -1, 0, 0, 0, 0): 1})  # a2 never goes Laurent
    with pytest.raises(ValueError):
        CurvePolyCD({(0, -1, 0, 0, 0, 0): 1})  # c1 never goes Laurent
    # the unit-like monomial images invert cleanly
    assert cd_to_ab(CurvePolyCD({(-1, 0, 0, 0, 0, 0): 1})) == CurvePolyAB(
        {(-1, 0, 0, 0, 0, 0): 1}
    )
    # a Laurent monomial is a unit; any other polynomial is not
    assert CurvePolyAB.variable(0) ** -1 == CurvePolyAB({(-1, 0, 0, 0, 0, 0): 1})
    with pytest.raises(ValueError):
        (CurvePolyAB.variable(0) + CurvePolyAB.variable(2)) ** -1


@pytest.mark.parametrize("order", [1, 0, -1])
def test_frame_evaluation_refuses_orders_below_two(order):
    calls = (
        lambda: evaluate_ab(A0, order),
        lambda: evaluate_cd(C0, order),
        lambda: jacobian_klmn(order),
    )
    for call in calls:
        with pytest.raises(ValueError, match=r"^order must be >= 2$"):
            call()


def test_times_one_is_the_value_itself():
    p = A2 * B1 + B3
    assert p * 1 is p and 1 * p is p and p * F(1) is p
    assert (p * 2).terms is not p.terms


def test_frame_change_results_own_their_terms():
    ab_table, cd_table = _frame_changes()
    for change, table, generators in (
        (ab_to_cd, ab_table, (A0, A2, B0, B1, B2, B3)),
        (cd_to_ab, cd_table, (C0, C1, C2, D0, D2, D3)),
    ):
        for p in (x ** e for x in generators for e in (1, 3)):
            result = change(p)
            kept = [stored(power)[0] for cache in table.powers for power in cache.values()]
            assert all(stored(result)[0] is not num for num in kept)
            with pytest.raises(AttributeError):
                result.terms.clear()
            with pytest.raises(TypeError):
                result.terms[(0,) * 6] = F(7)
            assert change(p) == result == compose(p, PowerTable(table.images, table.one))


class _LaurentAB(CurvePolyAB):
    laurent = frozenset(range(6))


class _LaurentCD(CurvePolyCD):
    laurent = frozenset(range(6))


def test_failed_negative_power_leaves_the_kept_table_usable():
    # c2 maps to a2 + a0 b1^2 / (9 b0^2) and a2 to c2 - c1^2 / (4 c0): neither is a unit;
    # the inputs are Laurent in every variable, which no frame value is
    ab_table, cd_table = _frame_changes()
    with pytest.raises(ValueError, match="not a monomial"):
        cd_to_ab(_LaurentCD._sum([_LaurentCD.monomial((0, 0, -1, 0, 0, 0))]))
    with pytest.raises(ValueError, match="not a monomial"):
        ab_to_cd(_LaurentAB._sum(
            _LaurentAB.monomial(e, c) for e, c in (((0, 0, 1, 0, 0, 0), 1), ((1, -2, 0, 0, 0, 0), 3))
        ))
    assert -1 not in cd_table.powers[2] and -1 not in ab_table.powers[1]
    for change, table, p in (
        (cd_to_ab, cd_table, C0 ** -2 * C2 ** 3 + D3 ** 2 * C1),
        (ab_to_cd, ab_table, A2 ** 4 * B3 - B2 ** 2 * A0),
    ):
        assert change(p) == compose(p, PowerTable(table.images, table.one))


def graded_polys(st, cls):
    """Strategy: sums over the monomials of one small (weight, degree) cell of
    cls, times a Laurent monomial in its two unit variables."""
    cells = [(w, d) for w in (4, 8, 12, 16, 20, 24) for d in (0, 2, 4, 6)]
    cells = [c for c in cells if bounded_monomials((cls.WEIGHTS, cls.DEGREES), c)]
    units = sorted(cls.laurent)

    @st.composite
    def draw(draw):
        monomials = bounded_monomials((cls.WEIGHTS, cls.DEGREES), draw(st.sampled_from(cells)))
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(monomials), max_size=len(monomials)))
        unit = [0] * cls.nvars
        for i in units:
            unit[i] = -draw(st.integers(0, 2))
        p = cls._sum(cls.monomial(m, c) for m, c in zip(monomials, coeffs))
        return p * cls.monomial(unit)

    return draw()


def fresh_frame_table(frame, order):
    """A new table over the frame's coefficient values, evaluated afresh."""
    images = [f.evaluate(order) for f in _frame_forms()[frame].images]
    return PowerTable(images, Invariant.one(LATTICE * order))


def test_kept_frame_value_tables_match_fresh_ones():
    # the kept tables of both frames grow in whatever order calls arrive, at
    # two orders in one process; each result keeps its own order's window
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    call = st.one_of(
        st.tuples(st.just(0), st.sampled_from([6, 24]), graded_polys(st, CurvePolyAB)),
        st.tuples(st.just(1), st.sampled_from([6, 24]), graded_polys(st, CurvePolyCD)),
    )

    @settings(derandomize=True, database=None, max_examples=80, deadline=None)
    @given(st.lists(call, min_size=1, max_size=6))
    def check(calls):
        for frame, order, p in calls:
            result = (evaluate_ab, evaluate_cd)[frame](p, order)
            assert result.to_json() == compose(p, fresh_frame_table(frame, order)).to_json()
            assert p.is_zero or result.common_trunc() >= LATTICE * order

    check()


def test_kept_frame_value_results_own_their_terms():
    # mutating a result must not reach the kept table behind the next call
    p = A0 ** 2 * B1 + A0 ** -1 * B0 ** 2 * B1
    before = evaluate_ab(p, 6).to_json()
    result = evaluate_ab(p, 6)
    stored = [power.terms for cache in _frame_values(6)[0].powers for power in cache.values()]
    assert all(result.terms is not terms for terms in stored)
    result.terms.clear()
    assert evaluate_ab(p, 6).to_json() == before
    q = C0 ** -1 * C1 ** 2 * D0 + C2 * D0
    before = evaluate_cd(q, 6).to_json()
    result = evaluate_cd(q, 6)
    for exps in list(result.terms):
        result.terms[exps] = result.terms[exps] * 5
    assert evaluate_cd(q, 6).to_json() == before


# -- the exact frame forms against the series they stand for ----------------------


@lru_cache(maxsize=None)
def series_built_forms(order):
    """The twelve frame forms as `KLMNPoly` power tables built on series at
    this order, term by term from E4, E6, Delta and the two inverses: taken
    through `klmn`, the oracle for the exact forms' values and every
    composition over them."""
    e4, e6 = eisenstein(4, order), eisenstein(6, order)
    delta = eta_delta(order)[1]
    e4i, e6i = e4.inverse(), e6.inverse()
    one, K, K2, K3 = (0, 0, 0, 0), (1, 0, 0, 0), (2, 0, 0, 0), (3, 0, 0, 0)
    L, M, N, KL, KM = (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 0, 0), (1, 0, 1, 0)
    ab = (
        {one: e4 / 12},
        {K2: delta * e4i / 4, L: -e6 / 24, M: e4 / 24},
        {one: e6 / 216},
        {K: delta * e4i},
        {K2: -(e6 * delta) * (e4i ** 2) / 24, L: -(e4 ** 2) / 288, M: e6 / 288},
        {K3: -(delta ** 2) * (e4i ** 3), KM: delta * e4i / 4, N: delta / 4},
    )
    cd = (
        {one: e4 / 12},
        {K: delta * e6i * -12},
        {K2: (e4 ** 2) * delta * (e6i ** 2) / 4, L: -e6 / 24, M: e4 / 24},
        {one: e6 / 216},
        {K2: -(e4 * delta) * e6i / 24, L: -(e4 ** 2) / 288, M: e6 / 288},
        {K3: 2 * (delta ** 2) * (e6i ** 2), KL: e4 * delta * e6i / 4, N: delta / 4},
    )
    unit = KLMNPoly.one(LATTICE * order)
    return tuple(
        PowerTable(map(KLMNPoly, forms, frame.WEIGHTS, frame.DEGREES), unit)
        for forms, frame in ((ab, CurvePolyAB), (cd, CurvePolyCD))
    )


def stored_series(series):
    return stored(series), series.trunc, series.valuation, len(series.terms)


def assert_matches_series_built(value, oracle, order):
    """value is the `Invariant` the oracle gives through `klmn` at this order:
    the same grading, and each monomial both hold has the same stored series
    (numerators, denominator, trunc, valuation and term count); a monomial
    only the oracle holds cancelled exactly, so its series is zero in its window."""
    oracle = oracle.change_generators(klmn(order))
    assert (value.weight, value.degree) == (oracle.weight, oracle.degree)
    assert set(value.terms) <= set(oracle.terms)
    for exps, series in oracle.terms.items():
        if exps in value.terms:
            assert stored_series(value.terms[exps]) == stored_series(series), exps
        else:
            assert series.is_zero, exps


@pytest.mark.parametrize("order", [2, 5, 24])
def test_exact_frame_forms_evaluate_to_the_series_built_forms(order):
    for exact, built in zip(_frame_forms(), series_built_forms(order)):
        for form, oracle in zip(exact.images, built.images):
            value = form.evaluate(order)
            assert set(value.terms) == set(oracle.change_generators(klmn(order)).terms)
            assert_matches_series_built(value, oracle, order)


@pytest.mark.parametrize("order", [2, 3, 4, 5, 6, 24])
def test_compose_over_frame_forms_matches_the_series_built_table(order):
    polys = [g.image for g in gordan_generators()] + list(recovery_polys()[0])
    for p in polys:
        assert_matches_series_built(
            compose(p, _frame_forms()[0]).evaluate(order), compose(p, series_built_forms(order)[0]), order
        )


def test_compose_over_frame_forms_matches_the_series_built_table_on_graded_polys():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(st.sampled_from([2, 3, 4, 5, 6, 24]), graded_polys(st, CurvePolyAB))
    def check(order, p):
        assert_matches_series_built(
            compose(p, _frame_forms()[0]).evaluate(order), compose(p, series_built_forms(order)[0]), order
        )

    check()


def delta_placed(form, i, period, relation):
    """The Delta-free normal form of a frame form, with each power
    (period * q + r) of variable i, 0 <= r < period, written as relation^q
    times the r-th power."""
    parts = []
    for exps, c in reduce_delta(form).terms.items():
        q, r = divmod(exps[i], period)
        assert q >= 0
        parts.append(ModularKLMN.monomial(exps[:i] + (r,) + exps[i + 1 :], c) * relation ** q)
    return ModularKLMN._sum(parts)


def test_frame_forms_place_delta_canonically():
    # Each typed form is one representative of its value modulo
    # E4^3 - E6^2 = 1728 Delta, and series windows depend on where Delta sits:
    # with the Delta-free forms in their place, 17 of the other 430 tests
    # fail, among them the GOLDEN `verify all --order 3` digest, the b3 and
    # d3 leading-coefficient reads at order 3,
    # test_express_in_klmn_fits_at_its_input_window and the stored-window
    # oracle tests.  So a derivation of the forms must land on these: in the
    # ab frame E6 powers above 1 read E4^3 - 1728 Delta, in the cd frame E4
    # powers above 2 read E6^2 + 1728 Delta.
    # The windows move because Delta is eta^24, and eta_delta(order) gives eta
    # known below t^(24 order) with valuation t^1: Delta is known 23 steps of
    # t further than E4^3 - E6^2, which is known only below t^(24 order).
    for order in (2, 3, 24):
        e4, e6, delta = modular_in_klmn(order).images
        assert (delta.trunc, (e4 ** 3 - e6 ** 2).trunc) == (LATTICE * order + 23, LATTICE * order)
    E4, E6, D = (ModularKLMN.variable(i) for i in (4, 5, 6))
    ab, cd = (t.images for t in _frame_forms())
    for forms, i, period, relation in ((ab, 5, 2, E4 ** 3 - D * 1728), (cd, 4, 3, E6 ** 2 + D * 1728)):
        for form in forms:
            assert form == delta_placed(form, i, period, relation), form


B3_N_DELTA = (5, (0, 0, 0, 1, 0, 0, 1))  # b3's N*Delta coefficient, 1/4
A2_K2_DELTA_OVER_E4 = (1, (2, 0, 0, 0, -1, 0, 1))  # a2's K^2*Delta/E4 coefficient, 1/4


@pytest.mark.parametrize(
    "coefficient, suites",
    [(B3_N_DELTA, ("jacobians", "curve")), (A2_K2_DELTA_OVER_E4, ("curve", "table1"))],
    ids=["b3 N*Delta", "a2 K^2*Delta/E4"],
)
def test_a_wrong_frame_form_coefficient_fails_its_checks(monkeypatch, coefficient, suites):
    # the ab form of one coefficient with one exact coefficient doubled
    i, exps = coefficient
    ab, cd = (list(t.images) for t in _frame_forms())
    assert ab[i].terms[exps] == F(1, 4)
    ab[i] = ab[i] + ModularKLMN.monomial(exps, F(1, 4))
    patched = tuple(PowerTable(images, ModularKLMN.one()) for images in (ab, cd))
    monkeypatch.setattr(sw_curve, "_frame_forms", lambda: patched)
    _frame_values.cache_clear()
    try:
        failed = {suite: [r.name for r in verify.SUITES[suite](6) if not r.passed] for suite in suites}
    finally:
        _frame_values.cache_clear()
    assert all(failed.values()), failed
    if "table1" in suites:
        assert "explicit forms of <f,f>^2 (curve and K,L,M,N)" in failed["table1"]


def test_frame_form_poles_are_the_frame_change_poles():
    # the pole order in E4 of each ab form is the pole order in c0 of its
    # variable in the cd frame, and the pole order in E6 of each cd form that
    # in b0 of its variable in the ab frame
    ab, cd = (t.images for t in _frame_forms())
    assert [form.min_degree_in(4) for form in ab] == [
        ab_to_cd(CurvePolyAB.variable(i)).min_degree_in(0) for i in range(6)
    ] == [1, -1, 0, -1, -2, -3]
    assert [form.min_degree_in(5) for form in cd] == [
        cd_to_ab(CurvePolyCD.variable(i)).min_degree_in(2) for i in range(6)
    ] == [0, -1, -2, 1, -1, -2]


# -- evaluation core by core, against term-by-term composition ---------------------


def evaluation_inputs():
    """(frame, polynomial) pairs: the recoveries, the generators' cd images, the
    Gordan images in both frames and Laurent monomials in the unit variables."""
    ab, cd = recovery_polys()
    gordan = [g.image for g in gordan_generators()]
    ab_inputs = [*ab, *gordan, A0 ** -3 * B0 ** 2 * B1, A0 ** 2 * B1 + A0 ** -1 * B0 ** 2 * B1]
    cd_inputs = [
        *cd, *map(ab_to_cd, (A2, B1, B2, B3)), *map(ab_to_cd, gordan), C0 ** -1 * C1 ** 2 * D0,
        C0 ** -1 * C1 ** 2 * D0 + C0 ** 2 * C1 ** 2 * D0 ** -1,
    ]
    return [(0, p) for p in ab_inputs] + [(1, p) for p in cd_inputs]


def evaluation_digest(order):
    """SHA-256 of the stored coefficients and windows of the twelve frame
    variables and the recoveries (both frames) at this order, every series
    built afresh: the kept tables that hold series are emptied first."""
    for cache in (
        exact_series.eisenstein, exact_series.eta_delta, exact_series.e_series,
        invariant_ring.klmn, invariant_ring.modular_in_klmn, _frame_values,
    ):
        cache.cache_clear()
    ab, cd = recovery_polys()
    inputs = [(evaluate_ab, p) for p in (*map(CurvePolyAB.variable, range(6)), *ab)]
    inputs += [(evaluate_cd, p) for p in (*map(CurvePolyCD.variable, range(6)), *cd)]
    digest = hashlib.sha256()
    for evaluate, p in inputs:
        value = evaluate(p, order)
        terms = sorted((exps, s.trunc, sorted(s._num.items()), s._den) for exps, s in value.terms.items())
        digest.update(repr((value.weight, value.degree, terms)).encode())
    return digest.hexdigest()


# evaluation_digest(order) of the values as they stand; a change to any stored
# coefficient or window of the frame variables or recoveries moves one of them
EVALUATION_DIGESTS = {
    2: "b1692a38e431dbe00368d06cd7f15970bd46f55361b41129f6fe82f7addb32e2",
    3: "936bf3c8234f352f2c254c5d2558c060e27d82e9309cf539be12b6140f5a47da",
    4: "4ecd433a7ac0d21610325ca2da602e73a8fb83b1e73f00881a3be65a3c7e48d2",
    24: "bb518268f657b8cc42f07bc85656dbf28aa6c321ac490802017936ea2abb56ec",
    96: "a36febf8a4b270d2c365b506d6ef05f37dc1f87c18323b2f86ea6767e2b5a5da",
}


@pytest.mark.parametrize("order", [2, 3, 4, 24])
def test_evaluation_digest_is_pinned(order):
    assert evaluation_digest(order) == EVALUATION_DIGESTS[order]


def test_packed_products_leave_every_order_96_value_unchanged(monkeypatch):
    # the same stored values and windows with the packed product as with the
    # dot products alone, KRONECKER_TERMS out of reach of every product
    packed_product = exact_series._packed_product
    packed = []

    def record(*args):
        packed.append(len(args[0]))
        return packed_product(*args)

    monkeypatch.setattr(exact_series, "_packed_product", record)
    digest = evaluation_digest(96)
    assert digest == EVALUATION_DIGESTS[96]
    assert packed and min(packed) >= exact_series.KRONECKER_TERMS
    packed.clear()
    monkeypatch.setattr(exact_series, "KRONECKER_TERMS", 10**6)
    assert evaluation_digest(96) == digest and not packed


@pytest.mark.parametrize("order", [2, 3, 4, 5, 6, 24, 96])
def test_evaluation_by_cores_matches_compose(order):
    # the same terms, windows and grading as one product per monomial
    for frame, p in evaluation_inputs():
        result = (evaluate_ab, evaluate_cd)[frame](p, order)
        assert result.to_json() == compose(p, _frame_values(order)[frame]).to_json(), (frame, p)


@pytest.mark.parametrize("order", [2, 3, 6, 24])
def test_unit_powers_keep_every_coefficient_window(order):
    # a unit power times a coefficient c has c's window exactly when the unit
    # has valuation 0 and trunc LATTICE*order and c.trunc <= LATTICE*order + val(c)
    verify.run_suite("curve", order)
    trunc = LATTICE * order
    assert -1 in _frame_values(order)[1].powers[0]  # c0^-1, for the cd recoveries
    for table, cls in zip(_frame_values(order), (CurvePolyAB, CurvePolyCD)):
        for i, cache in enumerate(table.powers):
            for value in cache.values():
                if i in cls.laurent:
                    assert set(value.terms) == {ONE_EXPS}
                    unit = value.terms[ONE_EXPS]
                    assert (unit.valuation, unit.trunc) == (0, trunc)
                for c in value.terms.values():
                    assert c.is_zero or c.trunc <= trunc + c.valuation


def test_zero_and_window_zero_values_keep_their_grading():
    # 4 a0^6 - 216 a0^3 b0^2 + 2916 b0^4 is 4 Delta^2, zero below q^2
    for frame, p in ((0, CurvePolyAB.zero()), (1, CurvePolyCD.zero())):
        result = (evaluate_ab, evaluate_cd)[frame](p, 6)
        assert result.to_json() == compose(p, _frame_values(6)[frame]).to_json()
        assert (result.weight, result.degree, result.terms) == (0, 0, {})
    delta_squared = A0 ** 6 * 4 - A0 ** 3 * B0 ** 2 * 216 + B0 ** 4 * 2916
    result = evaluate_ab(delta_squared, 2)
    assert result.is_zero and (result.weight, result.degree) == (24, 0)
    assert result.to_json() == compose(delta_squared, _frame_values(2)[0]).to_json()


def test_evaluation_by_cores_makes_fewer_series_products(monkeypatch):
    # on warm tables, a recovery polynomial multiplies each shared core once
    polys = [(frame, p) for frame, ps in enumerate(recovery_polys()) for p in ps]
    tables = _frame_values(24)
    for frame, p in polys:
        (evaluate_ab, evaluate_cd)[frame](p, 24)
        compose(p, tables[frame])
    products = []
    multiply = FracSeries.__mul__

    def counted(self, other):
        if isinstance(other, FracSeries):
            products.append(1)
        return multiply(self, other)

    monkeypatch.setattr(FracSeries, "__mul__", counted)

    def count(evaluate):
        products.clear()
        for frame, p in polys:
            evaluate(frame, p)
        return len(products)

    by_cores = count(lambda frame, p: (evaluate_ab, evaluate_cd)[frame](p, 24))
    by_monomials = count(lambda frame, p: compose(p, tables[frame]))
    assert 0 < by_cores < by_monomials
