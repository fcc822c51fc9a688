import random
from fractions import Fraction as F
from functools import reduce
from itertools import combinations, permutations
from operator import mul

import pytest

from triality import _poly, sw_curve
from triality._poly import PowerTable, _grlex_key, compose, jacobian, monomial_degree, ring_det
from triality.exact_series import FracSeries
from triality.invariant_ring import Invariant, klmn_forms
from triality.weyl_poly import (
    I_DEGREES,
    IPoly,
    NotInvariantError,
    ZPoly,
    ipoly_to_zpoly,
    weyl_generators,
    zpoly_to_ipoly,
)


def at(point):
    """The table that sends z1..z4 to the constants of `point`."""
    return PowerTable([ZPoly.constant(x) for x in point], ZPoly.one())


def test_generators_point_values():
    i2, i4, i6, i4t = weyl_generators()
    assert compose(i2, at((1, 0, 0, 0))) == ZPoly.one()
    assert compose(i4, at((1, 1, 0, 0))) == ZPoly.one()
    assert compose(i6, at((1, 1, 1, 0))) == ZPoly.one()
    assert i4t == ZPoly.monomial((1, 1, 1, 1))


def test_expand_generators():
    assert ipoly_to_zpoly(IPoly.variable(0)) == sum(
        (ZPoly.variable(i, 2) for i in range(4)), ZPoly.zero()
    )
    sq = ipoly_to_zpoly(IPoly.variable(3, 2))
    assert sq == ZPoly.monomial((2, 2, 2, 2))


def test_power_sum_in_generators():
    s4 = sum((ZPoly.variable(i, 4) for i in range(4)), ZPoly.zero())
    assert zpoly_to_ipoly(s4) == IPoly({(2, 0, 0, 0): 1, (0, 1, 0, 0): -2})


def test_conversion_builds_one_power_table(monkeypatch):
    from triality import weyl_poly

    tables = []

    def counted(*args):
        tables.append(args)
        return PowerTable(*args)

    monkeypatch.setattr(weyl_poly, "PowerTable", counted)
    p = IPoly({(3, 0, 0, 0): 1, (1, 1, 0, 0): -2, (0, 0, 1, 0): 5, (1, 0, 0, 1): 7})
    z = compose(p, PowerTable(weyl_generators(), ZPoly.one()))
    assert zpoly_to_ipoly(z) == p
    assert len(tables) == 1


def test_product_monomial_is_generator():
    assert zpoly_to_ipoly(ZPoly.monomial((1, 1, 1, 1))) == IPoly.variable(3)


def test_non_invariant_rejected():
    with pytest.raises(NotInvariantError):
        zpoly_to_ipoly(ZPoly.variable(0))
    with pytest.raises(NotInvariantError):
        zpoly_to_ipoly(ZPoly.monomial((2, 0, 0, 0)))


def test_inhomogeneous_rejected():
    i2 = ipoly_to_zpoly(IPoly.variable(0))
    with pytest.raises(ValueError):
        zpoly_to_ipoly(i2 + ZPoly.one())


def test_round_trip_on_random_ipolys():
    def monomials(m):
        # generator exponents (a, b, c, d) of z-degree 2a + 4b + 6c + 4d = m
        found = (
            (a, b, c, d)
            for a in range(m // 2 + 1)
            for b in range(m // 4 + 1)
            for c in range(m // 6 + 1)
            for d in range(m // 4 + 1)
            if 2 * a + 4 * b + 6 * c + 4 * d == m
        )
        return sorted(found, key=_grlex_key, reverse=True)

    rng = random.Random(11)
    for _ in range(12):
        degree = rng.choice((4, 6, 8, 10, 12))
        monos = monomials(degree)
        p = IPoly(
            {m: F(rng.randrange(-6, 7)) for m in rng.sample(monos, min(3, len(monos)))}
        )
        assert zpoly_to_ipoly(ipoly_to_zpoly(p)) == p


def t_polynomials():
    """T1, T2, T3 read back off L = sum e_i T_i and M = 12 sum e_i^2 T_i of
    `klmn_forms`: at (e1, e2) = (1, 0) or (0, 1), e3 = -1, so L = T_i - T3 and
    M/12 = T_i + T3 for i = 1 or 2.  Also returns the second reading of T3."""
    _, L, M, _ = klmn_forms()
    readings = []
    for e in ((1, 0), (0, 1)):
        table = PowerTable([IPoly.variable(i) for i in range(4)] + [IPoly.constant(x) for x in e], IPoly.one())
        readings.append((compose(L, table), compose(M, table) / 12))
    (l1, m1), (l2, m2) = readings
    return (l1 + m1) / 2, (l2 + m2) / 2, (m1 - l1) / 2, (m2 - l2) / 2


def test_t_polynomials_sum_to_zero():
    t1, t2, t3, t3_again = t_polynomials()
    assert t3 == t3_again
    assert ipoly_to_zpoly(t1 + t2 + t3).is_zero
    assert t1 == IPoly({(0, 1, 0, 0): F(1, 6), (2, 0, 0, 0): F(-1, 24)})
    assert t2 - t3 == -IPoly.variable(3)


def test_degree_six_combination_point_value():
    # I6/4 - I2 I4/24 + I2^3/96 at (1, 0, 0, 0)
    n = IPoly({(0, 0, 1, 0): F(1, 4), (1, 1, 0, 0): F(-1, 24), (3, 0, 0, 0): F(1, 96)})
    assert compose(ipoly_to_zpoly(n), at((1, 0, 0, 0))) == ZPoly.constant(F(1, 96))


def test_jacobian_alternating_and_multilinear():
    i2, i4, i6, i4t = weyl_generators()
    assert jacobian((i4, i2, i6, i4t)) == -jacobian((i2, i4, i6, i4t))
    assert jacobian((i2, i2, i6, i4t)).is_zero
    doubled = jacobian((3 * i2, i4, i6, i4t))
    assert doubled == 3 * jacobian((i2, i4, i6, i4t))
    split = jacobian((i2 + i4, i4, i6, i4t))
    assert split == jacobian((i2, i4, i6, i4t))  # the i4 summand is degenerate


def test_determinant_of_no_rows_is_refused():
    with pytest.raises(ValueError, match="empty matrix"):
        ring_det([])


def leibniz(matrix):
    """The determinant as the signed sum over permutations, the oracle of `ring_det`."""
    n = len(matrix)
    products = []
    for perm in permutations(range(n)):
        product = reduce(mul, (matrix[i][perm[i]] for i in range(n)))
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(n), 2))
        products.append(-product if inversions % 2 else product)
    return sum(products[1:], products[0])


def random_zpoly(rng):
    return ZPoly(
        {tuple(rng.randrange(3) for _ in range(4)): F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3)}
    )


# the monomials of I-degree 0, 2 and 4
I_MONOMIALS = [(0, 0, 0, 0), (1, 0, 0, 0), (2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)]


def random_invariant_row(rng, n, trunc):
    """n entries of one grading, so every product over a permutation has one grading."""
    weight, degree = rng.randrange(-4, 8, 2), rng.choice((0, 2, 4))
    monos = [e for e in I_MONOMIALS if monomial_degree(I_DEGREES, e) == degree]

    def series():
        terms = {12 * rng.randrange(-2, 6): F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)}
        return FracSeries(terms, trunc)

    return [Invariant({e: series() for e in monos}, weight, degree) for _ in range(n)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_determinant_matches_the_leibniz_formula(n):
    rng = random.Random(n)
    trunc = 24 * 4  # order 4
    matrices = [[[random_zpoly(rng) for _ in range(n)] for _ in range(n)] for _ in range(4)]
    matrices += [[random_invariant_row(rng, n, trunc) for _ in range(n)] for _ in range(3)]
    for matrix in matrices:
        det = ring_det(matrix)
        assert det == leibniz(matrix)
        if n > 1:
            i, j = rng.sample(range(n), 2)
            swapped = list(matrix)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            assert ring_det(swapped) == -det


def test_each_jacobian_enters_ring_det_once(monkeypatch):
    # the bench times `_poly.ring_det` by its module name: an expansion that
    # recursed through that name would open 40 more spans per 4x4 determinant
    calls = []

    def counted(matrix):
        calls.append(len(matrix))
        return ring_det(matrix)

    monkeypatch.setattr(_poly, "ring_det", counted)
    jacobian(weyl_generators())
    jacobian(klmn_forms())
    assert calls == [4, 4]
    sw_curve.jacobian_klmn(4)
    assert calls == [4, 4, 4, 4]


def test_json_term_order_is_canonical():
    p = IPoly({(1, 0, 0, 0): 1, (0, 0, 0, 1): 2, (3, 0, 0, 0): -1})
    listed = [tuple(e) for e, _ in p.to_json()]
    # graded lexicographic, I2 > I4 > I6 > I~4, highest first
    assert listed == [(3, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1)]
