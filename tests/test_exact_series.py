import random
import re
from fractions import Fraction as F
from math import comb, gcd
from pathlib import Path

import pytest

from triality import exact_series
from triality.exact_series import (
    DENSE_PAIRS,
    KRONECKER_BITS,
    KRONECKER_TERMS,
    LATTICE,
    FracSeries,
    ZeroSeriesError,
    bernoulli,
    e_series,
    eisenstein,
    eta_delta,
    theta_const,
)


def q(n, trunc_order=10):
    return FracSeries({24 * n: 1}, 24 * trunc_order)


# -- arithmetic ---------------------------------------------------------------


def test_difference_of_squares():
    one_plus = FracSeries({0: 1, 1: 1}, 240)
    one_minus = FracSeries({0: 1, 1: -1}, 240)
    prod = one_plus * one_minus
    assert prod == FracSeries({0: 1, 2: -1}, 240)
    assert prod.trunc == 240


def test_trunc_propagates_pessimistically():
    a = FracSeries({0: 1}, 10 * LATTICE)
    b = FracSeries({0: 1}, 20 * LATTICE)
    assert (a + b).trunc == 10 * LATTICE
    assert (a * b).trunc == 10 * LATTICE


def test_half_integer_exponents_add():
    qq = FracSeries({24: 1}, 600)
    qh = FracSeries({12: 1}, 600)
    prod = qq * qh
    assert prod.terms == {36: F(1)}


def test_ring_axioms_on_random_series():
    rng = random.Random(20240917)

    def rand_series():
        terms = {
            rng.randrange(-12, 120): F(rng.randrange(-9, 10), rng.randrange(1, 7))
            for _ in range(rng.randrange(1, 8))
        }
        return FracSeries(terms, 120)

    for _ in range(25):
        a, b, c = rand_series(), rand_series(), rand_series()
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_both_sides_of_the_pair_selection_store_one_product(monkeypatch):
    # at 15 x 17 = 255 pairs and at 16 x 16 = 256: a run on 24k + 1 (eta's
    # lattice) cut inside it, against a run on 12k - 5 whose window reaches
    # far past its last term, so the product runs past the end of the latter
    rng = random.Random(31)

    def run(n, first, step, trunc):
        # the terms at and past trunc are unknown and not stored
        coeffs = [F(rng.randrange(-99, 100) or 1, rng.choice([1, 2, 7])) for _ in range(n)]
        return FracSeries({first + step * k: c for k, c in enumerate(coeffs)}, trunc)

    for n_left, n_right in ((15, 17), (16, 16)):
        a = run(n_left + 2, 1, 24, 1 + 24 * n_left - 23)
        b = run(n_right, -5, 12, 12 * 3 * n_right)
        pairs = len(a.terms) * len(b.terms)
        assert pairs == n_left * n_right and (pairs >= DENSE_PAIRS) == (pairs == 256)
        for x, y in ((a, b), (b, a)):
            products = []
            for threshold in (DENSE_PAIRS, 1, pairs + 1):  # as selected, then each path forced
                monkeypatch.setattr(exact_series, "DENSE_PAIRS", threshold)
                products.append(stored(x * y))
            monkeypatch.undo()
            # the term-pair loop, kept for small products, is the reference
            assert products[0] == products[1] == products[2]
            _, num, _ = products[0]
            assert (max(num) - min(num)) // 12 >= n_right  # past the end of b's run


def test_both_sides_of_the_packing_selection_store_one_product(monkeypatch):
    # at 63 and 64 stride entries on eta's lattice 24k + 1 and on 24k - 23,
    # with widest numerators totalling KRONECKER_BITS and KRONECKER_BITS + 1
    # split unevenly; the first operand's window cuts the product inside
    rng = random.Random(44)
    packed_product = exact_series._packed_product

    def run(n, first, bits, trunc):
        top = 2**bits - 1
        numerators = [rng.randint(-top, top) for _ in range(n - 1)] + [rng.choice((top, -top))]
        rng.shuffle(numerators)
        return FracSeries({first + 24 * k: F(c, 5) for k, c in enumerate(numerators)}, trunc)

    def record(*args):
        packed.append(route)
        return packed_product(*args)

    routes = (
        {},  # as selected
        {"KRONECKER_TERMS": 1, "KRONECKER_BITS": 10**6},  # packed
        {"KRONECKER_TERMS": 10**6},  # dot products
        {"DENSE_PAIRS": 10**6},  # term-pair loop
    )
    for n_left, total in ((63, KRONECKER_BITS), (64, KRONECKER_BITS), (64, KRONECKER_BITS + 1)):
        a = run(n_left, 1, total // 3, 1 + 24 * n_left)
        b = run(64, -23, total - total // 3, -23 + 24 * 104)
        for x, y in ((a, b), (b, a)):
            products, packed = [], []
            for route, constants in enumerate(routes):
                for name, value in constants.items():
                    monkeypatch.setattr(exact_series, name, value)
                monkeypatch.setattr(exact_series, "_packed_product", record)
                products.append(stored(x * y))
                monkeypatch.undo()
            assert products[0] == products[1] == products[2] == products[3]
            selected = n_left >= KRONECKER_TERMS and total <= KRONECKER_BITS
            assert packed == ([0, 1] if selected else [1])
            trunc, num, _ = products[0]
            assert trunc == 24 * n_left - 22 and len(num) == n_left


@pytest.mark.parametrize("total", [KRONECKER_BITS - 7, KRONECKER_BITS])
@pytest.mark.parametrize("n", [64, 65, 104])
def test_packed_outputs_reach_the_edge_of_their_slots(monkeypatch, n, total):
    # runs of n equal numerators of the widest width sum to outputs up to
    # n (2^a - 1)(2^b - 1): at 65 entries and more, with a + b = total, they
    # need the last bit of the slot, which for total = KRONECKER_BITS - 7
    # is the first bit of one more byte; opposite signs borrow at every slot
    a_bits = total // 2
    ta, tb = 2**a_bits - 1, 2 ** (total - a_bits) - 1
    for sign in (1, -1):
        a = FracSeries({24 * k: ta for k in range(n)}, 24 * n)
        b = FracSeries({24 * k + 12: sign * tb for k in range(n)}, 24 * 2 * n)
        monkeypatch.setattr(exact_series, "KRONECKER_TERMS", 10**6)
        reference = stored(a * b)
        monkeypatch.undo()
        assert stored(a * b) == reference
        assert reference[1] == {24 * k + 12: sign * (k + 1) * ta * tb for k in range(n)}


def test_order_96_products_are_routed_by_their_widths(monkeypatch):
    # E4 times Delta is packed; the inverses of E4 and E6, whose numerators
    # grow with the index, keep the dot products; both as the dot products give
    e4, e6, delta = eisenstein(4, 96), eisenstein(6, 96), eta_delta(96)[1]
    pairs = ((e4, delta), (e4.inverse(), e6.inverse()))
    widths = [sum(max(map(int.bit_length, s._num.values())) for s in pair) for pair in pairs]
    assert widths[0] <= KRONECKER_BITS < 700 < widths[1]
    packed_product = exact_series._packed_product
    packed = []

    def record(*args):
        packed.append(args)
        return packed_product(*args)

    monkeypatch.setattr(exact_series, "_packed_product", record)
    products = [stored(x * y) for x, y in pairs]
    assert len(packed) == 1 and len(packed[0][0]) == len(packed[0][1]) == 96
    monkeypatch.setattr(exact_series, "KRONECKER_TERMS", 10**6)
    assert products == [stored(x * y) for x, y in pairs]
    assert len(packed) == 1


def test_one_term_products_run_the_pair_loop_at_any_length(monkeypatch):
    # 1 x 300 is past DENSE_PAIRS, but one term times a run is cheaper as
    # the loop; its product is the one the dot products give
    rng = random.Random(32)
    one = FracSeries({25: F(-7, 6)}, 24 * 250)
    coeffs = [F(rng.getrandbits(42) - 2**41, rng.choice([1, 5])) for _ in range(300)]
    long = FracSeries({-23 + 24 * k: c for k, c in enumerate(coeffs)}, 24 * 300)
    calls = []
    monkeypatch.setattr(exact_series, "_convolve", lambda *args: calls.append(args))
    products = [one * long, long * one]
    monkeypatch.undo()
    assert calls == [] and len(one.terms) * len(long.terms) == 300 >= DENSE_PAIRS
    trunc = products[0].trunc
    direct = FracSeries._new(exact_series._convolve(one._num, long._num, trunc), one._den * long._den, trunc)
    assert stored(products[0]) == stored(products[1]) == stored(direct)
    assert len(direct.terms) == 249  # one's window cuts the run before its end


def test_equality_only_on_common_window():
    a = FracSeries({0: 1}, 48)
    b = FracSeries({0: 1, 50: 7}, 96)
    assert a == b  # the q^2-term of b is outside a's window
    assert not a == FracSeries({0: 2}, 48)


def test_coeff_beyond_window_raises():
    a = FracSeries({0: 1}, 48)
    with pytest.raises(ValueError):
        a.coeff(48)


# -- inversion -----------------------------------------------------------------


def test_invert_geometric():
    inv = FracSeries({0: 1, 24: -1}, 24 * 12).inverse()
    assert all(inv.coeff(LATTICE * n) == 1 for n in range(12))


def test_invert_discriminant():
    # oracle: the product expansion of eta^24 must invert back to 1
    _, delta = eta_delta(12)
    inv = delta.inverse()
    assert inv.valuation == -24
    assert inv.coeff(-LATTICE) == 1
    assert inv.coeff(0) == 24
    prod = delta * inv
    assert prod == FracSeries.constant(1, prod.trunc)


def test_invert_zero_raises():
    with pytest.raises(ZeroSeriesError):
        FracSeries.zero(100).inverse()


def test_inverse_is_two_sided_on_random_units():
    rng = random.Random(7)
    for _ in range(10):
        terms = {0: F(rng.choice([1, 2, -3, 5]))}
        for _ in range(rng.randrange(1, 6)):
            terms[rng.randrange(1, 60)] = F(rng.randrange(-5, 6))
        a = FracSeries(terms, 120)
        inv = a.inverse()
        assert a * inv == FracSeries.constant(1, 120)
        assert inv * a == FracSeries.constant(1, 120)


def long_division_inverse(series):
    """1/series as {exponent: Fraction} by long division on every exponent of
    the window: b_0 = 1/a_0, b_k = -(sum_{j>=1} a_j b_(k-j)) / a_0."""
    a = {e - series.valuation: c for e, c in series.terms.items()}
    b = {}
    for k in range(series.trunc - series.valuation):
        acc = sum(c * b[k - j] for j, c in a.items() if 0 < j <= k and k - j in b)
        bk = (int(k == 0) - acc) / a[0]
        if bk:
            b[k] = bk
    return {k - series.valuation: bk for k, bk in b.items()}


def weyl_determinant(order):
    # the 2x2 determinant that weyl_in_klmn inverts, -3 eta^12 (valuation 12)
    e1, e2, e3 = e_series(order)
    a, b = e1 - e3, e2 - e3
    c, d = (e1 * e1 - e3 * e3) * 12, (e2 * e2 - e3 * e3) * 12
    return a * d - b * c


def test_inverse_matches_long_division_on_long_inputs():
    # the deep checks invert E4 and E6 at order 96 and the weyl_in_klmn
    # determinant; the last unit has stride 12, a negative valuation and gaps
    units = [
        eisenstein(4, 96),
        eisenstein(6, 96),
        weyl_determinant(96),
        FracSeries({-24: F(-3, 7), -12: 5, 12: F(2, 3), 48: -11, 84: F(1, 5), 144: 2}, LATTICE * 8),
    ]
    assert units[2].valuation == 12
    for unit in units:
        trunc = unit.trunc - 2 * unit.valuation
        assert stored(unit.inverse()) == stored(FracSeries(long_division_inverse(unit), trunc))


def test_series_divide_only_by_scalars(capsys):
    # a quotient of series is x * y.inverse(); / takes ints and Fractions, as
    # the README's library example does, whose last line still prints True
    _, delta = eta_delta(8)
    with pytest.raises(TypeError):
        delta / delta
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("## Library example", 1)[1]
    exec(re.search(r"```python\n(.*?)```", example, re.S).group(1), {})
    assert capsys.readouterr().out.splitlines()[-1] == "True"


# -- Bernoulli numbers -----------------------------------------------------------


def bernoulli_oracle(kmax):
    # independent recurrence: sum_{j=0}^{k} C(k+1, j) B_j = 0 for k >= 1
    b = [F(1)]
    for k in range(1, kmax + 1):
        b.append(-sum(comb(k + 1, j) * b[j] for j in range(k)) / (k + 1))
    return b


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(2) == F(1, 6)
    assert bernoulli(12) == F(-691, 2730)


def test_bernoulli_against_recurrence():
    # the series inversion against the binomial recurrence, past every
    # weight the Eisenstein series use
    oracle = bernoulli_oracle(59)
    for k in range(60):
        assert bernoulli(k) == oracle[k]
    with pytest.raises(ValueError):
        bernoulli(-1)


# -- Eisenstein series ---------------------------------------------------------------


def sigma(n, k):
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


def test_eisenstein_low_weights():
    e4 = eisenstein(4, 3)
    assert [e4.coeff(LATTICE * n) for n in range(3)] == [1, 240, 2160]
    e6 = eisenstein(6, 3)
    assert [e6.coeff(LATTICE * n) for n in range(3)] == [1, -504, -16632]


def test_eisenstein_divisor_sums():
    for two_n in (4, 6, 8, 10):
        series = eisenstein(two_n, 15)
        factor = F(-2 * two_n) / bernoulli(two_n)
        assert series.coeff(0) == 1
        for n in range(1, 15):
            assert series.coeff(LATTICE * n) == factor * sigma(n, two_n - 1)


def test_eisenstein_constant_term_is_one():
    for two_n in (2, 4, 6, 12, 14):
        assert eisenstein(two_n, 2).coeff(0) == 1


def stored(series):
    return series.trunc, series._num, series._den


def eisenstein_by_fractions(two_n, order):
    # one Fraction per divisor, through the validating constructor
    factor = F(-2 * two_n) / bernoulli(two_n)
    coeffs = {0: F(1)}
    for k in range(1, order):
        for e in range(LATTICE * k, LATTICE * order, LATTICE * k):
            coeffs[e] = coeffs.get(e, F(0)) + factor * k ** (two_n - 1)
    return FracSeries(coeffs, LATTICE * order)


def test_eisenstein_on_integers_matches_the_fraction_loop():
    for two_n in range(2, 13, 2):
        for order in range(1, 65):
            assert stored(eisenstein(two_n, order)) == stored(eisenstein_by_fractions(two_n, order))


# -- theta constants ---------------------------------------------------------------------


def theta_oracle(k, order):
    # brute-force lattice sum over a generous n-range
    trunc = LATTICE * order
    coeffs = {}
    for n in range(-200, 201):
        if k == 2:
            e = 3 * (2 * n - 1) ** 2
            sign = 1
        elif k == 3:
            e = 12 * n * n
            sign = 1
        else:
            e = 12 * n * n
            sign = (-1) ** n
        if e < trunc:
            coeffs[e] = coeffs.get(e, 0) + sign
    return FracSeries(coeffs, trunc)


def test_theta_expansions():
    t3 = theta_const(3, 6)
    assert t3.coeff(0) == 1
    assert t3.coeff(LATTICE // 2) == 2
    assert t3.coeff(LATTICE * 2) == 2
    assert t3.coeff(9 * LATTICE // 2) == 2
    t4 = theta_const(4, 6)
    assert t4.coeff(LATTICE // 2) == -2
    assert t4.coeff(9 * LATTICE // 2) == -2
    t2 = theta_const(2, 6)
    assert t2.coeff(LATTICE // 8) == 2


def test_theta_against_bruteforce():
    for k in (2, 3, 4):
        assert theta_const(k, 8) == theta_oracle(k, 8)


def theta_two_loops(k, order):
    """The two lattice loops theta_const once had, kept as its reference:
    one over the half-integers for theta2, one over the integers for theta3/theta4."""
    trunc = LATTICE * order
    terms = {}
    if k == 2:
        n = 1
        while 3 * (2 * n - 1) ** 2 < trunc:
            terms[3 * (2 * n - 1) ** 2] = F(2)
            n += 1
    else:
        terms[0] = F(1)
        n = 1
        while 12 * n * n < trunc:
            terms[12 * n * n] = F(-2 if k == 4 and n % 2 else 2)
            n += 1
    return terms, trunc


def test_theta_one_lattice_sum_matches_the_two_loops():
    for k in (2, 3, 4):
        for order in range(1, 49):
            theta = theta_const(k, order)
            assert (dict(theta.terms), theta.trunc) == theta_two_loops(k, order), (k, order)
    for k, order in ((3, 0), (5, 4), (1, 4)):
        with pytest.raises(ValueError):
            theta_const(k, order)


def test_theta1_vanishes_at_origin():
    # the n and 1-n summands of the odd theta cancel pairwise; the range
    # [-49, 50] is closed under that pairing
    total = {}
    for n in range(-49, 51):
        e = 3 * (2 * n - 1) ** 2
        total[e] = total.get(e, 0) + (-1) ** n
    assert all(v == 0 for v in total.values())


def test_theta_fourth_powers_on_half_lattice():
    for k in (2, 3, 4):
        fourth = theta_const(k, 6) ** 4
        assert all(e % 12 == 0 for e in fourth.terms)


# -- eta and the discriminant ------------------------------------------------------------


def eta_oracle(order):
    # pentagonal-number expansion of q^(1/24) prod (1 - q^n)
    trunc = LATTICE * order
    coeffs = {1: 1}
    m = 1
    while True:
        p1 = 1 + 24 * (m * (3 * m - 1) // 2)
        p2 = 1 + 24 * (m * (3 * m + 1) // 2)
        if p1 >= trunc and p2 >= trunc:
            break
        if p1 < trunc:
            coeffs[p1] = (-1) ** m
        if p2 < trunc:
            coeffs[p2] = (-1) ** m
        m += 1
    return FracSeries(coeffs, trunc)


def test_eta_product_matches_pentagonal_numbers():
    for order in (2, 3, 20, 64, 128):
        eta, _ = eta_delta(order)
        assert eta.trunc == LATTICE * order
        assert eta == eta_oracle(order)


def test_eta_on_integers_matches_series_products():
    for order in range(2, 65):
        # q^(1/24) times one series (1 - q^n) per factor, through __mul__
        trunc = LATTICE * order
        eta = FracSeries({1: 1}, trunc)
        for n in range(1, order):
            eta = eta * FracSeries({0: 1, LATTICE * n: -1}, trunc)
        assert stored(eta_delta(order)[0]) == stored(eta)
        assert stored(eta_delta(order)[1]) == stored(eta ** 24)


def test_eta_twelfth_power_on_half_lattice():
    eta, _ = eta_delta(6)
    twelfth = eta ** 12
    assert all(e % 12 == 0 for e in twelfth.terms)


def test_delta_expansion():
    _, delta = eta_delta(6)
    assert [delta.coeff(LATTICE * n) for n in range(1, 5)] == [1, -24, 252, -1472]


def test_delta_coefficients_obey_ramanujan_tau_relations():
    # Delta = sum tau(n) q^n from eta_delta(96); eta has 16 terms below q^96,
    # so the first squaring of eta^24 already runs on DENSE_PAIRS pairs
    eta, delta = eta_delta(96)
    assert len(eta.terms) ** 2 >= DENSE_PAIRS
    assert delta.trunc > LATTICE * 96
    tau = [delta.coeff(LATTICE * n) for n in range(97)]
    assert all(c.denominator == 1 for c in tau) and tau[:3] == [0, 1, -24]
    assert all(delta.coeff(e) == 0 for e in range(delta.trunc) if e % LATTICE)
    coprime = [(m, n) for m in range(2, 96) for n in range(m + 1, 96) if m * n <= 96 and gcd(m, n) == 1]
    assert len(coprime) > 50
    for m, n in coprime:
        assert tau[m * n] == tau[m] * tau[n], (m, n)
    for p in (2, 3, 5, 7):
        assert tau[p * p] == tau[p] ** 2 - p ** 11, p
    # the Hecke recurrence on the powers of 2 and 3 in the window
    for p, top in ((2, 6), (3, 4)):
        for k in range(1, top):
            assert tau[p ** (k + 1)] == tau[p] * tau[p ** k] - p ** 11 * tau[p ** (k - 1)], (p, k)


def test_delta_equals_eisenstein_combination():
    for order in (2, 6, 25):
        _, delta = eta_delta(order)
        combo = (eisenstein(4, order) ** 3 - eisenstein(6, order) ** 2) / 1728
        assert delta == combo


# -- the weight-2 forms -----------------------------------------------------------------


def theta4_counting_oracle(k, order):
    # representation counts of the quadruple lattice sum, by direct counting
    trunc = LATTICE * order
    coeffs = {}
    if k == 2:
        rng = range(-15, 16)
        exps = [3 * (2 * n - 1) ** 2 for n in rng]
        signs = [1] * len(exps)
    else:
        rng = range(-15, 16)
        exps = [12 * n * n for n in rng]
        signs = [(-1) ** n if k == 4 else 1 for n in rng]
    for i1, e1 in enumerate(exps):
        for i2, e2 in enumerate(exps):
            if e1 + e2 >= trunc:
                continue
            for i3, e3 in enumerate(exps):
                if e1 + e2 + e3 >= trunc:
                    continue
                for i4, e4 in enumerate(exps):
                    e = e1 + e2 + e3 + e4
                    if e < trunc:
                        s = signs[i1] * signs[i2] * signs[i3] * signs[i4]
                        coeffs[e] = coeffs.get(e, 0) + s
    return FracSeries(coeffs, trunc)


def test_e_series_sum_vanishes():
    e1, e2, e3 = e_series(25)
    total = e1 + e2 + e3
    assert total.is_zero


def test_e1_expansion():
    e1 = e_series(4)[0]
    assert e1.coeff(0) == F(1, 6)
    assert e1.coeff(LATTICE) == 4
    assert e1.coeff(LATTICE * 2) == 4


def test_e_series_against_counting_oracle():
    order = 4
    th = {k: theta4_counting_oracle(k, order) for k in (2, 3, 4)}
    e1, e2, e3 = e_series(order)
    assert e1 == (th[3] + th[4]) / 12
    assert e2 == (th[2] - th[4]) / 12
    assert e3 == (th[2] + th[3]) / -12


def test_half_q_flip_swaps_e2_e3():
    _, e2, e3 = e_series(10)
    flipped = FracSeries(
        {e: -c if (e // 12) % 2 else c for e, c in e2.terms.items()}, e2.trunc
    )
    assert flipped == e3


def test_terms_is_a_read_only_view():
    s = FracSeries({0: F(1, 2), 24: 3}, 48)
    terms = s.terms
    assert terms == {0: F(1, 2), 24: F(3)}
    assert len(terms) == 2 and sorted(terms) == [0, 24]
    with pytest.raises(TypeError):
        terms[0] = F(7)
    assert s.coeff(0) == F(1, 2)


def test_serialization_round_trip():
    e1 = e_series(3)[0]
    payload = e1.to_json()
    assert payload["trunc"] == 72
    rebuilt = FracSeries(
        {e: F(s) for e, s in payload["terms"]}, payload["trunc"]
    )
    assert rebuilt == e1
