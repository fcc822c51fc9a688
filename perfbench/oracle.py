"""Independent integer oracles for the benchmark's correctness checks.

Nothing here imports `triality`: every expected value comes from a closed
form (divisor sums, the eta product, the Cayley-Sylvester count), so a
wrong result from the program cannot also be the expected one.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

LATTICE = 24  # t-units per power of q, as in the program's JSON output


def sigma(power, n):
    return sum(d ** power for d in range(1, n + 1) if n % d == 0)


def eisenstein_q_coeffs(weight, order):
    """E4 = 1 + 240 sum sigma_3(n) q^n and E6 = 1 - 504 sum sigma_5(n) q^n."""
    factor = {4: 240, 6: -504}[weight]
    return [1] + [factor * sigma(weight - 1, n) for n in range(1, order)]


def euler_product(order):
    """Coefficients of prod_{n>=1} (1 - q^n) below q^order."""
    coeffs = [1] + [0] * (order - 1)
    for n in range(1, order):
        for i in range(order - 1, n - 1, -1):
            coeffs[i] -= coeffs[i - n]
    return coeffs


def delta_q_coeffs(order):
    """Delta = q prod (1 - q^n)^24, coefficients of q^0 .. q^(order-1)."""
    base = euler_product(order)
    power = [1] + [0] * (order - 1)
    for _ in range(24):
        power = [
            sum(power[j] * base[i - j] for j in range(i + 1)) for i in range(order)
        ]
    return [0] + power[: order - 1]


EXPAND_SERIES = {
    "E4": lambda order: eisenstein_q_coeffs(4, order),
    "E6": lambda order: eisenstein_q_coeffs(6, order),
    "Delta": delta_q_coeffs,
}


def expected_series_terms(name, order, scale=Fraction(1)):
    """The nonzero terms [[t-exponent, "num/den"], ...] of scale * series."""
    out = []
    for n, c in enumerate(EXPAND_SERIES[name](order)):
        value = scale * c
        if value:
            out.append([LATTICE * n, f"{value.numerator}/{value.denominator}"])
    return out


# -- Cayley-Sylvester count -------------------------------------------------------

ALPHA_WEIGHTS = (2, 0, -2)  # scaling weights of the quadratic's coefficients
BETA_WEIGHTS = (3, 1, -1, -3)  # and of the cubic's


@lru_cache(maxsize=None)
def _monomial_counts(weights, degree):
    if not weights:
        return {0: 1} if degree == 0 else {}
    head, rest = weights[0], weights[1:]
    out = {}
    for e in range(degree + 1):
        for w, c in _monomial_counts(rest, degree - e).items():
            out[head * e + w] = out.get(head * e + w, 0) + c
    return out


def monomial_count(d_alpha, d_beta, omega):
    """N(omega): monomials of refined degrees (d_alpha, d_beta) and order omega."""
    a = _monomial_counts(ALPHA_WEIGHTS, d_alpha)
    b = _monomial_counts(BETA_WEIGHTS, d_beta)
    return sum(c * b.get(omega - w, 0) for w, c in a.items())


def semiinvariant_count(d_alpha, d_beta, omega):
    """Cayley-Sylvester: dim of joint semiinvariants is N(omega) - N(omega + 2)."""
    if omega < 0:
        return 0
    return monomial_count(d_alpha, d_beta, omega) - monomial_count(d_alpha, d_beta, omega + 2)


def invariant_dimension(k, m):
    """dim of triality invariants of weight k and degree m, by the isomorphism
    with joint semiinvariants of degrees (d_a, d_b), k = 4 d_a + 6 d_b + m,
    and order (k - 3m) / 2."""
    if k % 2 or m % 2 or k < 0 or m < 0:
        return 0
    total = 0
    for d_alpha in range((k - m) // 4 + 1):
        rest = k - m - 4 * d_alpha
        if rest >= 0 and rest % 6 == 0:
            total += semiinvariant_count(d_alpha, rest // 6, (k - 3 * m) // 2)
    return total


def dimension_table(k_max, m_max):
    return {
        (k, m): invariant_dimension(k, m)
        for k in range(0, k_max + 1, 2)
        for m in range(0, m_max + 1, 2)
    }


# -- transvectants of binary forms ------------------------------------------------
# A form is {(alpha0, alpha1, alpha2, beta0, beta1, beta2, beta3, u, v): Fraction}
# with f = alpha0 u^2 + alpha1 u v + alpha2 v^2 and
# g = beta0 u^3 + beta1 u^2 v + beta2 u v^2 + beta3 v^3.

U, V = 7, 8


def _unit(*exps):
    return {tuple(exps): Fraction(1)}


QUADRATIC = {**_unit(1, 0, 0, 0, 0, 0, 0, 2, 0), **_unit(0, 1, 0, 0, 0, 0, 0, 1, 1),
             **_unit(0, 0, 1, 0, 0, 0, 0, 0, 2)}
CUBIC = {**_unit(0, 0, 0, 1, 0, 0, 0, 3, 0), **_unit(0, 0, 0, 0, 1, 0, 0, 2, 1),
         **_unit(0, 0, 0, 0, 0, 1, 0, 1, 2), **_unit(0, 0, 0, 0, 0, 0, 1, 0, 3)}


def _mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _diff(p, var, times):
    for _ in range(times):
        p = {
            e[:var] + (e[var] - 1,) + e[var + 1:]: c * e[var]
            for e, c in p.items()
            if e[var]
        }
    return p


def _uv_order(p):
    return next(iter(e[U] + e[V] for e in p))


def transvectant(p, q, i):
    """(n1-i)! (n2-i)! / (n1! n2!) sum_j (-1)^j C(i,j) p_(u^(i-j) v^j) q_(u^j v^(i-j))."""
    n1, n2 = _uv_order(p), _uv_order(q)
    out = {}
    for j in range(i + 1):
        left = _diff(_diff(p, U, i - j), V, j)
        right = _diff(_diff(q, U, j), V, i - j)
        sign = -1 if j % 2 else 1
        for e, c in _mul(left, right).items():
            out[e] = out.get(e, 0) + sign * comb(i, j) * c
    scale = Fraction(factorial(n1 - i) * factorial(n2 - i), factorial(n1) * factorial(n2))
    return {e: c * scale for e, c in out.items() if c}


@lru_cache(maxsize=None)
def _named_forms():
    P = transvectant(CUBIC, CUBIC, 2)
    return {"f": QUADRATIC, "g": CUBIC, "P": P, "Q": transvectant(CUBIC, P, 1)}


def form(expression):
    """A product of named forms written as 'f', 'f^2' or 'f*g'."""
    out = _unit(*(0,) * 9)
    for factor in expression.split("*"):
        name, _, power = factor.partition("^")
        for _ in range(int(power or 1)):
            out = _mul(out, _named_forms()[name])
    return out


@lru_cache(maxsize=None)
def transvectant_terms(left, right, i):
    """The transvectant of two form expressions as sorted [[exponents], "num/den"]."""
    terms = transvectant(form(left), form(right), i)
    return sorted(([list(e), f"{c.numerator}/{c.denominator}"] for e, c in terms.items()),
                  key=lambda t: t[0])
