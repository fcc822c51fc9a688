"""Joint covariants and semiinvariants of a binary quadratic and cubic.

The quadratic f = sum alpha_i u^(2-i) v^i and cubic g = sum beta_i
u^(3-i) v^i are handled through one polynomial flavor over the nine
variables (alpha0..alpha2, beta0..beta3, u, v).  Alpha0 and beta0 may
carry negative powers, as the two completions of the square need; the
module builds only the one by -alpha1/(2 alpha0), the shift u -> u + s v
of the coefficients (`hat_coefficients`, through `_poly.taylor_shift`)
that psi_forward substitutes, composing over one power table of the hat
images kept for the process.  Its inverse psi_inverse (alpha1 -> 0) only
relabels stored terms.  u and v are never Laurent, and every public
result is validated polynomial.

The unipotent action is read through two derivations of the coefficients,
each a table of (i, j, w) triples meaning w x_j d/dx_i and applied by the
one helper `_derivation` in one pass over the stored integer numerators:
the raising D = 2 alpha0 d/dalpha1 + alpha1 d/dalpha2 + 3 beta0 d/dbeta1
+ 2 beta1 d/dbeta2 + beta2 d/dbeta3, which generates u -> u + kappa v
(P(kappa) = exp(kappa D) P, so P is a semiinvariant iff DP = 0), and the
lowering Delta alpha_i = (i+1) alpha_(i+1), Delta beta_i = (i+1)
beta_(i+1).  With the scaling order they form an sl2 triple, so a
polynomial Phi of order omega >= 0 is a semiinvariant iff
Delta^(omega+1) Phi = 0, and then its covariant is sum_k Delta^k Phi / k!
u^(omega-k) v^k (the Roberts correspondence).
The gradings are weight rows on `FormPoly` (the (u, v) order, the scaling
weights alpha_i -> 2-2i, beta_i -> 3-2i, and the alpha and beta counts),
each read by `SparsePoly.weighted_degree`.  The module also carries the
named forms f, g, P = <g,g>^2 and Q = <g,P>^1 and the fifteen classical
transvectant generators of the joint covariant ring, each built once,
graded by these rows and carrying its leading coefficient and curve
image, and a brute-force dimension oracle for spaces of joint
semiinvariants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm

from ._poly import PowerTable, SparsePoly, bounded_monomials, compose, stored, taylor_shift
from .linalg import LinearSolver
from .sw_curve import CurvePolyAB


class BadOrderError(ValueError):
    """Transvectant index exceeds the order of an argument."""


class NotPolynomialError(ValueError):
    """Alpha0 denominators survived psi_forward, or Roberts was given a
    non-semiinvariant (a Phi of negative order is never one)."""


class FormPoly(SparsePoly):
    nvars = 9
    names = ("alpha0", "alpha1", "alpha2", "beta0", "beta1", "beta2", "beta3", "u", "v")
    laurent = frozenset({0, 3})
    # weight rows: the order in (u, v); the scaling weights under
    # (u, v) -> (lambda u, v / lambda); the alpha and the beta counts
    UV = (0, 0, 0, 0, 0, 0, 0, 1, 1)
    SCALE = (2, 0, -2, 3, 1, -1, -3, 1, -1)
    COUNTS = ((1, 1, 1, 0, 0, 0, 0, 0, 0), (0, 0, 0, 1, 1, 1, 1, 0, 0))

    U = 7
    V = 8


def quadratic_form():
    """f = alpha0 u^2 + alpha1 u v + alpha2 v^2."""
    return FormPoly(
        {
            (1, 0, 0, 0, 0, 0, 0, 2, 0): 1,
            (0, 1, 0, 0, 0, 0, 0, 1, 1): 1,
            (0, 0, 1, 0, 0, 0, 0, 0, 2): 1,
        }
    )


def cubic_form():
    """g = beta0 u^3 + beta1 u^2 v + beta2 u v^2 + beta3 v^3."""
    return FormPoly(
        {
            (0, 0, 0, 1, 0, 0, 0, 3, 0): 1,
            (0, 0, 0, 0, 1, 0, 0, 2, 1): 1,
            (0, 0, 0, 0, 0, 1, 0, 1, 2): 1,
            (0, 0, 0, 0, 0, 0, 1, 0, 3): 1,
        }
    )


def uv_order(F):
    """Homogeneous degree in (u, v)."""
    return F.weighted_degree(FormPoly.UV)


def _require_uv_free(P, name):
    if any(e[FormPoly.U] or e[FormPoly.V] for e in P.terms):
        raise ValueError(f"{name} applies to (u, v)-free polynomials")


def transvectant(f1, f2, i):
    """The i-th transvectant of two binary forms of orders n1, n2 (their `uv_order`).

    Prefactor (n1-i)! (n2-i)! / (n1! n2!) times the alternating sum of
    products of i-th mixed partials; computed by exact differentiation.
    """
    n1, n2 = uv_order(f1), uv_order(f2)
    if i < 0 or i > min(n1, n2):
        raise BadOrderError(f"index {i} out of range for orders ({n1}, {n2})")

    def partials(F):
        # out[j] = d^i F / du^(i-j) dv^j
        du = [F]
        for _ in range(i):
            du.append(du[-1].derivative(FormPoly.U))
        out = []
        for j in range(i + 1):
            p = du[i - j]
            for _ in range(j):
                p = p.derivative(FormPoly.V)
            out.append(p)
        return out

    p1 = partials(f1)
    p2 = partials(f2)
    total = FormPoly._sum(p1[j] * p2[i - j] * ((-1) ** j * comb(i, j)) for j in range(i + 1))
    pref = Fraction(factorial(n1 - i) * factorial(n2 - i), factorial(n1) * factorial(n2))
    return total * pref


# -- semiinvariance --------------------------------------------------------------


# the raising D and the lowering Delta (see the module docstring): their
# terms w x_j d/dx_i as triples (i, j, w)
_DERIVATION = ((1, 0, 2), (2, 1, 1), (4, 3, 3), (5, 4, 2), (6, 5, 1))
_LOWERING = ((0, 1, 1), (1, 2, 2), (3, 4, 1), (4, 5, 2), (5, 6, 3))


def _derivation(P, table):
    """The derivation sum of w x_j d/dx_i over the (i, j, w) of table, applied to P,
    in one pass over its stored terms: n x^e adds w e[i] n at e - delta_i + delta_j
    for each triple with e[i] != 0 (a Laurent e[i] < 0 too), over P's denominator."""
    num, den = stored(P)
    out = {}
    for e, n in num.items():
        for i, j, w in table:
            if k := e[i]:
                key = list(e)
                key[i], key[j] = k - 1, key[j] + 1
                key = tuple(key)
                out[key] = out.get(key, 0) + w * k * n
    return FormPoly._new(out, den)


def is_semiinvariant(P):
    """True iff P is unchanged by u -> u + kappa v for formal kappa, i.e. DP = 0."""
    _require_uv_free(P, "semiinvariance")
    return _derivation(P, _DERIVATION).is_zero


def order_of(P):
    """Scaling order: sum of (2-2i) per alpha_i and (3-2i) per beta_i."""
    _require_uv_free(P, "order_of")
    return P.weighted_degree(FormPoly.SCALE)


def refined_form_degrees(P):
    """(d_alpha, d_beta): homogeneous degrees in the two coefficient families."""
    return tuple(map(P.weighted_degree, FormPoly.COUNTS))


# -- the Roberts correspondence -----------------------------------------------------


def roberts_to_semiinvariant(Psi):
    """Leading coefficient: evaluate the covariant at (u, v) = (1, 0), which
    drops the stored terms holding a v and the u exponent of the rest."""
    num, den = stored(Psi)
    out = {}
    for e, n in num.items():
        if not e[FormPoly.V]:
            key = e[: FormPoly.U] + (0, 0)
            out[key] = out.get(key, 0) + n
    return FormPoly._new(out, den)


def roberts_to_covariant(Phi):
    """The covariant sum_k Delta^k Phi / k! u^(omega-k) v^k of leading coefficient Phi.

    omega is the order of Phi.  This is u^omega Phi(exp((v/u) Delta)
    alpha, beta), which has no negative power of u iff Delta^(omega+1)
    Phi = 0; for a polynomial Phi that holds iff Phi is a semiinvariant.
    NotPolynomialError otherwise, also for a negative omega.
    """
    omega = order_of(Phi)
    if omega < 0:
        raise NotPolynomialError(f"order {omega} is negative: it leads no covariant")
    # part k: the numerators of Delta^k Phi, at u^(omega-k) v^k, over k! times their denominator
    parts = []
    lowered = Phi
    for k in range(omega + 1):
        num, den = stored(lowered)
        parts.append(((omega - k, k), num, den * factorial(k)))
        lowered = _derivation(lowered, _LOWERING)
    if not lowered.is_zero:
        raise NotPolynomialError("Delta^(omega+1) of the input is not 0: it leads no covariant")
    den = lcm(*(d for _, _, d in parts))
    return FormPoly._new(
        {e[: FormPoly.U] + uv: n * (den // d) for uv, num, d in parts for e, n in num.items()}, den
    )


# -- the curve-coefficient substitution ----------------------------------------------


def hat_coefficients():
    """(a-hat, b-hat): the form coefficients with u shifted by -alpha1/(2 alpha0).

    Both are Laurent in alpha0, and a-hat_1 vanishes identically.
    """
    alphas = [FormPoly.variable(i) for i in range(3)]
    betas = [FormPoly.variable(i) for i in range(3, 7)]
    shift = alphas[1] * alphas[0] ** -1 * Fraction(-1, 2)
    return taylor_shift(alphas, shift), taylor_shift(betas, shift)


@lru_cache(maxsize=None)
def _hat_powers():
    """The power table of (a-hat_0, a-hat_2, b-hat_0, ..., b-hat_3), kept for the process."""
    a_hat, b_hat = hat_coefficients()
    return PowerTable([a_hat[0], a_hat[2], *b_hat], FormPoly.one())


def psi_forward(p):
    """Substitute a_i -> a-hat_i, b_j -> b-hat_j into a curve polynomial.

    Composes over the kept `_hat_powers`.  For genuine triality invariants
    all alpha0 denominators cancel and the result is a joint semiinvariant;
    NotPolynomialError otherwise.
    """
    result = compose(p, _hat_powers())
    if result.min_degree_in(0) < 0:
        raise NotPolynomialError("alpha0 denominators survived; not in both frames")
    return result


def psi_inverse(Phi):
    """Substitute alpha0 -> a0, alpha1 -> 0, alpha2 -> a2, beta_j -> b_j: a relabelling
    of the stored terms, those holding an alpha1 dropped and (e0, e2, ..., e6) the ab
    exponents of the rest, over the same denominator (both types are Laurent in the
    same two variables)."""
    _require_uv_free(Phi, "psi_inverse")
    num, den = stored(Phi)
    return CurvePolyAB._new({(e[0],) + e[2 : FormPoly.U]: n for e, n in num.items() if not e[1]}, den)


# -- the fifteen generators --------------------------------------------------------


@dataclass(frozen=True)
class GordanGenerator:
    """A generator's label and covariant, with what is read off the
    covariant: refined degrees (d_a, d_b), order omega, the z-degree
    m = 2 d_a + 3 d_b - omega of the matching triality invariant, the
    modular weight k = 3m + 2 omega, the leading coefficient `semi` (a
    semiinvariant) and its curve image `image` under `psi_inverse`, a
    triality invariant."""

    label: str
    poly: FormPoly
    d_a: int = field(init=False)
    d_b: int = field(init=False)
    degree_m: int = field(init=False)
    order_omega: int = field(init=False)
    semi: FormPoly = field(init=False)
    image: CurvePolyAB = field(init=False)

    def __post_init__(self):
        (d_a, d_b), omega = refined_form_degrees(self.poly), uv_order(self.poly)
        semi = roberts_to_semiinvariant(self.poly)
        # the instance is frozen, so the derived fields go straight into its dict
        vars(self).update(
            d_a=d_a, d_b=d_b, degree_m=2 * d_a + 3 * d_b - omega, order_omega=omega,
            semi=semi, image=psi_inverse(semi),
        )

    @property
    def weight(self):
        return 3 * self.degree_m + 2 * self.order_omega


@lru_cache(maxsize=None)
def named_forms():
    """(f, g, P, Q): the quadratic, the cubic, P = <g,g>^2 and Q = <g,P>^1."""
    f, g = quadratic_form(), cubic_form()
    P = transvectant(g, g, 2)
    return f, g, P, transvectant(g, P, 1)


@lru_cache(maxsize=None)
def gordan_generators():
    """The classical 15-element basis of joint covariants of the pair (f, g)
    (Grace and Young), built once; each `GordanGenerator` reads its
    gradings, leading coefficient and curve image off its covariant."""
    f, g, P, Q = named_forms()
    tv = transvectant
    f2 = f * f
    f3 = f2 * f
    return tuple(
        GordanGenerator(label, poly)
        for label, poly in (
            ("f", f),
            ("g", g),
            ("<f,g>^1", tv(f, g, 1)),
            ("<f,f>^2", tv(f, f, 2)),
            ("<f,g>^2", tv(f, g, 2)),
            ("<g,g>^2", P),
            ("<f^2,g>^3", tv(f2, g, 3)),
            ("<f,P>^1", tv(f, P, 1)),
            ("<g,P>^1", Q),
            ("<f,P>^2", tv(f, P, 2)),
            ("<f,Q>^2", tv(f, Q, 2)),
            ("<f^3,g^2>^6", tv(f3, g * g, 6)),
            ("<P,P>^2", tv(P, P, 2)),
            ("<f^2,Q>^3", tv(f2, Q, 3)),
            ("<f^3,g*Q>^6", tv(f3, g * Q, 6)),
        )
    )


# -- the brute-force dimension oracle -----------------------------------------------


# the refined degrees, and SCALE shifted by 2 per alpha_i and 3 per beta_i, on the
# seven coefficients: `bounded_monomials` reaches its bottom cell only on weights >= 0
_SHIFTED_SCALE = tuple(s + 2 * a + 3 * b for s, a, b in zip(FormPoly.SCALE, *FormPoly.COUNTS))
_SEMIINVARIANT_WEIGHTS = tuple(row[: FormPoly.U] for row in (*FormPoly.COUNTS, _SHIFTED_SCALE))


def _semiinvariant_monomials(d_alpha, d_beta, omega):
    """All (u, v)-free monomial exponents of the given refined degrees and order."""
    targets = (d_alpha, d_beta, omega + 2 * d_alpha + 3 * d_beta)
    return [e + (0, 0) for e in bounded_monomials(_SEMIINVARIANT_WEIGHTS, targets)]


def semiinvariant_dimension(d_alpha, d_beta, omega):
    """dim of joint semiinvariants of refined degrees (d_alpha, d_beta), order omega.

    Enumerates every monomial of matching degrees and scaling weight and
    counts the exact kernel of the unipotent derivation D on their span:
    the number of monomials minus the rank, with no kernel vector built.
    Monomial m's column is the D-image of the stored {m: 1} over 1.
    """
    if d_alpha < 0 or d_beta < 0:
        raise ValueError("refined degrees must be nonnegative")
    monos = _semiinvariant_monomials(d_alpha, d_beta, omega)
    solver = LinearSolver.of_columns(stored(_derivation(FormPoly._new({m: 1}), _DERIVATION)) for m in monos)
    return solver.ncols - solver.rank
