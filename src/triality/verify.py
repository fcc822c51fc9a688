"""Identity suites behind the `verify` command.

Each suite re-derives a family of displayed identities from scratch at the
requested truncation order and reports one line per identity, under a
stable, descriptive name.  This module is the one place where each identity
is written: the CLI prints these results and the acceptance tests assert on
them.  A series equality in the series, jacobians and curve suites also
fails when its compared window ends before q^order, or when the two sides
of a polynomial equality differ in (weight, degree); a classification
verdict fails when its value's window ends before q^order.

The curve suite recovers Delta K, Delta^2 L, Delta^2 M and Delta^3 N from
curve polynomials, one row of `RECOVERY` per identity: the target is the
weak invariant times Delta^k, of weight 12k, and the polynomial is written
in the first frame and taken to the second by `sw_curve.ab_to_cd`.

The table1 suite compares the gradings each generator reads off its
covariant with the paper's Table 1.  Membership in C[E4, E6][K, L, M, N]
is decided exactly, with no window: `sw_curve.exact_ab` gives each
generator's curve image as its Delta-free K,L,M,N form over E4 and E6,
which lies in the ring exactly when no power of E4 or E6 in it is
negative.  The six explicit forms are written once, as exact forms in
K, L, M, N, E4, E6 and Delta, and each is checked exactly on two routes:
against the normal form of its curve image, and against the normal form
of the exact form `express_in_klmn` fits to the curve image's value at
the requested order through `evaluate_ab`, a second oracle.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import covariants, enumerator, sw_curve, weyl_poly
from ._poly import jacobian
from .exact_series import LATTICE, FracSeries, UnknownCoefficientError, e_series, eisenstein, eta_delta
from .invariant_ring import (
    INVARIANT,
    WEAK_ONLY,
    AmbiguousRepresentationError,
    Invariant,
    ModularKLMN,
    NoRepresentationError,
    express_in_klmn,
    klmn,
    klmn_forms,
    reduce_delta,
)
from .weyl_poly import IPoly


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _check(name, passed, detail=""):
    return CheckResult(name, bool(passed), detail)


def _reaches(order, *values):
    """True when every series or SeriesPoly value is known below q^order."""
    return all(
        (v.trunc if isinstance(v, FracSeries) else v.common_trunc()) >= LATTICE * order
        for v in values
    )


def _grading(value):
    """(weight, degree) of a series polynomial; None for a plain series."""
    return None if isinstance(value, FracSeries) else (value.weight, value.degree)


def _same(a, b, order):
    """a == b with equal gradings, compared on a window that reaches q^order."""
    return a == b and _grading(a) == _grading(b) and _reaches(order, a, b)


def series_checks(order):
    out = []
    delta = eta_delta(order)[1]
    e4 = eisenstein(4, order)
    e6 = eisenstein(6, order)
    out.append(
        _check(
            "discriminant: eta^24 equals (E4^3 - E6^2)/1728",
            _same(delta, (e4 ** 3 - e6 ** 2) / 1728, order),
            f"window q^{order}",
        )
    )
    e1, e2, e3 = e_series(order)
    esum = e1 + e2 + e3
    out.append(_check("weight-2 forms: e1 + e2 + e3 = 0", esum.is_zero and _reaches(order, esum)))

    K, L, M, N = klmn(order).images
    dk = K.scale_series(delta, 12)
    verdicts = [
        ("classify Delta*K = invariant", dk, INVARIANT),
        ("classify K = weak only", K, WEAK_ONLY),
        ("classify L = weak only", L, WEAK_ONLY),
        ("classify M = weak only", M, WEAK_ONLY),
        ("classify N = weak only", N, WEAK_ONLY),
        ("classify E4 = invariant", Invariant.from_series(e4, 4), INVARIANT),
        ("classify E6 = invariant", Invariant.from_series(e6, 6), INVARIANT),
    ]
    out.extend(
        _check(name, value.classify() == verdict and _reaches(order, value))
        for name, value, verdict in verdicts
    )
    return out


def jacobian_checks(order):
    out = []
    jac = jacobian(weyl_poly.weyl_generators())
    out.append(
        _check(
            "generator jacobian in z = 8 prod (zi^2 - zj^2)",
            jac == 8 * weyl_poly.vandermonde_product(),
        )
    )
    eta, delta = eta_delta(order)
    det = jacobian(klmn_forms()).evaluate(order).constant_series()
    out.append(
        _check(
            "det d(K,L,M,N)/d(I2,I4,I6,I~4) = -eta^12/16",
            _same(det, (eta ** 12) * Fraction(-1, 16), order),
            f"window q^{order}",
        )
    )
    e4 = eisenstein(4, order)
    e6 = eisenstein(6, order)
    det_ab, det_cd = sw_curve.jacobian_klmn(order)
    out.append(
        _check(
            "det of first-frame coefficients by K,L,M,N = -Delta^3/(16 E4)",
            _same(det_ab, (delta ** 3) * e4.inverse() * Fraction(-1, 16), order),
        )
    )
    out.append(
        _check(
            "det of second-frame coefficients by K,L,M,N = -3 Delta^3/(4 E6)",
            _same(det_cd, (delta ** 3) * e6.inverse() * Fraction(-3, 4), order),
        )
    )
    return out


LEADING_AB = {
    "a0": IPoly.constant(Fraction(1, 12)),
    "a2": IPoly({(0, 1, 0, 0): 1, (0, 0, 0, 1): Fraction(1, 4), (2, 0, 0, 0): -64}),
    "b0": IPoly.constant(Fraction(1, 216)),
    "b1": IPoly({(1, 0, 0, 0): 1}),
    "b2": IPoly({(0, 1, 0, 0): Fraction(-1, 6), (0, 0, 0, 1): Fraction(1, 48), (2, 0, 0, 0): Fraction(128, 3)}),
    "b3": IPoly({(0, 0, 1, 0): Fraction(1, 16), (1, 1, 0, 0): -4, (1, 0, 0, 1): 1, (3, 0, 0, 0): 512}),
}

LEADING_CD = {
    "c0": IPoly.constant(Fraction(1, 12)),
    "c1": IPoly({(1, 0, 0, 0): -12}),
    "c2": IPoly({(0, 1, 0, 0): 1, (0, 0, 0, 1): Fraction(1, 4), (2, 0, 0, 0): 368}),
    "d0": IPoly.constant(Fraction(1, 216)),
    "d2": IPoly({(0, 1, 0, 0): Fraction(-1, 6), (0, 0, 0, 1): Fraction(1, 48), (2, 0, 0, 0): Fraction(-88, 3)}),
    "d3": IPoly({(0, 0, 1, 0): Fraction(1, 16), (1, 1, 0, 0): 8, (1, 0, 0, 1): Fraction(-1, 2), (3, 0, 0, 0): 896}),
}


# (label, k, index into klmn(order).images, the first-frame polynomial whose
# value is Delta^k times that image); evaluating its `ab_to_cd` image in the
# second frame checks the frame change as well
RECOVERY = (
    ("Delta*K", 1, 0, sw_curve.CurvePolyAB({(1, 0, 0, 1, 0, 0): 12})),
    ("Delta^2*L", 2, 1, sw_curve.CurvePolyAB({
        (4, 0, 0, 0, 1, 0): -2, (3, 1, 1, 0, 0, 0): 3, (1, 0, 2, 0, 1, 0): 54,
        (1, 0, 1, 2, 0, 0): -27, (0, 1, 3, 0, 0, 0): -81,
    })),
    ("Delta^2*M", 2, 2, sw_curve.CurvePolyAB({
        (5, 1, 0, 0, 0, 0): 2, (3, 0, 1, 0, 1, 0): -36, (3, 0, 0, 2, 0, 0): -6,
        (2, 1, 2, 0, 0, 0): -54, (0, 0, 3, 0, 1, 0): 972, (0, 0, 2, 2, 0, 0): -324,
    })),
    ("Delta^3*N", 3, 3, sw_curve.CurvePolyAB({
        (6, 0, 0, 0, 0, 1): 4, (5, 1, 0, 1, 0, 0): -2, (3, 0, 2, 0, 0, 1): -216,
        (3, 0, 1, 1, 1, 0): 36, (3, 0, 0, 3, 0, 0): 10, (2, 1, 2, 1, 0, 0): 54,
        (0, 0, 4, 0, 0, 1): 2916, (0, 0, 3, 1, 1, 0): -972, (0, 0, 2, 3, 0, 0): 216,
    })),
)


def curve_checks(order):
    out = []
    frames = (
        (sw_curve.CurvePolyAB, sw_curve.evaluate_ab, LEADING_AB),
        (sw_curve.CurvePolyCD, sw_curve.evaluate_cd, LEADING_CD),
    )
    for cls, evaluate, leading in frames:
        for i, name in enumerate(cls.names):
            value = evaluate(cls.variable(i), order)
            detail = ""
            try:
                ok = value.classify() == INVARIANT and value.leading_ipoly() == leading[name]
            except UnknownCoefficientError:
                ok, detail = False, f"window q^{order} too shallow to read the leading coefficient"
            out.append(_check(f"leading coefficient of {name}", ok, detail))

    for i, name in enumerate(sw_curve.CurvePolyAB.names):
        if name in ("a0", "b0"):
            continue
        p = sw_curve.CurvePolyAB.variable(i)
        img = sw_curve.ab_to_cd(p)
        # the images are Laurent in c0, so this also checks the inverse change there
        ok = _same(sw_curve.evaluate_cd(img, order), sw_curve.evaluate_ab(p, order), order)
        ok = ok and sw_curve.cd_to_ab(img) == p
        out.append(_check(f"frame change preserves the value of {name}", ok))

    delta = eta_delta(order)[1]
    images = klmn(order).images
    # Delta^k has weight 12k
    rows = [(label, images[i].scale_series(delta ** k, 12 * k), poly) for label, k, i, poly in RECOVERY]
    for frame, evaluate, in_frame in (
        ("first", sw_curve.evaluate_ab, lambda poly: poly),
        ("second", sw_curve.evaluate_cd, sw_curve.ab_to_cd),
    ):
        for label, target, poly in rows:
            ok = _same(evaluate(in_frame(poly), order), target, order)
            out.append(_check(f"{frame}-frame recovery of {label}", ok))
    return out


K_MAX, M_MAX = 24, 8


def oracle_dimension(k, m):
    """Dimension of the (k, m) cell from semiinvariant counts of the forms."""
    total = 0
    for da in range((k - m) // 4 + 1):
        rest = k - m - 4 * da
        if rest >= 0 and rest % 6 == 0:
            total += covariants.semiinvariant_dimension(da, rest // 6, (k - 3 * m) // 2)
    return total


def isomorphism_checks(order):
    out = []
    table = enumerator.dimension_table(K_MAX, M_MAX)
    mismatches = [
        (k, m)
        for (k, m), dim in sorted(table.items())
        if dim != oracle_dimension(k, m)
    ]
    out.append(
        _check(
            f"enumerated dimensions match the semiinvariant oracle (k<={K_MAX}, m<={M_MAX})",
            not mismatches,
            f"mismatched cells: {mismatches}" if mismatches else f"{len(table)} cells",
        )
    )
    below = [(k, m) for (k, m), dim in sorted(table.items()) if k < 3 * m and dim]
    out.append(
        _check(
            "no invariants of weight below 3*degree",
            not below,
            f"violations: {below}" if below else "",
        )
    )

    ranks = weyl_poly.rank_series(M_MAX)
    for m in (0, 2, 4, 6):
        gens = {}
        ok = True
        for k in range(0, K_MAX + 1, 2):
            s = (
                table[(k, m)]
                - table.get((k - 4, m), 0)
                - table.get((k - 6, m), 0)
                + table.get((k - 10, m), 0)
            )
            if s < 0:
                ok = False
            if s:
                gens[k] = s
        total = sum(gens.values())
        stab = max(gens) if gens else 0
        out.append(
            _check(
                f"free-module generator count at degree {m} equals rank {ranks[m]}",
                ok and total == ranks[m],
                f"stabilization weight {stab}, generator weights {gens}",
            )
        )

    gens15 = covariants.gordan_generators()
    roundtrip_ok = True
    graded_ok = True
    psi_ok = True
    for g in gens15:
        cov = covariants.roberts_to_covariant(g.semi)
        if not cov == g.poly or covariants.roberts_to_semiinvariant(cov) != g.semi:
            roundtrip_ok = False
        degrees = (g.d_a, g.d_b)
        if (
            covariants.order_of(g.semi) != g.order_omega
            or covariants.uv_order(cov) != g.order_omega
            or covariants.refined_form_degrees(g.semi) != degrees
            or covariants.refined_form_degrees(cov) != degrees
        ):
            graded_ok = False
        if covariants.psi_forward(g.image) != g.semi:
            psi_ok = False
    out.append(_check("leading-coefficient round trips on all 15 generators", roundtrip_ok))
    out.append(_check("round trips preserve degree and order", graded_ok))
    out.append(_check("substitution isomorphism round trips on all 15 generators", psi_ok))
    return out


def _in_ring(form):
    """True when a Delta-free K,L,M,N form has no negative power of E4 or E6."""
    return form.min_degree_in(4) >= 0 and form.min_degree_in(5) >= 0


def _weyl_route(p, expected, order):
    """(passed, detail): the exact form `express_in_klmn` fits to the value of
    the curve polynomial p at this order has the normal form of expected."""
    try:
        rep = express_in_klmn(sw_curve.evaluate_ab(p, order))
    except NoRepresentationError:
        return False, ""
    except AmbiguousRepresentationError:
        return False, f"window q^{order} too shallow to pin the representation down"
    return reduce_delta(rep) == reduce_delta(expected), ""


def table1_checks(order):
    out = []
    gens = covariants.gordan_generators()
    out.append(_check("exactly 15 generators", len(gens) == 15))
    cells = Counter((g.degree_m, g.order_omega) for g in gens)
    expected_cells = {
        (0, 2): 1, (0, 3): 1, (2, 3): 1,
        (4, 0): 1, (4, 1): 1, (4, 2): 1,
        (6, 1): 1, (6, 2): 1, (6, 3): 1,
        (8, 0): 1, (10, 1): 1,
        (12, 0): 2, (12, 1): 1, (18, 0): 1,
    }
    out.append(_check("per-(degree, order) cell counts", cells == expected_cells))
    by_order = Counter(g.order_omega for g in gens)
    out.append(_check("order totals (5, 4, 3, 3)", by_order == {0: 5, 1: 4, 2: 3, 3: 3}))

    images = {g.label: g.image for g in gens}
    exact = {label: sw_curve.exact_ab(p) for label, p in images.items()}
    for g in gens:
        out.append(_check(f"leading coefficient of {g.label} is a semiinvariant", covariants.is_semiinvariant(g.semi)))
    for g in gens:
        out.append(_check(f"curve image of {g.label} is a triality invariant", sw_curve.is_triality_invariant(g.image)))

    # the six explicit low-weight evaluations, in both written forms
    AB = sw_curve.CurvePolyAB
    K, L, M, N, E4, E6, D = (ModularKLMN.variable(i) for i in range(7))
    explicit = {
        "f": (AB({(1, 0, 0, 0, 0, 0): 1}), E4 / 12),
        "g": (AB({(0, 0, 1, 0, 0, 0): 1}), E6 / 216),
        "<f,g>^1": (AB({(1, 0, 0, 1, 0, 0): Fraction(1, 3)}), K * D / 36),
        "<f,f>^2": (AB({(1, 1, 0, 0, 0, 0): 2}), (K * K * D * 6 - L * E4 * E6 + M * E4 ** 2) / 144),
        "<f,g>^2": (
            AB({(1, 0, 0, 0, 1, 0): Fraction(1, 3), (0, 1, 1, 0, 0, 0): 1}),
            (M * E4 * E6 - L * (E6 ** 2 + D * 576)) / 3456,
        ),
        "<g,g>^2": (
            AB({(0, 0, 1, 0, 1, 0): Fraction(2, 3), (0, 0, 0, 2, 0, 0): Fraction(-2, 9)}),
            (M * E6 ** 2 - L * E4 ** 2 * E6 - K * K * E4 * D * 12) / 93312,
        ),
    }
    for label, (poly_expected, form) in explicit.items():
        # the route through the Weyl generators is a second oracle for these
        ok, detail = _weyl_route(images[label], form, order)
        ok = ok and images[label] == poly_expected and exact[label] == reduce_delta(form)
        out.append(_check(f"explicit forms of {label} (curve and K,L,M,N)", ok, detail))

    for label, form in exact.items():
        out.append(_check(f"{label} lies in the K,L,M,N polynomial ring over E4, E6", _in_ring(form)))
    return out


SUITES = {
    "series": series_checks,
    "jacobians": jacobian_checks,
    "curve": curve_checks,
    "isomorphism": isomorphism_checks,
    "table1": table1_checks,
}

SUITE_ORDER = tuple(SUITES)


class UnknownSuiteError(ValueError):
    pass


def run_suite(suite, order):
    """Run one named suite (or "all"); returns the list of check results."""
    if suite == "all":
        return [result for name in SUITE_ORDER for result in SUITES[name](order)]
    if suite not in SUITES:
        raise UnknownSuiteError(
            f"unknown suite {suite!r}; valid: {', '.join(SUITE_ORDER)}, all"
        )
    return SUITES[suite](order)
