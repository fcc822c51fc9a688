"""Acceptance suite: every criterion of the paper, read from one `verify` run.

`triality.verify` is the one place where each identity is written; these
tests assert on its verdicts from the shared `verify all` run at order 25,
so the q^24 coefficient is inside every compared window.  Each criterion
names its checks by prefix, and every check belongs to exactly one
criterion.  `pytest -s` prints one line per check.
"""

from triality import sw_curve, verify
from triality.exact_series import FracSeries
from triality.invariant_ring import AmbiguousRepresentationError, Invariant, ModularKLMN

# criterion: (number of checks, prefixes of their names)
CRITERIA = {
    1: (2, ("discriminant:", "weight-2 forms:")),
    2: (4, ("generator jacobian in z", "det ")),
    3: (12, tuple(f"leading coefficient of {n}" for n in sw_curve.CurvePolyAB.names + sw_curve.CurvePolyCD.names)),
    4: (12, ("frame change preserves", "first-frame recovery", "second-frame recovery")),
    5: (1, ("enumerated dimensions match the semiinvariant oracle",)),
    6: (1, ("no invariants of weight below 3*degree",)),
    7: (4, ("free-module generator count",)),
    8: (
        54,
        (
            "exactly 15 generators", "per-(degree, order) cell counts", "order totals",
            "leading coefficient of f ", "leading coefficient of g ", "leading coefficient of <",
            "curve image of", "explicit forms of",
            # "<label> lies in the K,L,M,N polynomial ring" for all 15 generators
            "f lies in", "g lies in", "<",
        ),
    ),
    9: (3, ("leading-coefficient round trips", "round trips preserve", "substitution isomorphism")),
    10: (7, ("classify ",)),
}


def assert_criterion(verify_report, number):
    count, prefixes = CRITERIA[number]
    checks = [c for c in verify_report[1]["checks"] if c["name"].startswith(prefixes)]
    for c in checks:
        detail = f" [{c['detail']}]" if c["detail"] else ""
        print(f"{'PASS' if c['passed'] else 'FAIL'} criterion {number}: {c['name']}{detail}")
    assert len(checks) == count
    assert [c["name"] for c in checks if not c["passed"]] == []


def test_every_check_belongs_to_exactly_one_criterion(verify_report):
    for c in verify_report[1]["checks"]:
        owners = [n for n, (_, prefixes) in CRITERIA.items() if c["name"].startswith(prefixes)]
        assert len(owners) == 1, (c["name"], owners)
    assert sum(count for count, _ in CRITERIA.values()) == len(verify_report[1]["checks"])


def test_criterion_01_special_function_identities(verify_report):
    assert_criterion(verify_report, 1)


def test_criterion_02_jacobians(verify_report):
    assert_criterion(verify_report, 2)


def test_criterion_03_leading_coefficients(verify_report):
    assert_criterion(verify_report, 3)


def test_criterion_04_frame_changes(verify_report):
    assert_criterion(verify_report, 4)


def test_criterion_05_enumerator_oracle_cross_validation(verify_report):
    assert_criterion(verify_report, 5)


def test_criterion_06_weight_lower_bound(verify_report):
    assert_criterion(verify_report, 6)


def test_criterion_07_rank_series_consistency(verify_report):
    assert_criterion(verify_report, 7)


def test_criterion_08_generator_table_suite(verify_report):
    assert_criterion(verify_report, 8)


def test_criterion_09_roberts_round_trips(verify_report):
    assert_criterion(verify_report, 9)


def test_criterion_10_classification(verify_report):
    assert_criterion(verify_report, 10)


# -- the checks cannot pass vacuously ------------------------------------------------


def test_window_one_power_short_fails_the_discriminant(monkeypatch):
    order = 4
    eta, delta = verify.eta_delta(order)
    short = delta.truncate(24 * order - 24)
    monkeypatch.setattr(verify, "eta_delta", lambda n: (eta, short))
    (result,) = [r for r in verify.series_checks(order) if r.name.startswith("discriminant")]
    assert not result.passed


def test_same_needs_equal_gradings_and_a_window_that_reaches_the_order():
    series = FracSeries({0: 1, 24: -24}, 24 * 3)
    assert verify._same(series, series, 3)
    # equal series, different weight: SeriesPoly equality alone ignores gradings
    e4_like, e6_like = Invariant.from_series(series, 4), Invariant.from_series(series, 6)
    assert e4_like == e6_like
    assert verify._same(e4_like, e4_like, 3) and not verify._same(e4_like, e6_like, 3)
    # a window that ends before q^order
    assert not verify._same(series, series, 4)
    assert not verify._same(e4_like, e4_like, 4)


def test_classify_verdicts_need_a_window_that_reaches_the_order(monkeypatch):
    # E4 and E6 one power short still classify as invariants; the verdict must fail
    order = 4
    eisenstein = verify.eisenstein
    monkeypatch.setattr(verify, "eisenstein", lambda k, n: eisenstein(k, n).truncate(24 * n - 24))
    short = [r for r in verify.series_checks(order) if r.name.startswith("classify E")]
    assert [(r.name, r.passed) for r in short] == [
        ("classify E4 = invariant", False),
        ("classify E6 = invariant", False),
    ]
    assert Invariant.from_series(verify.eisenstein(4, order), 4).classify() == verify.INVARIANT


def test_broken_round_trip_fails_the_frame_change(monkeypatch):
    monkeypatch.setattr(sw_curve, "cd_to_ab", lambda p: sw_curve.CurvePolyAB.zero())
    failed = {r.name for r in verify.curve_checks(4) if not r.passed}
    assert "frame change preserves the value of a2" in failed


def test_unknown_leading_coefficient_fails_with_the_window(monkeypatch):
    # at order 2 the injected q^0 coefficient of these six lies at the end of the window
    shallow = {"a2", "b2", "b3", "c2", "d2", "d3"}
    detail = "window q^2 too shallow to read the leading coefficient"
    for order, expected in ((2, shallow), (3, set())):
        leading = {
            r.name.rsplit(" ", 1)[1]: r
            for r in verify.curve_checks(order)
            if r.name.startswith("leading coefficient of")
        }
        assert len(leading) == 12
        assert {name for name, r in leading.items() if not r.passed} == expected
        assert {name for name, r in leading.items() if r.detail} == expected
        assert all(leading[name].detail == detail for name in expected)

    # a pole is a plain FAIL, with no window detail
    evaluate = sw_curve.evaluate_ab
    pole = FracSeries({-24: 1}, 24 * 8)
    monkeypatch.setattr(sw_curve, "evaluate_ab", lambda p, n: evaluate(p, n).scale_series(pole, 0))
    failed = [r for r in verify.curve_checks(3) if r.name.startswith("leading coefficient of")][:6]
    assert [(r.passed, r.detail) for r in failed] == [(False, "")] * 6


# each explicit form is checked exactly, against the normal form of its curve
# image and against the exact rewrite reached through the Weyl generators


def test_failed_rewrite_fails_the_explicit_forms(monkeypatch):
    def shallow(*args):
        raise AmbiguousRepresentationError("window too short")

    with monkeypatch.context() as m:
        m.setattr(verify, "express_in_klmn", shallow)
        explicit = [r for r in verify.table1_checks(2) if r.name.startswith("explicit forms of")]
    assert len(explicit) == 6
    for r in explicit:
        assert not r.passed and "too shallow" in r.detail, r.name

    # a wrong exact form fails them too, with no window to blame
    exact_ab = sw_curve.exact_ab
    monkeypatch.setattr(sw_curve, "exact_ab", lambda p: exact_ab(p) * 2)
    explicit = [r for r in verify.table1_checks(4) if r.name.startswith("explicit forms of")]
    assert [(r.passed, r.detail) for r in explicit] == [(False, "")] * 6


def test_rewrite_one_term_short_fails_the_explicit_forms(monkeypatch):
    # a Weyl-route rewrite that lost one fitted rational must not pass: the
    # forms are compared exactly, so it fails with no window to blame
    rewrite = verify.express_in_klmn

    def short(*args):
        form = rewrite(*args)
        (exps, c), *_ = form.sorted_terms()
        return form - ModularKLMN.monomial(exps, c)

    monkeypatch.setattr(verify, "express_in_klmn", short)
    explicit = [r for r in verify.table1_checks(4) if r.name.startswith("explicit forms of")]
    assert [(r.passed, r.detail) for r in explicit] == [(False, "")] * 6
