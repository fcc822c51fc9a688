"""The `session` workload: a seeded stream of small requests in one interpreter.

One client sends each request after the previous one returns (closed loop).
Requests go through `triality.cli.main` as a user's shell would send them,
except the K,L,M,N rewrites, which have no command and call the library.
Every kind's inputs cover a fixed pool, so seeds change the order and the
random coefficients but hardly the amount of work.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from fractions import Fraction

import oracle

REQUESTS = 1000
SERIES_NAMES = ("E4", "E6", "Delta")
SERIES_ORDERS = tuple(range(8, 49))
# name -> (weight, degree, {generator monomial: constant coefficient} or the
# q-series it carries (name, scale))
INVARIANTS = {
    "K": (0, 2, {(1, 0, 0, 0): 1}),
    "N": (0, 6, {(0, 0, 1, 0): Fraction(1, 4), (1, 1, 0, 0): Fraction(-1, 24),
                 (3, 0, 0, 0): Fraction(1, 96)}),
    "a0": (4, 0, ("E4", Fraction(1, 12))),
    "b0": (6, 0, ("E6", Fraction(1, 216))),
    "c0": (4, 0, ("E4", Fraction(1, 12))),
    "d0": (6, 0, ("E6", Fraction(1, 216))),
}
INVARIANT_ORDERS = (8, 12, 16, 24)
BASIS_CELLS = tuple((k, m) for k in range(0, 49, 2) for m in range(0, 17, 2))
REWRITE_MAX_WEIGHT = 24
REWRITE_ORDER = 12
# form expression -> its order in (u, v); f quadratic, g cubic,
# P = <g,g>^2, Q = <g,P>^1
FORMS = {"f": 2, "g": 3, "P": 2, "Q": 3, "f^2": 4, "f*g": 5, "g^2": 6, "f^3": 6}
MEMBERSHIPS_PER_CELL = 2
CURVE_NAMES = ("a0", "a2", "b0", "b1", "b2", "b3")


def transvect_pool():
    return [
        ("transvect", left, right, i)
        for left, o1 in FORMS.items()
        for right, o2 in FORMS.items()
        for i in range(min(o1, o2) + 1)
    ]


def _coeffs(rng, n):
    return tuple(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(n))


def plan(seed):
    """The request stream for a seed: a list of tuples, first item the kind.

    Membership tests and rewrites use the basis a `basis` request returned,
    so each is placed at a random point after that request.
    """
    rng = random.Random(seed)
    dims = {cell: oracle.invariant_dimension(*cell) for cell in BASIS_CELLS}
    primary = [("expand", n, o) for n in SERIES_NAMES for o in SERIES_ORDERS] * 2
    primary += [("expand", n, o) for n in INVARIANTS for o in INVARIANT_ORDERS] * 2
    primary += [("basis", k, m) for k, m in BASIS_CELLS]
    derived = [
        ("membership", k, m, _coeffs(rng, d))
        for (k, m), d in dims.items()
        if d
        for _ in range(MEMBERSHIPS_PER_CELL)
    ]
    derived += [
        ("rewrite", k, m, _coeffs(rng, d), REWRITE_ORDER)
        for (k, m), d in dims.items()
        if d and k <= REWRITE_MAX_WEIGHT
    ]
    pool = transvect_pool()
    need = REQUESTS - len(primary) - len(derived)
    order = []
    while len(order) < need:
        order += rng.sample(pool, len(pool))
    primary += order[:need]
    rng.shuffle(primary)

    at = {item[1:]: i for i, item in enumerate(primary) if item[0] == "basis"}
    keyed = [(float(i), 0, item) for i, item in enumerate(primary)]
    for item in derived:
        start = at[item[1:3]]
        keyed.append((start + rng.uniform(0.5, len(primary) - start), 1, item))
    keyed.sort(key=lambda t: (t[0], t[1]))
    return [item for _, _, item in keyed]


# -- running the stream --------------------------------------------------------------


def _combine(basis_json, coeffs):
    """{exponents: Fraction} of sum coeffs[i] * basis vector i."""
    acc = {}
    for c, vec in zip(coeffs, basis_json["basis"]):
        for exps, value in vec["terms"]:
            key = tuple(exps)
            acc[key] = acc.get(key, 0) + c * Fraction(value)
    return {e: c for e, c in acc.items() if c}


def _expression(terms):
    parts = []
    for exps, c in sorted(terms.items(), reverse=True):
        mono = "*".join(
            n + (f"^{e}" if e > 1 else "") for n, e in zip(CURVE_NAMES, exps) if e
        )
        parts.append(f"{c}*{mono}" if mono else f"{c}")
    return " + ".join(parts).replace("+ -", "- ")


def _cli(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue()


def prepare():
    """Import what `run` calls, so that the import is not timed."""
    from triality import cli  # noqa: F401  (imports sw_curve and invariant_ring too)


def run(items, tracer=None):
    """Send every request in order; returns the results for `check`.

    Each result is (item, seconds, exit code, output, input) with input the
    curve polynomial a membership test or rewrite was built from.
    """
    from triality import cli, sw_curve
    from triality.invariant_ring import express_in_klmn

    bases = {}
    results = []
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.request = i
        kind = item[0]
        source = None
        try:
            if kind in ("membership", "rewrite"):
                source = _combine(bases[item[1:3]], item[3])
            if kind == "rewrite":
                poly = sw_curve.CurvePolyAB(source)
                start = time.perf_counter()
                phi = sw_curve.evaluate_ab(poly, item[4])
                output = (phi, express_in_klmn(phi))
                code = 0
            else:
                argv = _argv(item, source)
                start = time.perf_counter()
                code, output = _cli(cli.main, argv)
            seconds = time.perf_counter() - start
        except Exception as exc:  # counted as a failed request, never fatal
            results.append((item, None, None, f"{type(exc).__name__}: {exc}", source))
            continue
        if kind == "basis" and code == 0:
            bases[item[1:]] = json.loads(output)
        results.append((item, seconds, code, output, source))
    return results


def _argv(item, source):
    kind = item[0]
    if kind == "expand":
        return ["expand", item[1], "--order", str(item[2]), "--format", "json"]
    if kind == "basis":
        return ["basis", "--weight", str(item[1]), "--degree", str(item[2]), "--format", "json"]
    if kind == "membership":
        return ["membership", "--format", "json", "--", _expression(source)]
    if kind == "transvect":
        return ["transvect", "--left", item[1], "--right", item[2],
                "--index", str(item[3]), "--format", "json"]
    raise ValueError(f"unknown request kind {kind!r}")


# -- oracles -------------------------------------------------------------------------


def check(result):
    """None if the request's result is right, else a one-line reason."""
    item, seconds, code, output, source = result
    kind = item[0]
    if seconds is None:
        return f"raised {output}"
    if code != 0:
        return f"exit code {code}"
    if kind == "rewrite":
        return _check_rewrite(item, *output)
    data = json.loads(output)
    if kind == "expand":
        return _check_expand(item, data)
    if kind == "basis":
        want = oracle.invariant_dimension(item[1], item[2])
        if data["dimension"] != want or len(data["basis"]) != want:
            return f"dimension {data['dimension']}, Cayley-Sylvester count {want}"
        return None
    if kind == "membership":
        return None if data["is_triality_invariant"] else "basis combination is not invariant"
    if kind == "transvect":
        return _check_transvect(item, data)
    return f"unknown kind {kind!r}"


def _check_expand(item, data):
    name, order = item[1], item[2]
    trunc = oracle.LATTICE * order
    if name in SERIES_NAMES:
        ok = data["trunc"] == trunc and data["terms"] == oracle.expected_series_terms(name, order)
        return None if ok else f"{name} at order {order} differs from its q-expansion"
    weight, degree, coeffs = INVARIANTS[name]
    if isinstance(coeffs, tuple):
        series, scale = coeffs
        want = {(0, 0, 0, 0): oracle.expected_series_terms(series, order, scale)}
    else:
        want = {e: [[0, f"{Fraction(c).numerator}/{Fraction(c).denominator}"]]
                for e, c in coeffs.items()}
    got = {tuple(e): terms for e, terms in data["terms"]}
    ok = (
        data["grading"] == {"weight": weight, "degree": degree}
        and data["trunc"] == trunc
        and got == want
    )
    return None if ok else f"{name} at order {order} differs from its closed form"


def _check_transvect(item, data):
    got = sorted(data["terms"], key=lambda t: t[0])
    if got != oracle.transvectant_terms(*item[1:]):
        return f"<{item[1]},{item[2]}>^{item[3]} differs from the transvectant formula"
    return None


def _check_rewrite(item, phi, rep):
    k, m, order = item[1], item[2], item[4]
    if (rep.weight, rep.degree) != (k, m):
        return f"rewrite graded ({rep.weight},{rep.degree}), expected ({k},{m})"
    return None if rep.evaluate(order) == phi else "rewrite does not evaluate back"
