"""Command-line surface: expansion, enumeration, generators, verification.

All output is deterministic: identical invocations produce identical
bytes.  Rationals are printed as num/den strings, q-exponents as integers
on the t = q^(1/24) lattice with the lattice denominator stated in the
JSON header.  Exit codes: 0 success, 1 verification failure, 2 usage
error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import covariants, enumerator, sw_curve, verify
from .exact_series import LATTICE, e_series, eisenstein, eta_delta, theta_const
from .invariant_ring import klmn


def _json_dump(obj):
    return json.dumps(obj, sort_keys=True, separators=(", ", ": "), indent=1)


# -- tiny expression parser for CLI polynomial arguments -------------------------


class ExprError(ValueError):
    pass


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j]))
            i = j
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j])))
            i = j
        elif ch in "+-*/^()":
            tokens.append((ch, ch))
            i += 1
        else:
            raise ExprError(f"unexpected character {ch!r}")
    tokens.append(("end", None))
    return tokens


def _checked_degree(degree):
    if degree > MAX_EXPR_DEGREE:
        raise ExprError(f"total degree must be at most {MAX_EXPR_DEGREE}, got {degree}")


def parse_poly(text, atoms, cls):
    """Parse +, -, *, /, ^ and parentheses over named atoms into cls.

    A product or power whose total degree would pass MAX_EXPR_DEGREE is
    refused before it is multiplied out.
    """
    tokens = _tokenize(text)
    pos = [0]

    def peek():
        return tokens[pos[0]]

    def take(kind=None):
        tok = tokens[pos[0]]
        if kind and tok[0] != kind:
            raise ExprError(f"expected {kind}, found {tok[1]!r}")
        pos[0] += 1
        return tok

    def atom():
        kind, value = peek()
        if kind == "name":
            take()
            if value not in atoms:
                raise ExprError(f"unknown name {value!r}; valid: {', '.join(sorted(atoms))}")
            return atoms[value]
        if kind == "int":
            take()
            return cls.constant(value)
        if kind == "(":
            take()
            inner = expr()
            take(")")
            return inner
        raise ExprError(f"unexpected token {value!r}")

    def factor():
        if peek()[0] == "-":
            take()
            return -factor()
        base = atom()
        if peek()[0] == "^":
            take()
            expo = take("int")[1]
            _checked_degree(base.total_degree() * expo)
            base = base ** expo
        return base

    def term():
        value = factor()
        while peek()[0] in ("*", "/"):
            op = take()[0]
            rhs = factor()
            if op == "*":
                _checked_degree(value.total_degree() + rhs.total_degree())
                value = value * rhs
            else:
                const = rhs.terms.get((0,) * cls.nvars)
                if len(rhs.terms) != 1 or const is None:
                    raise ExprError("division only by constants")
                value = value * (Fraction(1) / const)
        return value

    def expr():
        summands = [term()]
        while peek()[0] in ("+", "-"):
            op = take()[0]
            summands.append(term() if op == "+" else -term())
        return cls._sum(summands)

    result = expr()
    take("end")
    return result


def _form_atoms():
    f = covariants.quadratic_form()
    g = covariants.cubic_form()
    P = covariants.transvectant(g, g, 2)
    Q = covariants.transvectant(g, P, 1)
    return {"f": f, "g": g, "P": P, "Q": Q}


def _curve_atoms():
    return {
        name: sw_curve.CurvePolyAB.variable(i)
        for i, name in enumerate(sw_curve.CurvePolyAB.names)
    }


# -- expand ------------------------------------------------------------------------

SERIES_WEIGHTS = {"E4": 4, "E6": 6, "Delta": 12, "e1": 2, "e2": 2, "e3": 2}


def _series_by_name(name, order):
    if name in ("E4", "E6"):
        return eisenstein(int(name[1]), order)
    if name == "Delta":
        return eta_delta(order)[1]
    if name == "eta":
        return eta_delta(order)[0]
    if name in ("theta2", "theta3", "theta4"):
        return theta_const(int(name[-1]), order)
    if name in ("e1", "e2", "e3"):
        return e_series(int(name[-1]), order)
    return None


def _invariant_by_name(name, order):
    klmn_names = {"K": 0, "L": 1, "M": 2, "N": 3}
    if name in klmn_names:
        return klmn(order)[klmn_names[name]]
    ab = {n: i for i, n in enumerate(sw_curve.CurvePolyAB.names)}
    if name in ab:
        return sw_curve.evaluate_ab(sw_curve.CurvePolyAB.variable(ab[name]), order)
    cd = {n: i for i, n in enumerate(sw_curve.CurvePolyCD.names)}
    if name in cd:
        return sw_curve.evaluate_cd(sw_curve.CurvePolyCD.variable(cd[name]), order)
    return None


EXPAND_NAMES = (
    "E4", "E6", "Delta", "eta", "theta2", "theta3", "theta4", "e1", "e2", "e3",
    "K", "L", "M", "N",
    "a0", "a2", "b0", "b1", "b2", "b3", "c0", "c1", "c2", "d0", "d2", "d3",
)


def cmd_expand(args):
    name = args.name
    series = _series_by_name(name, args.order)
    if series is not None:
        series = series.truncate(LATTICE * args.order)
        if args.format == "json":
            payload = {
                "kind": "series",
                "name": name,
                "exponent_lattice": LATTICE,
            }
            if name in SERIES_WEIGHTS:
                payload["grading"] = {"weight": SERIES_WEIGHTS[name]}
            payload.update(series.to_json())
            print(_json_dump(payload))
        else:
            print(f"{name} = {series}")
        return 0
    inv = _invariant_by_name(name, args.order)
    if inv is not None:
        inv = inv.truncate(LATTICE * args.order)
        if args.format == "json":
            payload = inv.to_json()
            payload["name"] = name
            print(_json_dump(payload))
        else:
            print(f"{name} (weight {inv.weight}, degree {inv.degree}) = {inv}")
        return 0
    print(
        f"unknown name {name!r}; valid names: {', '.join(EXPAND_NAMES)}",
        file=sys.stderr,
    )
    return 2


# -- basis / dims --------------------------------------------------------------------


def cmd_basis(args):
    result = enumerator.triality_basis(args.weight, args.degree)
    if args.format == "json":
        print(_json_dump(result.to_json()))
    else:
        print(f"weight {result.weight}, degree {result.degree}: dimension {result.dimension}")
        for poly in result.basis:
            print(f"  {poly}")
    return 0


def cmd_dims(args):
    table = enumerator.dimension_table(args.kmax, args.mmax)
    if args.format == "json":
        payload = {
            "kind": "dimension_table",
            "kmax": args.kmax,
            "mmax": args.mmax,
            "entries": [[k, m, d] for (k, m), d in sorted(table.items())],
        }
        print(_json_dump(payload))
    else:
        ms = list(range(0, args.mmax + 1, 2))
        print("k\\m " + "".join(f"{m:>5d}" for m in ms))
        for k in range(0, args.kmax + 1, 2):
            print(f"{k:<4d}" + "".join(f"{table[(k, m)]:>5d}" for m in ms))
    return 0


# -- generators / transvectants --------------------------------------------------------


def cmd_generators(args):
    gens = covariants.gordan_generators()
    fmt = "json" if getattr(args, "json", False) else args.format
    if fmt == "json":
        payload = {
            "kind": "generators",
            "count": len(gens),
            "generators": [
                {
                    "label": g.label,
                    "grading": {
                        "d_a": g.d_a,
                        "d_b": g.d_b,
                        "degree": g.degree_m,
                        "order_omega": g.order_omega,
                        "weight": g.weight,
                    },
                    "terms": g.poly.to_json(),
                }
                for g in gens
            ],
        }
        print(_json_dump(payload))
    else:
        for g in gens:
            print(
                f"{g.label:<14s} degrees ({g.d_a},{g.d_b})  degree {g.degree_m:<3d}"
                f" order {g.order_omega}  weight {g.weight}"
            )
    return 0


def cmd_transvect(args):
    atoms = _form_atoms()
    try:
        left = parse_poly(args.left, atoms, covariants.FormPoly)
        right = parse_poly(args.right, atoms, covariants.FormPoly)
        result = covariants.transvectant(left, right, args.index)
        if args.format == "json":
            d_a, d_b = covariants.refined_form_degrees(result)
    except (ExprError, covariants.BadOrderError, covariants.NotHomogeneousError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        payload = {
            "kind": "form",
            "grading": {"d_a": d_a, "d_b": d_b, "order_omega": covariants.uv_order(result)},
            "variables": list(covariants.FormPoly.names),
            "terms": result.to_json(),
        }
        print(_json_dump(payload))
    else:
        print(result)
    return 0


def cmd_membership(args):
    try:
        poly = parse_poly(args.poly, _curve_atoms(), sw_curve.CurvePolyAB)
    except ExprError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    image = sw_curve.ab_to_cd(poly)
    member = image.min_degree_in(0) >= 0
    if args.format == "json":
        payload = {
            "kind": "membership",
            "input": str(poly),
            "is_triality_invariant": member,
            "c0_valuation": image.min_degree_in(0),
        }
        print(_json_dump(payload))
    else:
        verdict = "a triality invariant" if member else "NOT a triality invariant"
        print(f"{poly} is {verdict} (c0 valuation of the image: {image.min_degree_in(0)})")
    return 0


# -- verify -------------------------------------------------------------------------


def cmd_verify(args):
    try:
        results = verify.run_suite(args.suite, args.order)
    except verify.UnknownSuiteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed = [r for r in results if not r.passed]
    if args.format == "json":
        payload = {
            "kind": "report",
            "suite": args.suite,
            "order": args.order,
            "passed": len(results) - len(failed),
            "failed": len(failed),
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
            ],
        }
        print(_json_dump(payload))
    else:
        for r in results:
            status = "ok  " if r.passed else "FAIL"
            detail = f"  ({r.detail})" if r.detail else ""
            print(f"{status} {r.name}{detail}")
        print(f"{len(results) - len(failed)} passed, {len(failed)} failed (order q^{args.order})")
    return 1 if failed else 0


# -- argument plumbing ------------------------------------------------------------------


@functools.cache
def build_parser():
    """The argument parser, built once per process; parsing leaves no state in it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--order", type=int, default=24, help="q-series truncation order (default 24)")
    common.add_argument("--format", choices=("json", "text"), default="text")

    parser = argparse.ArgumentParser(
        prog="triality",
        description="Exact computation in the ring of D4 triality invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", parents=[common], help="q-expansion of a named series or invariant")
    p.add_argument("name")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("basis", parents=[common], help="basis of invariants of given weight and degree")
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("dims", parents=[common], help="dimension table")
    p.add_argument("--kmax", type=int, default=24)
    p.add_argument("--mmax", type=int, default=8)
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("generators", parents=[common], help="the 15 classical generators")
    p.add_argument("--json", action="store_true", help="shorthand for --format json")
    p.set_defaults(func=cmd_generators)

    p = sub.add_parser("transvect", parents=[common], help="transvectant of two form expressions")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--index", type=int, required=True)
    p.set_defaults(func=cmd_transvect)

    p = sub.add_parser("membership", parents=[common], help="triality-invariance test of a curve polynomial")
    p.add_argument("poly")
    p.set_defaults(func=cmd_membership)

    p = sub.add_parser("verify", parents=[common], help="run an identity suite")
    p.add_argument("suite", help=f"one of: {', '.join(verify.SUITE_ORDER)}, all")
    p.set_defaults(func=cmd_verify)

    return parser


# the largest accepted values: beyond them a request runs for hours
MAX_ORDER, MAX_WEIGHT, MAX_DEGREE = 128, 96, 32
# total degree of a product or power in a polynomial argument
MAX_EXPR_DEGREE = 24
LIMITS = {"order": MAX_ORDER, "weight": MAX_WEIGHT, "kmax": MAX_WEIGHT,
          "degree": MAX_DEGREE, "mmax": MAX_DEGREE}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.order < 2:
        print("error: --order must be at least 2", file=sys.stderr)
        return 2
    for name, limit in LIMITS.items():
        if getattr(args, name, 0) > limit:
            print(f"error: --{name} must be at most {limit}", file=sys.stderr)
            return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
