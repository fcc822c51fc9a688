"""Command-line surface: expansion, enumeration, generators, verification.

All output is deterministic: identical invocations produce identical
bytes.  Rationals are printed as num/den strings, q-exponents as integers
on the t = q^(1/24) lattice with the lattice denominator stated in the
JSON header.  Exit codes: 0 success, 1 verification failure or a stdout
closed by its reader (the run ends quietly), 2 usage error.  A command
refuses a request by raising one of `REFUSED`, or returns its exit code and
its two renderings, each a function that builds it: the JSON object and the
text lines.  `main` alone prints the refusal as one `error: ` line on
stderr, or the rendering that `--format` names, once.  `--order` exists
only on `expand` and `verify`, the two commands that read it.  One leading
`--` is dropped.
The words after a command's name go to that command's parser, and any
other command line to the root's, so each reports what it does not know
under its own usage line.
JSON output has the bytes of `json.dumps` with sorted keys and indent 1;
`_json_dump` writes them itself, because with an indent `json` always
runs its pure-Python encoder.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from json.encoder import encode_basestring_ascii
from math import comb, lcm
from operator import add

from . import _poly, covariants, enumerator, sw_curve, verify
from .exact_series import LATTICE, FracSeries, e_series, eisenstein, eta_delta, theta_const
from .invariant_ring import klmn


def _json_dump(obj, newline="\n"):
    """The text of json.dumps(obj, sort_keys=True, separators=(", ", ": "),
    indent=1) for dicts with str keys, lists, tuples and scalars.  newline is a
    line break and obj's own indent; obj's items sit one space deeper.

    An item whose type is int or str is written in place, by `int.__repr__`
    or `encode_basestring_ascii` as json does; the type test is exact, since
    a bool is an int that json writes as true or false.  Only a non-empty
    list, tuple or dict recurses, and json.dumps writes any other value.
    """
    if not obj or not isinstance(obj, (list, tuple, dict)):
        return json.dumps(obj)
    inner = newline + " "
    keys = sorted(obj) if isinstance(obj, dict) else None
    items = [
        int.__repr__(v) if type(v) is int
        else encode_basestring_ascii(v) if type(v) is str
        else _json_dump(v, inner)
        for v in (obj if keys is None else [obj[k] for k in keys])
    ]
    if keys is None:
        return "[" + inner + (", " + inner).join(items) + newline + "]"
    items = [encode_basestring_ascii(k) + ": " + item for k, item in zip(keys, items)]
    return "{" + inner + (", " + inner).join(items) + newline + "}"


# -- tiny expression parser for CLI polynomial arguments -------------------------


class ExprError(ValueError):
    """A refused argument: a faulty or oversized expression, an unknown name,
    or an option outside its limits."""


# whitespace, a name, a decimal integer, an operator, or any other character
_TOKEN = re.compile(r"\s+|(?P<name>[^\W\d_]\w*)|(?P<int>[0-9]+)|(?P<op>[-+*/^()])|(?P<other>.)")


def _tokenize(text):
    tokens = []
    for match in _TOKEN.finditer(text):
        kind, value = match.lastgroup, match[0]
        if kind == "name":
            tokens.append(("name", value))
        elif kind == "int":
            if len(value) > MAX_LITERAL_DIGITS:
                raise ExprError(f"integers may have at most {MAX_LITERAL_DIGITS} digits")
            tokens.append(("int", int(value)))
        elif kind == "op":
            tokens.append((value, value))
        elif kind == "other":
            raise ExprError(f"unexpected character {value!r}")
    tokens.append(("end", None))
    return tokens


def _height(*polys):
    """h with the sum of all coefficient numerators of polys over their common
    denominator, and that denominator, of size at most 2^h.  It bounds every
    coefficient of their sum, and a product's h is at most the sum of its
    factors': that bound needs the summed numerators, not the largest one."""
    stores = [_poly.stored(p) for p in polys]
    # each stored denominator is the lcm of its reduced coefficients' denominators
    den = lcm(*(d for _, d in stores))
    top = sum(abs(n) * (den // d) for num, d in stores for n in num.values())
    return (max(top, den) - 1).bit_length()


def _lone_term(poly):
    """(exponents, numerator, denominator, `_height`) of a poly with one term,
    else None: a lone term's summed numerator is its own."""
    num, den = _poly.stored(poly)
    if len(num) != 1:
        return None
    (exps, n), = num.items()
    return exps, n, den, (max(abs(n), den) - 1).bit_length()


def _checked(degree, height, terms=1):
    """Refuse a total degree, a `_height` or a term count past its cap."""
    if degree > MAX_EXPR_DEGREE:
        raise ExprError(f"total degree must be at most {MAX_EXPR_DEGREE}, got {degree}")
    if height > MAX_COEFF_BITS:
        raise ExprError(
            "coefficient numerators summed over their common denominator, and that denominator,"
            f" must stay at most 2^{MAX_COEFF_BITS}"
        )
    if terms > MAX_EXPR_TERMS:
        raise ExprError(f"the number of terms must be at most {MAX_EXPR_TERMS}")


def parse_poly(text, atoms, cls):
    """Parse +, -, *, /, ^ and parentheses over named atoms into cls.

    Parentheses and unary minus signs nest at most MAX_NESTING deep.  A
    sum, product or power whose total degree would pass MAX_EXPR_DEGREE,
    whose summed coefficient numerators (`_height`) could pass
    2^MAX_COEFF_BITS, or whose terms could
    number more than MAX_EXPR_TERMS, is refused before it is computed, and
    a quotient by a constant right after.  A power of t terms to the n has
    at most C(t + n - 1, n) terms, one per multiset of n of them.

    A product or power whose operands each have one term is built as one
    monomial, in one `cls._new`: exponents are added or scaled, and the
    numerator and denominator multiplied or raised.  It is held to the same
    bounds at the same points, the degree and the `_height`s of the exact
    operands, read off the one term by `_lone_term`; one term to any power
    is one term.  So every input has the value, or the refusal, that the
    general products and powers give it.
    """
    tokens = _tokenize(text)
    pos = [0]

    def peek():
        return tokens[pos[0]]

    def take(kind=None):
        tok = tokens[pos[0]]
        if kind and tok[0] != kind:
            found = "the end of the input" if tok[0] == "end" else repr(tok[1])
            raise ExprError(f"expected {kind}, found {found}")
        pos[0] += 1
        return tok

    def atom(depth):
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
            inner = expr(depth + 1)
            take(")")
            return inner
        raise ExprError("input ended early" if kind == "end" else f"unexpected token {value!r}")

    def factor(depth):
        signs = 0
        while peek()[0] == "-":
            take()
            signs += 1
        if depth + signs > MAX_NESTING:
            raise ExprError(f"parentheses and signs may nest at most {MAX_NESTING} deep")
        base = atom(depth + signs)
        if peek()[0] == "^":
            take()
            expo = take("int")[1]
            if lone := _lone_term(base):
                exps, n, den, height = lone
                _checked(sum(exps) * expo, height * expo)
                base = cls._new({tuple(e * expo for e in exps): n ** expo}, den ** expo)
            else:
                _checked(base.total_degree() * expo, _height(base) * expo)
                # past the degree check, expo <= 24 unless base is a constant
                _checked(0, 0, comb(len(base.terms) + expo - 1, expo) if base else 1)
                base = base ** expo
        return -base if signs % 2 else base

    def term(depth):
        value = factor(depth)
        while peek()[0] in ("*", "/"):
            op = take()[0]
            rhs = factor(depth)
            if op == "*":
                left, right = _lone_term(value), _lone_term(rhs)
                if left and right:
                    (e1, n1, d1, h1), (e2, n2, d2, h2) = left, right
                    _checked(sum(e1) + sum(e2), h1 + h2)
                    value = cls._new({tuple(map(add, e1, e2)): n1 * n2}, d1 * d2)
                else:
                    _checked(
                        value.total_degree() + rhs.total_degree(),
                        _height(value) + _height(rhs),
                        len(value.terms) * len(rhs.terms),
                    )
                    value = value * rhs
            else:
                if not rhs:
                    raise ExprError("division by zero")
                const = rhs.terms.get((0,) * cls.nvars)
                if len(rhs.terms) != 1 or const is None:
                    raise ExprError("division only by constants")
                value = value / const
                _checked(0, _height(value))
        return value

    def expr(depth):
        summands = [term(depth)]
        while peek()[0] in ("+", "-"):
            op = take()[0]
            summands.append(term(depth) if op == "+" else -term(depth))
        _checked(0, _height(*summands), sum(len(s.terms) for s in summands))
        return cls._sum(summands)

    result = expr(0)
    take("end")
    return result


@functools.cache
def _curve_atoms():
    """The six curve variables by name, built once: no value is ever changed."""
    return {
        name: sw_curve.CurvePolyAB.variable(i)
        for i, name in enumerate(sw_curve.CurvePolyAB.names)
    }


# -- expand ------------------------------------------------------------------------

# name: (weight of a modular series, or None; the value at an order).  The
# lambdas look each function up when called, so a wrapped one is seen.
EXPAND = {
    "E4": (4, lambda order: eisenstein(4, order)),
    "E6": (6, lambda order: eisenstein(6, order)),
    "Delta": (12, lambda order: eta_delta(order)[1]),
    "eta": (None, lambda order: eta_delta(order)[0]),
    **{f"theta{k}": (None, lambda order, k=k: theta_const(k, order)) for k in (2, 3, 4)},
    **{f"e{k}": (2, lambda order, k=k: e_series(order)[k - 1]) for k in (1, 2, 3)},
    **{n: (None, lambda order, i=i: klmn(order).images[i]) for i, n in enumerate("KLMN")},
    **{n: (None, lambda order, i=i: sw_curve.evaluate_ab(sw_curve.CurvePolyAB.variable(i), order))
       for i, n in enumerate(sw_curve.CurvePolyAB.names)},
    **{n: (None, lambda order, i=i: sw_curve.evaluate_cd(sw_curve.CurvePolyCD.variable(i), order))
       for i, n in enumerate(sw_curve.CurvePolyCD.names)},
}


def cmd_expand(args):
    name = args.name
    if name not in EXPAND:
        raise ExprError(f"unknown name {name!r}; valid names: {', '.join(EXPAND)}")
    weight, build = EXPAND[name]
    value = build(args.order).truncate(LATTICE * args.order)
    if not isinstance(value, FracSeries):
        return 0, lambda: dict(value.to_json(), name=name), lambda: [
            f"{name} (weight {value.weight}, degree {value.degree}) = {value}"
        ]
    grading = {} if weight is None else {"grading": {"weight": weight}}
    head = {"kind": "series", "name": name, "exponent_lattice": LATTICE, **grading}
    return 0, lambda: dict(head, **value.to_json()), lambda: [f"{name} = {value}"]


# -- basis / dims --------------------------------------------------------------------


def cmd_basis(args):
    result = enumerator.triality_basis(args.weight, args.degree)
    return 0, result.to_json, lambda: [
        f"weight {result.weight}, degree {result.degree}: dimension {result.dimension}",
        *(f"  {poly}" for poly in result.basis),
    ]


def cmd_dims(args):
    table = enumerator.dimension_table(args.kmax, args.mmax)
    ms = range(0, args.mmax + 1, 2)

    def lines():
        yield "k\\m " + "".join(f"{m:>5d}" for m in ms)
        for k in range(0, args.kmax + 1, 2):
            yield f"{k:<4d}" + "".join(f"{table[(k, m)]:>5d}" for m in ms)

    return 0, lambda: {
        "kind": "dimension_table",
        "kmax": args.kmax,
        "mmax": args.mmax,
        "entries": [[k, m, d] for (k, m), d in sorted(table.items())],
    }, lines


# -- generators / transvectants --------------------------------------------------------


def cmd_generators(args):
    gens = covariants.gordan_generators()
    return 0, lambda: {
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
    }, lambda: [
        f"{g.label:<14s} degrees ({g.d_a},{g.d_b})  degree {g.degree_m:<3d}"
        f" order {g.order_omega}  weight {g.weight}"
        for g in gens
    ]


def cmd_transvect(args):
    atoms = dict(zip("fgPQ", covariants.named_forms()))
    left = parse_poly(args.left, atoms, covariants.FormPoly)
    right = parse_poly(args.right, atoms, covariants.FormPoly)
    if (args.index + 1) * len(left.terms) * len(right.terms) > MAX_TRANSVECT_PAIRS:
        raise ExprError(f"(index + 1) * left terms * right terms must be at most {MAX_TRANSVECT_PAIRS}")
    result = covariants.transvectant(left, right, args.index)

    def payload():
        # refined degrees exist only for some results, and the text needs none
        d_a, d_b = covariants.refined_form_degrees(result)
        return {
            "kind": "form",
            "grading": {"d_a": d_a, "d_b": d_b, "order_omega": covariants.uv_order(result)},
            "variables": list(covariants.FormPoly.names),
            "terms": result.to_json(),
        }

    return 0, payload, lambda: [str(result)]


def cmd_membership(args):
    poly = parse_poly(args.poly, _curve_atoms(), sw_curve.CurvePolyAB)
    if (bound := sw_curve.image_terms_bound(poly)) > MAX_IMAGE_TERMS:
        raise ExprError(f"the cd-frame image's terms must be at most {MAX_IMAGE_TERMS}, got {bound}")
    valuation = sw_curve.c0_valuation(poly)
    member = valuation >= 0
    verdict = "a triality invariant" if member else "NOT a triality invariant"
    return 0, lambda: {
        "kind": "membership",
        "input": str(poly),
        "is_triality_invariant": member,
        "c0_valuation": valuation,
    }, lambda: [f"{poly} is {verdict} (c0 valuation of the image: {valuation})"]


# -- verify -------------------------------------------------------------------------


def cmd_verify(args):
    results = verify.run_suite(args.suite, args.order)
    failed = sum(not r.passed for r in results)
    passed = len(results) - failed

    def lines():
        for r in results:
            status = "ok  " if r.passed else "FAIL"
            yield f"{status} {r.name}" + (f"  ({r.detail})" if r.detail else "")
        yield f"{passed} passed, {failed} failed (order q^{args.order})"

    return 1 if failed else 0, lambda: {
        "kind": "report",
        "suite": args.suite,
        "order": args.order,
        "passed": passed,
        "failed": failed,
        "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results],
    }, lines


# -- argument plumbing ------------------------------------------------------------------


@functools.cache
def build_parser():
    """The root parser and each command's parser by name, built once; parsing leaves no state."""
    ordered = argparse.ArgumentParser(add_help=False)
    ordered.add_argument("--order", type=int, default=24, help="q-series truncation order (default 24)")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="text")

    parser = argparse.ArgumentParser(
        prog="triality",
        description="Exact computation in the ring of D4 triality invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", parents=[ordered, common], help="q-expansion of a named series or invariant")
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
    p.set_defaults(func=cmd_generators)

    p = sub.add_parser("transvect", parents=[common], help="transvectant of two form expressions")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--index", type=int, required=True)
    p.set_defaults(func=cmd_transvect)

    p = sub.add_parser("membership", parents=[common], help="triality-invariance test of a curve polynomial")
    p.add_argument("poly")
    p.set_defaults(func=cmd_membership)

    p = sub.add_parser("verify", parents=[ordered, common], help="run an identity suite")
    p.add_argument("suite", help=f"one of: {', '.join(verify.SUITE_ORDER)}, all")
    p.set_defaults(func=cmd_verify)

    return parser, sub.choices


# the largest accepted values: beyond them a request runs for hours
MAX_ORDER, MAX_WEIGHT, MAX_DEGREE = 128, 96, 32
# in a polynomial argument: the total degree of a product or power, the
# terms of a sum, product or power, the bits of its coefficient numerators
# summed over their common denominator and of that denominator (`_height`;
# Python prints at most 4,300 digits), the digits of an integer, and the nesting
# of parentheses and unary minus signs; the term products of a
# transvectant, (index + 1) * |left| * |right|; and the terms a
# `membership` input's frame change builds before they merge
MAX_EXPR_DEGREE = 24
MAX_EXPR_TERMS = 1500
MAX_IMAGE_TERMS = 100_000
MAX_TRANSVECT_PAIRS = 250_000
MAX_COEFF_BITS = 4096
MAX_LITERAL_DIGITS = 1000
MAX_NESTING = 64
# (least, largest) accepted value of each numeric option
LIMITS = {"order": (2, MAX_ORDER), "weight": (0, MAX_WEIGHT), "kmax": (0, MAX_WEIGHT),
          "degree": (0, MAX_DEGREE), "mmax": (0, MAX_DEGREE)}
# what a command raises to refuse a request: `main` prints it and exits 2
REFUSED = (ExprError, covariants.BadOrderError, _poly.NotHomogeneousError, verify.UnknownSuiteError)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--"]:
        # argparse would hand a leading "--" to the command positional
        argv = argv[1:]
    root, commands = build_parser()
    if argv and argv[0] in commands:
        args = commands[argv[0]].parse_args(argv[1:])
    else:
        args = root.parse_args(argv)
    try:
        for name, (least, limit) in LIMITS.items():
            value = getattr(args, name, least)  # an option the command lacks passes
            if value < least:
                raise ExprError(f"--{name} must be at least {least}")
            if value > limit:
                raise ExprError(f"--{name} must be at most {limit}")
        code, payload, lines = args.func(args)
        print(_json_dump(payload()) if args.format == "json" else "\n".join(lines()))
        sys.stdout.flush()
    except REFUSED as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout: end quietly, and point the descriptor at
        # devnull so that the interpreter's exit flush does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
