import argparse
import hashlib
import json
import os
import shlex
import string
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest

from triality import _poly, cli, covariants, sw_curve
from triality.exact_series import FracSeries
from triality.invariant_ring import SeriesPoly


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_expand_delta(capsys):
    code, out = run_cli(capsys, "expand", "Delta", "--order", "4")
    assert code == 0
    assert out.strip() == "Delta = q - 24*q^2 + 252*q^3"


def test_expand_b1_text(capsys):
    code, out = run_cli(capsys, "expand", "b1", "--order", "3")
    assert code == 0
    assert "(weight 8, degree 2)" in out
    assert "I2" in out


def test_expand_json_schema(capsys):
    code, out = run_cli(capsys, "expand", "K", "--order", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "invariant"
    assert payload["grading"] == {"degree": 2, "weight": 0}
    assert payload["exponent_lattice"] == 24
    assert payload["terms"] == [[[1, 0, 0, 0], [[0, "1/1"]]]]


def test_expand_unknown_name(capsys):
    code, out, err = cli_outcome(capsys, ["expand", "nosuch"])
    assert (code, out) == (2, "")
    assert err == (
        "error: unknown name 'nosuch'; valid names: E4, E6, Delta, eta, theta2, theta3, theta4,"
        " e1, e2, e3, K, L, M, N, a0, a2, b0, b1, b2, b3, c0, c1, c2, d0, d2, d3\n"
    )


def test_expand_looks_its_functions_up_when_called(capsys, monkeypatch):
    # a wrapper installed on the module after import is the one that runs
    seen = []
    real = sw_curve.evaluate_cd
    monkeypatch.setattr(sw_curve, "evaluate_cd", lambda p, n: seen.append(n) or real(p, n))
    code, out = run_cli(capsys, "expand", "d2", "--order", "3")
    assert code == 0 and out.startswith("d2 (weight 10, degree 4) = ")
    assert seen == [3]


def test_basis_cli(capsys):
    code, out = run_cli(capsys, "basis", "--weight", "12", "--degree", "2")
    assert code == 0
    assert "dimension 1" in out
    assert "a0*b1" in out
    code, out = run_cli(capsys, "basis", "--weight", "10", "--degree", "4")
    assert "dimension 0" in out
    code, out = run_cli(capsys, "basis", "--weight", "12", "--degree", "0")
    assert "dimension 2" in out


def test_dims_cli(capsys):
    code, out = run_cli(capsys, "dims", "--kmax", "12", "--mmax", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    entries = {(k, m): d for k, m, d in payload["entries"]}
    assert entries[(12, 2)] == 1
    assert entries[(12, 0)] == 2
    assert entries[(10, 4)] == 0


def test_generators_cli(capsys):
    code, out = run_cli(capsys, "generators")
    assert code == 0
    assert len(out.strip().splitlines()) == 15
    code, out = run_cli(capsys, "generators", "--format", "json")
    payload = json.loads(out)
    assert payload["count"] == 15
    # --format json is the one spelling of a json answer
    code, out, err = cli_outcome(capsys, ["generators", "--json"])
    assert (code, out) == (2, "") and err.startswith("usage: triality generators ")
    assert err.endswith("triality generators: error: unrecognized arguments: --json\n")


def test_transvect_cli(capsys):
    code, out = run_cli(capsys, "transvect", "--left", "f", "--right", "f", "--index", "2")
    assert code == 0
    assert out.strip() == "2*alpha0*alpha2 - 1/2*alpha1^2"
    code, _ = run_cli(capsys, "transvect", "--left", "f^2", "--right", "g", "--index", "3")
    assert code == 0


def test_transvect_bad_index(capsys):
    code, out, err = cli_outcome(capsys, ["transvect", "--left", "f", "--right", "f", "--index", "3"])
    assert (code, out, err) == (2, "", "error: index 3 out of range for orders (2, 2)\n")


def test_transvect_json_without_refined_grading_is_a_usage_error(capsys):
    # homogeneous in (u, v), so the text format prints it; the JSON grading
    # needs refined degrees, which f^4 + f*g^2 and <f^3 + g^2, f>^2 do not have
    # (the README's CLI section names the second call)
    calls = (
        ("f^3+g^2", "0", "alpha0^4*u^8 + "),
        ("f^3 + g^2", "2", "6/5*alpha0^3*alpha2*u^4 - "),
    )
    for left, index, text in calls:
        argv = ["transvect", "--left", left, "--right", "f", "--index", index]
        code, out = run_cli(capsys, *argv)
        assert code == 0 and out.startswith(text)
        code = cli.main(argv + ["--format", "json"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: not homogeneous: weighted degrees [1, 4]\n"


def test_membership_cli(capsys):
    code, out = run_cli(capsys, "membership", "a0*b1")
    assert code == 0
    assert "is a triality invariant" in out
    code, out = run_cli(capsys, "membership", "b1")
    assert code == 0
    assert "NOT" in out
    code, out = run_cli(capsys, "membership", "a0^3 - 27*b0^2", "--format", "json")
    assert json.loads(out)["is_triality_invariant"] is True


def test_dense_membership_input(capsys):
    # 1,287 terms of total degree 8; each frame change sums the monomial images in one pass
    code, out = run_cli(capsys, "membership", "(a0+a2+b0+b1+b2+b3)^8", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["c0_valuation"] == -24
    assert payload["is_triality_invariant"] is False
    # its frame change builds 24,310 terms before they merge, under the bound
    poly = cli.parse_poly(payload["input"], cli._curve_atoms(), sw_curve.CurvePolyAB)
    assert len(sw_curve.ab_to_cd(poly).terms) <= sw_curve.image_terms_bound(poly) == 24310


def test_c0_valuation_is_the_least_c0_power_of_the_image():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = [line.split('"')[1] for line in readme.splitlines() if "triality membership" in line]
    assert examples
    valuations = []
    for text in examples + ["a0*b1", "b1", "(a0+a2+b0+b1+b2+b3)^8"]:
        poly = cli.parse_poly(text, cli._curve_atoms(), sw_curve.CurvePolyAB)
        valuations.append(sw_curve.c0_valuation(poly))
        assert valuations[-1] == sw_curve.ab_to_cd(poly).min_degree_in(0)
        assert sw_curve.is_triality_invariant(poly) is (valuations[-1] >= 0)
    assert valuations[-3:] == [0, -1, -24]


def test_membership_parse_error(capsys):
    code, out, err = cli_outcome(capsys, ["membership", "a0 + $"])
    assert (code, out, err) == (2, "", "error: unexpected character '$'\n")


def test_transvect_builds_the_named_forms_once(capsys, monkeypatch):
    covariants.named_forms()
    calls = []
    real = covariants.transvectant
    monkeypatch.setattr(covariants, "transvectant", lambda *args: calls.append(args) or real(*args))
    for _ in range(3):
        code, out = run_cli(capsys, "transvect", "--left", "P", "--right", "Q", "--index", "2")
        assert code == 0
    # only the requested transvectant runs; P and Q are built once per process
    assert len(calls) == 3
    assert covariants.named_forms() is covariants.named_forms()


HOSTILE = [
    ("long literal", ["membership", "1" * 5000]),
    ("superscript digit", ["membership", "\u00b2*a0"]),
    ("deep parentheses", ["membership", "(" * 400 + "a0" + ")" * 400]),
    ("many signs", ["membership", "--", "-" * 1200 + "a0"]),
    ("deep parentheses in a form", ["transvect", "--left", "(" * 400 + "f" + ")" * 400,
                                    "--right", "f", "--index", "0"]),
    ("many signs in a form", ["transvect", "--left=" + "-" * 1200 + "f",
                              "--right", "f", "--index", "0"]),
    ("huge power", ["membership", "2^30000000"]),
    ("huge power of a sum", ["membership", "(a0 + 3*b0)^24*2^4060"]),
    ("huge product", ["membership", "*".join(["9" * 900] * 5) + "*a0"]),
    ("huge quotient", ["membership", "a0" + "/" + "/".join(["7" * 900] * 5)]),
    ("huge sum", ["membership", "+".join(f"a0/{'1' * 900}{d}" for d in "1379")]),
]


@pytest.mark.parametrize("argv", [h[1] for h in HOSTILE], ids=[h[0] for h in HOSTILE])
def test_hostile_expression_is_a_usage_error(capsys, argv):
    start = time.perf_counter()
    code, out, err = cli_outcome(capsys, argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


COSTLY = [
    ("power of six", ["membership", "(a0+a2+b0+b1+b2+b3)^24"]),
    ("smaller power of six", ["membership", "(a0+a2+b0+b1+b2+b3)^16"]),
    ("power of four", ["membership", "(a2+b1+b2+b3)^24"]),
    ("transvectant of powers", ["transvect", "--left", "(f+P)^6", "--right", "(f+P)^6",
                                "--index", "6", "--format", "json"]),
    ("product of powers", ["transvect", "--left", "(f+P)^6", "--right", "(f+P)^6",
                           "--index", "0"]),
    ("product past the bound", ["membership", "(a0+a2+b0+b1+b2+b3)^4*(a0+a2+b0+b1+b2+b3)^4"]),
    ("sum past the bound", ["membership", "(a0+a2+b0+b1+b2+b3)^8 + (a0+a2+b0+b1+b2+b3)^7"]),
]


@pytest.mark.parametrize("argv", [c[1] for c in COSTLY], ids=[c[0] for c in COSTLY])
def test_costly_polynomial_argument_is_refused_before_the_work(capsys, argv):
    # the first five ran for 15 s to over 5 minutes before term counts were bounded
    start = time.perf_counter()
    code, out, err = cli_outcome(capsys, argv)
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (2, "")
    assert err == f"error: the number of terms must be at most {cli.MAX_EXPR_TERMS}\n"


def test_transvectant_term_products_are_bounded(capsys):
    # (f+P)^4 has 387 terms: each argument passes, but not 2 * 387^2 products
    argv = ["transvect", "--left", "(f+P)^4", "--right", "(f+P)^4", "--index", "1"]
    code, out, err = cli_outcome(capsys, argv)
    assert (code, out) == (2, "")
    assert err == (
        f"error: (index + 1) * left terms * right terms must be at most {cli.MAX_TRANSVECT_PAIRS}\n"
    )


def test_frame_change_terms_of_a_membership_input_are_bounded(capsys):
    # the 1,500 degree-24 monomials over a2, b1, b2, b3 whose cd images are
    # largest pass every parse cap; their images build 2,336,929 terms before
    # they merge, and the frame change ran for 15 s before they were bounded
    def image_terms(e):  # the images of a2, b1, b2, b3 have 2, 1, 2 and 3 terms
        return (e[0] + 1) * (e[2] + 1) * comb(e[3] + 2, 2)

    monos = [(a, b, c, 24 - a - b - c) for a in range(25) for b in range(25 - a) for c in range(25 - a - b)]
    monos = sorted(monos, key=lambda e: (-image_terms(e), e))[: cli.MAX_EXPR_TERMS]
    text = " + ".join("*".join(f"{n}^{x}" for n, x in zip(("a2", "b1", "b2", "b3"), e) if x) for e in monos)
    start = time.perf_counter()
    code, out, err = cli_outcome(capsys, ["membership", text])
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (2, "")
    assert err == f"error: the cd-frame image's terms must be at most {cli.MAX_IMAGE_TERMS}, got 2336929\n"


def test_expression_limits_admit_ordinary_input(capsys):
    code, out = run_cli(capsys, "membership", "--", "-(-(-a0*b1))")
    assert code == 0 and out.startswith("-a0*b1 is a triality invariant")
    code, out = run_cli(capsys, "membership", "--", "-" * cli.MAX_NESTING + "b1")
    assert code == 0 and out.startswith("b1 is NOT")
    literal = "9" * cli.MAX_LITERAL_DIGITS
    code, out = run_cli(capsys, "membership", f"{literal}*a0*b1/{literal}")
    assert code == 0 and out.startswith("a0*b1 is a triality invariant")
    code, out = run_cli(capsys, "membership", "(" * 20 + "a0" + ")" * 20 + "^24")
    assert code == 0


def test_verify_series(capsys):
    code, out = run_cli(capsys, "verify", "series", "--order", "8")
    assert code == 0
    assert "0 failed" in out


def test_verify_unknown_suite(capsys):
    code, out, err = cli_outcome(capsys, ["verify", "nosuch", "--format", "json"])
    assert (code, out) == (2, "")
    assert err == "error: unknown suite 'nosuch'; valid: series, jacobians, curve, isomorphism, table1, all\n"


def test_order_below_two_is_a_usage_error(capsys):
    code = cli.main(["expand", "Delta", "--order", "1"])
    assert code == 2


@pytest.mark.parametrize(
    "flag, argv",
    [
        ("--order", ["expand", "E4", "--order", str(cli.MAX_ORDER + 1)]),
        ("--weight", ["basis", "--weight", str(cli.MAX_WEIGHT + 2), "--degree", "0"]),
        ("--degree", ["basis", "--weight", "0", "--degree", str(cli.MAX_DEGREE + 2)]),
        ("--kmax", ["dims", "--kmax", str(cli.MAX_WEIGHT + 2)]),
        ("--mmax", ["dims", "--mmax", str(cli.MAX_DEGREE + 2)]),
        ("total degree", ["membership", "a2^1200"]),
        ("total degree", ["membership", "(b3^40)^40"]),
        ("total degree", ["transvect", "--left", "Q^3*Q^2", "--right", "f", "--index", "0"]),
    ],
)
def test_oversized_request_is_a_usage_error(capsys, flag, argv):
    code, out, err = cli_outcome(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {flag} must be at most ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "flag, least, argv",
    [
        ("--order", 2, ["expand", "Delta", "--order", "1"]),
        ("--kmax", 0, ["dims", "--kmax", "-2", "--mmax", "4"]),
        ("--mmax", 0, ["dims", "--kmax", "4", "--mmax", "-2"]),
        ("--weight", 0, ["basis", "--weight", "-2", "--degree", "0"]),
        ("--degree", 0, ["basis", "--weight", "4", "--degree", "-1", "--format", "json"]),
    ],
)
def test_request_below_its_floor_is_a_usage_error(capsys, flag, least, argv):
    # a negative dims or basis bound used to print an empty answer and exit 0
    code, out, err = cli_outcome(capsys, argv)
    assert (code, out, err) == (2, "", f"error: {flag} must be at least {least}\n")


# refusals that the tests above and below do not pin to the byte
REFUSALS = [
    ("long literal", ["membership", "1" * (cli.MAX_LITERAL_DIGITS + 1)],
     f"integers may have at most {cli.MAX_LITERAL_DIGITS} digits"),
    ("unknown curve name", ["membership", "a1*b0"], "unknown name 'a1'; valid: a0, a2, b0, b1, b2, b3"),
    ("unknown form name", ["transvect", "--left", "h", "--right", "f", "--index", "0"],
     "unknown name 'h'; valid: P, Q, f, g"),
    ("unclosed parenthesis in a form", ["transvect", "--left", "(f", "--right", "f", "--index", "0"],
     "expected ), found the end of the input"),
    ("trailing token", ["membership", "a0 b1"], "expected end, found 'b1'"),
    ("unexpected token", ["membership", "a0 + )"], "unexpected token ')'"),
    ("nesting", ["membership", "(" * (cli.MAX_NESTING + 1) + "a0" + ")" * (cli.MAX_NESTING + 1)],
     f"parentheses and signs may nest at most {cli.MAX_NESTING} deep"),
    ("coefficient bits", ["membership", f"2^{cli.MAX_COEFF_BITS + 1}"],
     "coefficient numerators summed over their common denominator, and that denominator,"
     f" must stay at most 2^{cli.MAX_COEFF_BITS}"),
    ("total degree", ["membership", "a2^25"], f"total degree must be at most {cli.MAX_EXPR_DEGREE}, got 25"),
]


@pytest.mark.parametrize("argv, message", [r[1:] for r in REFUSALS], ids=[r[0] for r in REFUSALS])
def test_every_refusal_is_one_error_line(capsys, argv, message):
    # main alone prints a refusal: nothing on stdout, one line on stderr, exit 2
    assert cli_outcome(capsys, argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "admitted, refused",
    [("2^{}", "2*2^{}"), ("a0/2^{}", "a0/2^{}/2"), ("2^{0}*a0", "2^{0}*a0 + 2^{0}*a2")],
)
def test_coefficient_cap_admits_its_bound(capsys, admitted, refused):
    # numerators and denominators of size exactly 2^MAX_COEFF_BITS pass, twice that does not;
    # a sum's numerators are summed, so two coefficients at the cap exceed it together
    bits = cli.MAX_COEFF_BITS
    code, _, err = cli_outcome(capsys, ["membership", admitted.format(bits)])
    assert (code, err) == (0, "")
    message = (
        "error: coefficient numerators summed over their common denominator, and that denominator,"
        f" must stay at most 2^{bits}\n"
    )
    assert cli_outcome(capsys, ["membership", refused.format(bits)]) == (2, "", message)


UNORDERED = [
    ["basis", "--weight", "4", "--degree", "0"],
    ["dims"],
    ["generators"],
    ["transvect", "--left", "f", "--right", "f", "--index", "0"],
    ["membership", "a0"],
]


@pytest.mark.parametrize("argv", UNORDERED, ids=[argv[0] for argv in UNORDERED])
def test_order_is_refused_where_no_command_reads_it(capsys, argv):
    code, out, err = cli_outcome(capsys, argv + ["--order", "8"])
    assert (code, out) == (2, "")
    # the command's own parser reports it, under that command's usage line
    assert err.startswith(f"usage: triality {argv[0]} ")
    assert err.endswith(f"triality {argv[0]}: error: unrecognized arguments: --order 8\n")
    code, out, _ = cli_outcome(capsys, [argv[0], "--help"])
    assert code == 0 and "--format" in out and "--order" not in out


@pytest.mark.parametrize(
    "argv, prog, unknown",
    [
        (["--bogus", "generators"], "triality", "--bogus"),
        (["generators", "--bogus"], "triality generators", "--bogus"),
        (["--bogus", "expand", "E4", "--json"], "triality", "--bogus --json"),
        (["expand", "E4", "--bogus", "--order", "3"], "triality expand", "--bogus"),
    ],
    ids=["before", "after", "both", "after-expand"],
)
def test_unknown_option_is_reported_by_the_parser_it_was_given_to(capsys, argv, prog, unknown):
    # one written before the command name is the root parser's, with its usage line
    code, out, err = cli_outcome(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: {prog} [-h]")
    assert err.endswith(f"\n{prog}: error: unrecognized arguments: {unknown}\n")


def test_json_writer_matches_json_dumps():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    def dumps(obj):
        return json.dumps(obj, sort_keys=True, separators=(", ", ": "), indent=1)

    # json writes a tuple as a list
    payload = {"terms": ((0, "1/1"), (24, "-24/1")), "empty": (), "z": [(), {}, [None]]}
    assert cli._json_dump(payload) == dumps(payload)
    # items that are neither an int nor a str, nor a non-empty container: a
    # bool is an int that json writes as true or false
    odd = [True, None, [], {}, (), False]
    payload = {"items": odd, **{f"value{i}": v for i, v in enumerate(odd)}, "nested": [odd, {"t": True}]}
    assert cli._json_dump(payload) == dumps(payload)

    scalars = st.none() | st.booleans() | st.integers() | st.text()
    payloads = st.recursive(
        scalars,
        lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(st.text(), inner),
        max_leaves=40,
    )

    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(payloads)
    def check(obj):
        assert cli._json_dump(obj) == dumps(obj)

    check()


def test_expand_and_verify_read_order(capsys):
    _, commands = cli.build_parser()
    for argv in (["expand", "E4"], ["verify", "series"]):
        assert commands[argv[0]].parse_args(argv[1:] + ["--order", "8"]).order == 8
        code, out, _ = cli_outcome(capsys, [argv[0], "--help"])
        assert code == 0 and "--order ORDER" in out


def character_loop(text):
    """The tokenizer's former one-character-at-a-time loop, kept as its oracle."""
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
        elif "0" <= ch <= "9":
            j = i
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            if j - i > cli.MAX_LITERAL_DIGITS:
                raise cli.ExprError(f"integers may have at most {cli.MAX_LITERAL_DIGITS} digits")
            tokens.append(("int", int(text[i:j])))
            i = j
        elif ch in "+-*/^()":
            tokens.append((ch, ch))
            i += 1
        else:
            raise cli.ExprError(f"unexpected character {ch!r}")
    tokens.append(("end", None))
    return tokens


def test_tokenizer_agrees_with_the_character_loop(monkeypatch):
    # same tokens or the same message; a digit of another script (U+0663) is
    # an unexpected character, and a literal past the cap (3 here) is refused
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    def outcome(tokenize, text):
        try:
            return tokenize(text)
        except cli.ExprError as exc:
            return str(exc)

    monkeypatch.setattr(cli, "MAX_LITERAL_DIGITS", 3)
    alphabet = string.ascii_letters + string.digits + "_+-*/^() $.!\u0663"

    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(st.text(alphabet, max_size=16))
    def check(text):
        assert outcome(cli._tokenize, text) == outcome(character_loop, text)

    check()


def general_parse_poly(text, atoms, cls):
    """The parser with every product and power built in general, as it was
    before one-term operands were built as one monomial: the oracle of that
    shortcut."""
    tokens = cli._tokenize(text)
    pos = [0]

    def peek():
        return tokens[pos[0]]

    def take(kind=None):
        tok = tokens[pos[0]]
        if kind and tok[0] != kind:
            found = "the end of the input" if tok[0] == "end" else repr(tok[1])
            raise cli.ExprError(f"expected {kind}, found {found}")
        pos[0] += 1
        return tok

    def atom(depth):
        kind, value = peek()
        if kind == "name":
            take()
            if value not in atoms:
                raise cli.ExprError(f"unknown name {value!r}; valid: {', '.join(sorted(atoms))}")
            return atoms[value]
        if kind == "int":
            take()
            return cls.constant(value)
        if kind == "(":
            take()
            inner = expr(depth + 1)
            take(")")
            return inner
        raise cli.ExprError("input ended early" if kind == "end" else f"unexpected token {value!r}")

    def factor(depth):
        signs = 0
        while peek()[0] == "-":
            take()
            signs += 1
        if depth + signs > cli.MAX_NESTING:
            raise cli.ExprError(f"parentheses and signs may nest at most {cli.MAX_NESTING} deep")
        base = atom(depth + signs)
        if peek()[0] == "^":
            take()
            expo = take("int")[1]
            cli._checked(base.total_degree() * expo, cli._height(base) * expo)
            cli._checked(0, 0, comb(len(base.terms) + expo - 1, expo) if base else 1)
            base = base ** expo
        return -base if signs % 2 else base

    def term(depth):
        value = factor(depth)
        while peek()[0] in ("*", "/"):
            op = take()[0]
            rhs = factor(depth)
            if op == "*":
                cli._checked(
                    value.total_degree() + rhs.total_degree(),
                    cli._height(value) + cli._height(rhs),
                    len(value.terms) * len(rhs.terms),
                )
                value = value * rhs
            else:
                if not rhs:
                    raise cli.ExprError("division by zero")
                const = rhs.terms.get((0,) * cls.nvars)
                if len(rhs.terms) != 1 or const is None:
                    raise cli.ExprError("division only by constants")
                value = value / const
                cli._checked(0, cli._height(value))
        return value

    def expr(depth):
        summands = [term(depth)]
        while peek()[0] in ("+", "-"):
            op = take()[0]
            summands.append(term(depth) if op == "+" else -term(depth))
        cli._checked(0, cli._height(*summands), sum(len(s.terms) for s in summands))
        return cls._sum(summands)

    result = expr(0)
    take("end")
    return result


def parse_outcome(parse, text, atoms, cls):
    """The stored form of the parsed value, or the refusal's class and message."""
    try:
        value = parse(text, atoms, cls)
    except cli.ExprError as exc:
        return type(exc), str(exc)
    num, den = _poly.stored(value)
    return type(value), dict(num), den


# exponents at the edges of the caps: 4096 is the height cap, and a literal
# may have 1000 digits
EXPONENTS = ["0", "1", "2", "3", "13", "2048", "4096", "1" + "0" * 999, "9" * 1000]


def test_parser_agrees_with_the_general_parser():
    # one-term products and powers are built as one monomial: the same value,
    # or the same refusal, as the general products and powers
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    curve = (cli._curve_atoms(), sw_curve.CurvePolyAB)
    forms = (dict(zip("fgPQ", covariants.named_forms())), covariants.FormPoly)
    ints = st.sampled_from([0, 1, 2, 3, 12]) | st.integers(0, 2**70)

    def expressions(names):
        # a name, an integer, or a fraction in parentheses, raised to a power or
        # not, and a bare fraction; sums, differences, products, quotients,
        # powers, signs and parentheses of those
        fractions = st.tuples(ints, st.integers(1, 12)).map(lambda t: f"{t[0]}/{t[1]}")
        atoms = st.sampled_from(names) | ints.map(str) | fractions.map(lambda s: f"({s})")
        powers = st.tuples(atoms, st.sampled_from(EXPONENTS)).map("^".join)
        return st.recursive(
            atoms | powers | fractions,
            lambda inner: (
                st.tuples(inner.map(lambda s: f"({s})"), st.sampled_from(EXPONENTS)).map("^".join)
                | st.tuples(inner, st.sampled_from([" + ", " - ", "*", "/", "*"]), inner).map("".join)
                | inner.map(lambda s: "-" + s)
                | inner.map(lambda s: f"({s})")
            ),
            max_leaves=10,
        )

    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(st.sampled_from([curve, forms]).flatmap(lambda c: st.tuples(st.just(c), expressions(sorted(c[0])))))
    def check(case):
        (atoms, cls), text = case
        assert parse_outcome(cli.parse_poly, text, atoms, cls) == parse_outcome(general_parse_poly, text, atoms, cls)

    check()


BOUNDARIES = [
    ("product at the height cap", "2^2048*2^2048*a0", None),
    ("degree at the cap", "a0^12*a2^12", None),
    ("degree past the cap", "a0^12*a2^13", f"total degree must be at most {cli.MAX_EXPR_DEGREE}, got 25"),
    ("one to 999 nines", "1^" + "9" * 999, None),
    ("power of zero", "0^5", None),
    ("power of minus one", "(-1)^3", None),
    ("zeroth power", "a0^0", None),
    ("negated power at the height cap", "-2^4096*a0", None),
    ("product past the height cap", "2^4096*a0*2", "coefficient numerators summed over their common"
     f" denominator, and that denominator, must stay at most 2^{cli.MAX_COEFF_BITS}"),
]


@pytest.mark.parametrize("text, refusal", [b[1:] for b in BOUNDARIES], ids=[b[0] for b in BOUNDARIES])
def test_one_term_shortcut_keeps_every_bound(text, refusal):
    # the running product's height is checked as the general product checks it
    curve = (cli._curve_atoms(), sw_curve.CurvePolyAB)
    got = parse_outcome(cli.parse_poly, text, *curve)
    assert got == parse_outcome(general_parse_poly, text, *curve)
    assert got[0] is (cli.ExprError if refusal else sw_curve.CurvePolyAB)
    if refusal:
        assert got[1] == refusal


@pytest.mark.parametrize(
    "text, message",
    [
        ("a0*", "input ended early"),
        ("(a0 + b1", "expected ), found the end of the input"),
        ("a0^", "expected int, found the end of the input"),
        ("a0/0", "division by zero"),
        ("a0/(b1 - b1)", "division by zero"),
        ("a0/b1", "division only by constants"),
    ],
)
def test_parse_error_names_the_fault(capsys, text, message):
    code, out, err = cli_outcome(capsys, ["membership", text])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_limits_admit_the_benchmark_requests():
    # verify at order 96, dims --kmax 72 --mmax 24, expand up to order 48
    # and basis cells up to weight 48, degree 16
    assert cli.MAX_ORDER >= 96
    assert cli.MAX_WEIGHT >= 72
    assert cli.MAX_DEGREE >= 24
    # membership inputs of total degree 12 and at most 26 terms, and form
    # expressions such as f^3 and g*Q of total degree 9 and 10
    assert cli.MAX_EXPR_DEGREE >= 12
    assert cli.MAX_EXPR_TERMS >= 26
    # the frame change of a membership input builds at most 155 terms, and of
    # the sum of a whole basis cell under the caps at most 4,839
    assert cli.MAX_IMAGE_TERMS >= 4839
    # the largest session transvectant, <f^3, f^3>^6, and the golden <f^3, g*Q>^6
    assert cli.MAX_TRANSVECT_PAIRS >= 7 * 10 * 22


def test_verify_all_in_process(verify_report):
    # the test session's one `verify all --order 25 --format json` run
    code, report = verify_report
    assert code == 0
    assert (report["passed"], report["failed"]) == (100, 0)
    names = [c["name"] for c in report["checks"]]
    assert len(names) == len(set(names)) == 100


def child_env():
    """The environment of a child that runs the package under test, also from an uninstalled checkout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_cli_output_is_deterministic():
    cmd = [
        sys.executable,
        "-m",
        "triality.cli",
        "basis",
        "--weight",
        "16",
        "--degree",
        "4",
        "--format",
        "json",
    ]
    env = child_env()
    first = subprocess.run(cmd, capture_output=True, check=True, env=env)
    second = subprocess.run(cmd, capture_output=True, check=True, env=env)
    assert first.stdout == second.stdout
    assert first.stdout


@pytest.mark.parametrize("call", ["verify series --format json", "verify series --order 12"], ids=["json", "text"])
def test_closed_stdout_ends_the_run_quietly(call):
    cmd = [sys.executable, "-m", "triality.cli", *call.split()]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env()) as child:
        child.stdout.close()  # the reader goes away before the child has imported the package
        _, err = child.communicate(timeout=120)
    assert child.returncode == 1
    assert err == b""  # no BrokenPipeError traceback


# sha256 of the stdout of each call and its exit code, pinned so that
# refactors keep every byte; at order 2 only the six leading-coefficient
# reads of the curve suite fail, as table1 membership needs no window
GOLDEN = [
    ("expand K --order 6 --format json", 0, "c43a084b18c0e2e74f975c5dd5cf537e30111e2f5d6875f2a0cc676b8c425916"),
    ("expand b3 --order 5 --format json", 0, "5e09fece9d137e16808b13dda0725762d87e90d7a6cc60831b79c73c688f939f"),
    ("expand c1 --order 4", 0, "535a32b8bef88e6610d74804dedc067dd1f163fefb62d63188167132f51702c7"),
    ("basis --weight 36 --degree 12 --format json", 0, "62a9bdfe6cb445370b16fc75a44b0534b869e7b656fdaec70c57f19d45102877"),
    ("transvect --left f^3 --right g*Q --index 6 --format json", 0, "1a8820ffe9a70e17bd168bdaa883b166186cbcb680c277f3fa7686eed96e53e4"),
    ("verify curve --order 12 --format json", 0, "0e32631073d7be26e7e6ae9736d2d455b0b391330b891a45609cb1b84bcf6978"),
    ("expand L --order 48", 0, "7d9951837d93972714e94d95d7810d78c6df7f1f36c1106f80e119d2563386b8"),
    ("expand M --order 96 --format json", 0, "984301bd9a066d2ea9f5e821428201901dbe4654d47d68c15e36aaadab24e2a1"),
    ("dims --kmax 72 --mmax 24 --format json", 0, "3067c166e58b3a1ef0ae899b394d65cc047ce55c0d2e0340175e8f9cf47f733b"),
    ("basis --weight 48 --degree 16 --format json", 0, "888917000673f0d3b3ea03337d46180bfab1b372001104631299ccb45fe8299b"),
    ("verify all --order 2", 1, "7b492c1fb37bf4cd6961c67bbb542d2b345a5043c6f5609a582c5c3d90a4278d"),
    ("verify curve --order 2 --format json", 1, "b4f35576848594bf9955fea9d47f77230932c2db47f1307ef1e02a7b8306807b"),
    ("verify all --order 3", 0, "a49aef2b26a7c3795ba9b6300a6254e8b363437f03113dff139bcf593c0ff397"),
    ("verify all --order 4", 0, "97eff19608a0d2cf98b291a0b323835e13ac00fccedb401b7531599b1dc29db6"),
    ("verify all --order 5 --format json", 0, "af68b94cf1c1ff1ea70eaf6f2bbd76b4e983abe373e13f9d6f53e2f4a7ca6116"),
    ("generators", 0, "114f0ed1fb2043c960add192a2b4dbb97c5598ddbb0d17b5c59981d36e1b97df"),
    ("generators --format json", 0, "a969bf345a74f25e84d5be8a3356e4938d5c2f6906a4876d54f4e34bf5c2f404"),
    ("dims --format text", 0, "fcb99e3ecc6e97815d181a28f3a40934ceb8fe12e42b2eeaa1022c12a58a52ef"),
    ("basis --weight 24 --degree 6", 0, "e3dd9c44b15d2fc538b1c1399b86805a544b2eadcf229de0afc468e89af75c1a"),
    ('membership "a0^3 - 27*b0^2"', 0, "a95662c5a4130eb1e799237f083fe853d6eda54ce1950dcbe97f6b26a2888aae"),
    ('membership "a0^3 - 27*b0^2" --format json', 0, "e41d102cd1fb812c2cc45a0d0c649255f4ea5e22f8475ca7792e87b95e6ef7da"),
    ("transvect --left f^2 --right g --index 3", 0, "7e5e7b5b8e7642ffdfa8a827b5ccb1e7c645c6b92d92fd226cfb938fca6008f4"),
    # rational input: a quotient by a constant, and fractional coefficients in the output
    ('membership "3/7*a0^2*a2 - 5/2*a0*b1^2 + (a0 - 2*b0/9)^3"', 0,
     "1eafe4b8f9a902a464affb1ec85c3564522316deadea6256b0524a593fbbf81a"),
    ('membership "3/7*a0^2*a2 - 5/2*a0*b1^2 + (a0 - 2*b0/9)^3" --format json', 0,
     "fd075f10cda0ee2614755da33aa30367740bd39a3dd571b57c317104351f5bcf"),
    ('transvect --left "f^3/3 - g^2/5" --right "g*P/7" --index 3', 0,
     "2791f2cfc8b47ee2c8a838942d0930a9d96926a03c53c3ba480e245d09b65ebf"),
    ("basis --weight 30 --degree 6", 0, "bce00357d6090a25ce25827f8a91f4e1fdd0cab20624a8e75e763f96eb0b965e"),
    # the suites that evaluate the recovery polynomials and the generators' gradings
    ("verify all --order 24 --format json", 0, "647b9c1d51cd5a1189f5c98507f20f13722ad6b488306f896c4b2bd64ed90f7f"),
    ("verify curve --order 96 --format json", 0, "9dd28755d17a16723eaa884dc6e0987bb45baad2174cdfa24a2aef0841ffd857"),
    # the modular series the paper's spectrum is read from
    ("expand E4 --order 48 --format json", 0, "d37052a06e6c717b98f70727792679ef58ec7d432aacbcaef03905c2a8040214"),
    ("expand E6 --order 128 --format json", 0, "c11c56ed5508cef413a2516b50750ebb21686c8640fc25d2005c0b4f90d492d6"),
    ("expand Delta --order 48 --format json", 0, "b6ec1ac506e0fe4e7a0cb3d47b5f1cdfbd155e104ed3934ac358b5df825719ea"),
    ("expand eta --order 128 --format json", 0, "ded77de636753cf79b9e09700ff690d874f5feb6b2b6e6e0fcc33d3690e143dc"),
    ("expand e2 --order 30 --format json", 0, "f42a53d387144e453c1ff34c9601c8da72c3cec96bcd74f8f039eb1c0d5063dd"),
    ("expand e1 --order 24 --format json", 0, "2c785c2900984c5a22e41943dc4e84f7a0e149198fa7c2ed74c34e427aa95183"),
    ("expand e3 --order 7", 0, "debb8428fa3dec114d377014e3e613d28c556cc8a2fcce983381bb32eed0b7fd"),
    # values read through the kept K,L,M,N, frame-value and frame-form tables
    ("expand K --order 24 --format json", 0, "fd1daff7c8b5441de38b29063bab8690850fe27bc10006a0ee823815966e5953"),
    ("expand N --order 24 --format json", 0, "42b28598d1dc253bdfb6f5b0edf07da2605f3024f08a8b07c7da01e792078277"),
    ("expand d3 --order 24 --format json", 0, "c18caa74667cbb1a0b4eda98182bb7a7994c7b0800769b071cdc5e1858c4baec"),
    ("verify jacobians --order 40 --format json", 0, "3087972c7ea15f6a7770122d3f94e679846faad7b003f166fa06ab7f82553f16"),
    # calls shaped like a session's: a long curve polynomial with fractional
    # coefficients, parsed term by term, and a product of form powers
    ('membership "-2*a0^9*b3 + 3*a0^8*a2*b1 - 81/2*b0^6*b3 + 27/2*b0^5*b1*b2 - 3*b0^4*b1^3"'
     " --format json", 0, "5b87941c6809b93af36589af6b29c464a35db55c4b23359970f8f3b9abe6ca1a"),
    ('transvect --left "f^3" --right "g^2" --index 3 --format json', 0,
     "e8683384466da7ca9f4ce55492f95a998a9ce1a8d7f4ae3849004bc339ec406e"),
]


def golden_ids():
    """The command of each call, with its first option added where the command repeats."""
    ids = []
    for call, _, _ in GOLDEN:
        words = shlex.split(call)
        at = next((i for i, w in enumerate(words) if w.startswith("--")), len(words))
        name = " ".join(words[:at])
        ids.append(name if name not in ids else " ".join(words[: at + 2]))
    return ids


@pytest.mark.parametrize("call, code, digest", GOLDEN, ids=golden_ids())
def test_cli_output_matches_golden_digest(capsys, call, code, digest):
    exit_code, out, err = cli_outcome(capsys, shlex.split(call))
    assert (exit_code, err) == (code, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# JSON calls whose text would print series or polynomials; membership is not
# among them, as its JSON `input` field is the input's text by design
JSON_ONLY = [
    "expand K --order 6",
    "expand b3 --order 5",
    "expand E4 --order 48",
    "basis --weight 24 --degree 6",
    "transvect --left f^3 --right g*Q --index 6",
    "verify series --order 4",
]


def test_json_output_renders_no_text(capsys, monkeypatch):
    def refuse(value):
        raise AssertionError(f"a {type(value).__name__} was rendered as text")

    calls = [shlex.split(call) + ["--format", "json"] for call in JSON_ONLY]
    with monkeypatch.context() as patch:
        for cls in (SeriesPoly, _poly.SparsePoly, FracSeries):
            patch.setattr(cls, "__str__", refuse)
        outcomes = [cli_outcome(capsys, argv) for argv in calls]
    assert [(code, err) for code, _, err in outcomes] == [(0, "")] * len(calls)
    assert outcomes == [cli_outcome(capsys, argv) for argv in calls]


EMPTY = hashlib.sha256(b"").hexdigest()
# the exit code and the sha256 of stdout and of stderr of help requests and
# malformed command lines, at 80 columns: argparse wraps its usage and help
# lines at the terminal width
USAGE = [
    ("", 2, EMPTY, "31279bc0ce02d74691f889b81ce7aa4d50c2cbe07c52ad5eafed481bfe28bb46"),
    ("-h", 0, "d698164a579242ed983f7f8242a19f273095a8f4838fe4317c4ecf4fbabdf302", EMPTY),
    ("--bogus", 2, EMPTY, "31279bc0ce02d74691f889b81ce7aa4d50c2cbe07c52ad5eafed481bfe28bb46"),
    ("-h expand", 0, "d698164a579242ed983f7f8242a19f273095a8f4838fe4317c4ecf4fbabdf302", EMPTY),
    ("nosuch", 2, EMPTY, "7283b5d3e87af47429502e6d8eaf896730de7ec2051ee5e68cf1c508c3799fb8"),
    ("--format json generators", 2, EMPTY, "030372e10973cfbb31c08542455dcd2262177cf3372675b1697c3f85db3ebff9"),
    ("expand", 2, EMPTY, "a5b21da56f62b39dbfe532deae6fd84bec6501e10b554da0875bfb8b7c1d783e"),
    ("expand -h", 0, "6c9a218feeccdd0cae035e15ed8c3208154c94642bff2163b753c859680b2a9a", EMPTY),
    ("verify --help", 0, "81fc3415bc6eca0ca1f4ef7e7cb9dc7e7f90c411b09c89110a30107d56bdb594", EMPTY),
    ("verify", 2, EMPTY, "ca17ac4186e59364fd9aa63474fdda218f1b9db1667ecd49af47b1e402f7e2c8"),
    ("basis --weight 12", 2, EMPTY, "cbe4d62612dc3753bec13790fff3559acb085e614340e4fd21b0501935dd03e9"),
    ("basis --weight x --degree 2", 2, EMPTY, "d718830951a714d458bbfc0e9d616a28cd2fff0126c4eb585eb752dac94d4c38"),
    ("generators --format", 2, EMPTY, "923941da532b54486a0ce8100462cf40cef951dc3e5dc49bd23d2eeb5549bc4b"),
    ("generators --format xml", 2, EMPTY, "16d4baf887ded0de28598e80d0dd97a17706412fa581083410037eaf8bc98243"),
    ("expand E4 -- --order", 2, EMPTY, "eefca29a8e3b4ce06657a17a573f75a298d25e623dae76c6eca205980071fc84"),
    # one leading "--" is dropped: the same bytes as "generators" and as ""
    ("-- generators", 0, "114f0ed1fb2043c960add192a2b4dbb97c5598ddbb0d17b5c59981d36e1b97df", EMPTY),
    ("--", 2, EMPTY, "31279bc0ce02d74691f889b81ce7aa4d50c2cbe07c52ad5eafed481bfe28bb46"),
]


@pytest.mark.parametrize("call, code, out_digest, err_digest", USAGE, ids=[u[0] or "(none)" for u in USAGE])
def test_usage_bytes_are_pinned(capsys, monkeypatch, call, code, out_digest, err_digest):
    monkeypatch.setenv("COLUMNS", "80")
    exit_code, out, err = cli_outcome(capsys, shlex.split(call))
    assert exit_code == code
    assert hashlib.sha256(out.encode()).hexdigest() == out_digest
    assert hashlib.sha256(err.encode()).hexdigest() == err_digest


@pytest.mark.parametrize("argv", [
    ["expand", "E4", "--order", "4"],
    ["basis", "--weight", "12", "--degree", "2"],
    ["dims", "--kmax", "4", "--mmax", "2", "--format", "json"],
    ["generators"],
    ["transvect", "--left", "f", "--right", "f", "--index", "0"],
    ["membership", "a0"],
    ["verify", "series", "--order", "4"],
], ids=lambda argv: argv[0])
def test_a_command_line_is_parsed_once(capsys, monkeypatch, argv):
    real = argparse.ArgumentParser.parse_known_args
    progs = []

    def counted(self, *args, **kwargs):
        progs.append(self.prog)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    code, _, err = cli_outcome(capsys, argv)
    assert (code, err) == (0, "")
    # by the command's own parser alone
    assert progs == [f"triality {argv[0]}"]


def cli_outcome(capsys, argv):
    """(exit code, stdout, stderr) of one call, a usage error's SystemExit included."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_built_once_keeps_no_state_between_calls(capsys):
    calls = [
        ["transvect", "--left", "f", "--right", "f", "--index", "x"],
        ["transvect", "--left", "f", "--right", "f", "--index", "2"],
        ["basis", "--weight", "12"],
        ["basis", "--weight", "12", "--degree", "2", "--format", "json"],
        ["dims", "--kmax", "8", "--mmax", "4"],
    ]
    separately = []
    for argv in calls:
        cli.build_parser.cache_clear()
        separately.append(cli_outcome(capsys, argv))
    in_one_process = [cli_outcome(capsys, argv) for argv in calls]
    (root, commands), again = cli.build_parser(), cli.build_parser()
    assert again[0] is root and again[1] is commands
    assert in_one_process == separately
    assert [code for code, _, _ in separately] == [2, 0, 2, 0, 0]
    assert "argument --index: invalid int value: 'x'" in separately[0][2]
    assert separately[2][2].startswith("usage: triality basis")
