"""Each rule has one home: one grading check, one reduction to the stored
form of q-series and polynomials, read only by the two modules that own
it, one builder of monomial images, one fit into
C[E4, E6] and one assembler of equation rows."""

import ast
import inspect
import re
import types
from fractions import Fraction
from pathlib import Path

import pytest

import triality
from triality import _poly, covariants, enumerator, exact_series, invariant_ring, linalg, sw_curve, verify, weyl_poly
from triality.covariants import FormPoly
from triality.exact_series import FracSeries
from triality.invariant_ring import Invariant
from triality.weyl_poly import I_DEGREES, IPoly

AL0, BE0 = FormPoly.variable(0), FormPoly.variable(3)
A0, B0 = sw_curve.CurvePolyAB.variable(0), sw_curve.CurvePolyAB.variable(2)
F, G = covariants.quadratic_form(), covariants.cubic_form()


# the a-count and the b-count rows of each curve frame
COUNT_ROWS = {
    "ab": ((1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 1, 1)),
    "cd": ((1, 1, 1, 0, 0, 0), (0, 0, 0, 1, 1, 1)),
}


def count_degrees(p):
    """(d_a, d_b) of a curve polynomial, read off its frame's count rows."""
    return [p.weighted_degree(row) for row in COUNT_ROWS[type(p).frame]]


MIXED = [
    ("uv_order", covariants.uv_order, F + G),
    ("order_of", covariants.order_of, AL0 + BE0),
    ("refined_form_degrees", covariants.refined_form_degrees, AL0 + AL0 * AL0),
    ("refined_degrees", count_degrees, A0 + A0 * A0),
    ("refined_degrees cd", count_degrees, sw_curve.ab_to_cd(A0 + A0 * A0)),
    ("poly_weight", lambda p: p.weighted_degree(p.WEIGHTS), A0 + B0),
    ("invariant_degree", lambda p: p.weighted_degree(I_DEGREES), IPoly.variable(0) + IPoly.variable(1)),
]


@pytest.mark.parametrize("check, value", [m[1:] for m in MIXED], ids=[m[0] for m in MIXED])
def test_mixed_grading_raises_not_homogeneous(check, value):
    with pytest.raises(_poly.NotHomogeneousError):
        check(value)


@pytest.mark.parametrize(
    "check", [covariants.is_semiinvariant, covariants.order_of, covariants.psi_inverse]
)
def test_forms_in_u_and_v_are_refused_where_only_coefficients_make_sense(check):
    with pytest.raises(ValueError, match=r"applies to \(u, v\)-free polynomials"):
        check(F * AL0)


def test_wrappers_stay_gone():
    # each was one call to a kept routine, or an output that only tests read
    for name in ("poly_weight", "poly_degree", "refined_degrees"):
        assert not hasattr(sw_curve, name)
    assert not hasattr(weyl_poly, "jacobian_z")
    assert not hasattr(_poly.SparsePoly, "evaluate")
    assert not hasattr(covariants, "HatCoefficients")
    assert not hasattr(IPoly, "invariant_degree")
    assert not hasattr(invariant_ring, "klmn_generator_jacobian")
    assert not hasattr(FracSeries, "t_power")
    hats = covariants.hat_coefficients()
    assert isinstance(hats, tuple) and len(hats) == 2
    # read only by tests: a term is terms.get(exps, 0), a q-coefficient coeff(LATTICE * n)
    assert not hasattr(_poly.SparsePoly, "coefficient")
    assert not hasattr(FracSeries, "q_coeff")
    assert not hasattr(Invariant, "coefficient")  # a coefficient series is terms.get(exps)
    # the sign involution tau -> tau + 1 was reached by no command and no check
    assert not hasattr(Invariant, "t_action")
    assert not hasattr(FracSeries, "flip_half_powers")
    assert not hasattr(exact_series, "UnsupportedLatticeError")
    # a form's value at an order is ModularKLMN.evaluate, a KLMNPoly's is its
    # change_generators(klmn(order)), and a kernel is
    # LinearSolver.of_columns(columns).integer_kernel()
    for name in ("series_form", "_modular_powers"):
        assert not hasattr(invariant_ring, name)
    assert not hasattr(invariant_ring.KLMNPoly, "evaluate")
    # the Weyl route's rewrite is exact, so verify compares it with no series
    for name in ("compose", "modular_in_klmn"):
        assert not hasattr(verify, name)
    assert not hasattr(linalg, "integer_nullspace")
    # no caller reads a kernel twice, so a solver keeps no mark of reduced
    # rows; and a Phi of negative order is refused as a non-semiinvariant
    assert vars(linalg.LinearSolver(2)) == {"ncols": 2, "rows": {}}
    assert not hasattr(covariants, "NegativeOrderError")
    assert not re.search(r"\bstored\b", (Path(triality.__file__).parent / "invariant_ring.py").read_text())
    # a polynomial meets an int only in scaling (* and /): sums, differences
    # and comparisons with one go through Cls.constant(n)
    for name in ("_coerce", "__radd__", "__rsub__"):
        assert not hasattr(_poly.SparsePoly, name)
    with pytest.raises(TypeError):
        A0 + 1
    with pytest.raises(TypeError):
        A0 - 1
    assert A0 != 1 and sw_curve.CurvePolyAB.one() != 1
    assert 2 * A0 / 2 == A0


def test_every_jacobian_is_taken_on_exact_forms():
    # differentiate exactly, then go to series once through the form's evaluate:
    # no series polynomial differentiates, and sw_curve reads no series table
    for cls in (invariant_ring.SeriesPoly, Invariant, invariant_ring.KLMNPoly):
        assert not hasattr(cls, "derivative")
    assert not hasattr(Invariant, "from_ipoly_series")
    assert not hasattr(invariant_ring, "T_POLYS")
    imports = [n for n in ast.walk(module_trees()["sw_curve.py"]) if isinstance(n, ast.ImportFrom)]
    imported = {a.name for n in imports if n.module == "invariant_ring" for a in n.names}
    assert imported and not imported & {"modular_in_klmn", "ONE_EXPS"}


def test_package_root_exports_the_documented_names():
    # the README's library example is the one list of names the root exports
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("## Library example", 1)[1]
    block = re.search(r"from triality import \(([^)]*)\)", example).group(1)
    documented = {name.strip() for name in block.split(",") if name.strip()}
    exported = {
        name
        for name, value in vars(triality).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert documented and exported == documented


def test_grading_errors_are_one_class():
    # each is imported from the module that defines it, and from no alias
    assert not hasattr(covariants, "NotHomogeneousError")
    assert issubclass(_poly.NotHomogeneousError, ValueError)
    assert not hasattr(invariant_ring, "UnsupportedLatticeError")
    # a SeriesPoly grading that disagrees raises _poly's error too
    assert not hasattr(invariant_ring, "GradingError")
    assert not hasattr(invariant_ring, "NotHomogeneousError")


def test_no_module_but_exact_series_reads_the_stored_series_form():
    # nor the stored polynomial form: `_poly` owns both, and other modules ask `_poly.stored`
    src = Path(triality.__file__).parent
    pattern = re.compile(r"\._num\b|\._den\b|FracSeries\._new\b")
    readers = [
        f"{path.name}:{n}"
        for path in sorted(src.glob("*.py"))
        if path.name not in ("_poly.py", "exact_series.py")
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert readers == []


def test_only_power_tables_build_monomial_images():
    # every substitution asks PowerTable.monomial; no other module multiplies kept powers
    assert not hasattr(_poly, "substitute")
    src = Path(triality.__file__).parent
    pattern = re.compile(r"\.power\(|\.powers\b")
    readers = [
        f"{path.name}:{n}"
        for path in sorted(src.glob("*.py"))
        if path.name != "_poly.py"
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert readers == []


def test_each_kept_image_set_is_its_power_table(monkeypatch):
    # one cached builder per image set returns its table; no second cache keeps it
    for owner, name in ((invariant_ring, "_klmn_powers"), (invariant_ring, "_weyl_powers"),
                        (sw_curve, "_frame_form_powers")):
        assert not hasattr(owner, name)
    order = 5
    klmn, weyl = invariant_ring.klmn(order), invariant_ring.weyl_in_klmn(order)
    modular, weyl_e = invariant_ring.modular_in_klmn(order), invariant_ring.weyl_and_e(order)
    # the frame forms are exact and order-free: one table pair for every order
    assert not inspect.signature(sw_curve._frame_forms).parameters
    forms = sw_curve._frame_forms()
    assert invariant_ring.klmn(order) is klmn and invariant_ring.weyl_in_klmn(order) is weyl
    assert invariant_ring.modular_in_klmn(order) is modular and invariant_ring.weyl_and_e(order) is weyl_e
    # K, L, M, N are exact and order-free: one set of forms for every order
    assert not inspect.signature(invariant_ring.klmn_forms).parameters
    assert invariant_ring.klmn_forms() is invariant_ring.klmn_forms()
    assert sw_curve._frame_forms() is forms and len(forms) == 2
    # the Delta reduction is exact and order-free too: one table for the process
    assert not inspect.signature(invariant_ring._delta_reduction).parameters
    reduction = invariant_ring._delta_reduction()
    assert invariant_ring._delta_reduction() is reduction
    # so are the hat images psi_forward substitutes, and covariants builds no other table
    assert not inspect.signature(covariants._hat_powers).parameters
    hats = covariants._hat_powers()
    assert covariants._hat_powers() is hats
    assert type(hats.one) is FormPoly and len(hats.images) == 6
    builders = {
        node.name
        for node in ast.walk(ast.parse(inspect.getsource(covariants)))
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(c, ast.Call) and getattr(c.func, "id", None) == "PowerTable" for c in ast.walk(node))
    }
    assert builders == {"_hat_powers"}
    assert all(isinstance(t, _poly.PowerTable) for t in (klmn, weyl, modular, weyl_e, *forms, reduction, hats))
    assert all(type(x) is FracSeries for x in (modular.one, *modular.images)) and len(modular.images) == 3
    assert type(weyl_e.one) is Invariant and len(weyl_e.images) == 6
    assert all(type(t.one) is invariant_ring.ModularKLMN for t in (*forms, reduction))
    assert reduction.one == invariant_ring.ModularKLMN.one()

    asked = []
    monomial = _poly.PowerTable.monomial
    monkeypatch.setattr(
        _poly.PowerTable, "monomial", lambda table, exps: asked.append(table) or monomial(table, exps)
    )

    def tables_asked(call, *args):
        asked.clear()
        call(*args)
        return asked[:]

    # K, L, M, N go to series through the table of the WeylForm generators;
    # a form goes to series through the modular table and then klmn; its
    # rewrite reads the Weyl table, and the modular one to evaluate it back
    assert any(t is weyl_e for t in tables_asked(invariant_ring.klmn.__wrapped__, order))
    rep = invariant_ring.ModularKLMN.monomial((1, 0, 0, 0, 0, 0, 1))
    asked_by_evaluate = tables_asked(rep.evaluate, order)
    assert any(t is modular for t in asked_by_evaluate) and any(t is klmn for t in asked_by_evaluate)
    asked_by_rewrite = tables_asked(invariant_ring.express_in_klmn, rep.evaluate(order))
    assert any(t is weyl for t in asked_by_rewrite) and any(t is modular for t in asked_by_rewrite)
    a2, b1, b3 = (sw_curve.CurvePolyAB.variable(i) for i in (1, 3, 5))
    p = a2 * b1 * b1 + A0 * b1 * b3
    asked_by_exact = tables_asked(sw_curve.exact_ab, p)
    assert any(t is forms[0] for t in asked_by_exact) and any(t is reduction for t in asked_by_exact)
    assert any(t is modular for t in tables_asked(sw_curve.jacobian_klmn, order))
    assert tables_asked(covariants.psi_forward, A0 * a2 + B0) and all(t is hats for t in asked)
    sw_curve._frame_values.cache_clear()
    assert any(t is modular for t in tables_asked(sw_curve._frame_values, order))

    # the forms compose exactly and go to series once, through the modular
    # table of plain series: no series polynomial in formal K, L, M, N is multiplied
    products = []
    multiply = invariant_ring.KLMNPoly.__mul__

    def counted(*args):
        products.append(args)
        return multiply(*args)

    monkeypatch.setattr(invariant_ring.KLMNPoly, "__mul__", counted)
    monkeypatch.setattr(invariant_ring.KLMNPoly, "__rmul__", counted)
    sw_curve.exact_ab(p)
    assert products == []
    assert any(t is modular for t in tables_asked(sw_curve.jacobian_klmn, order))
    sw_curve._frame_values.cache_clear()
    assert any(t is modular for t in tables_asked(sw_curve._frame_values, order))
    assert products == []


def test_table1_membership_multiplies_no_series(monkeypatch):
    # the verdicts of all 15 generators are exact: no q-series is multiplied,
    # not even to build the frame forms or the Delta reduction
    images = [g.image for g in covariants.gordan_generators()]
    sw_curve._frame_forms.cache_clear()
    invariant_ring._delta_reduction.cache_clear()
    products = []
    multiply = FracSeries.__mul__

    def counted(*args):
        products.append(args)
        return multiply(*args)

    monkeypatch.setattr(FracSeries, "__mul__", counted)
    monkeypatch.setattr(FracSeries, "__rmul__", counted)
    assert [verify._in_ring(sw_curve.exact_ab(p)) for p in images] == [True] * 15
    assert products == []


def test_covariant_kernels_multiply_no_polynomial(monkeypatch):
    # the derivations and psi_inverse act on stored terms: the oracle's columns,
    # the semiinvariance of the 15 leading coefficients and their curve images
    # are read off without one polynomial product
    gens = covariants.gordan_generators()
    products = []
    multiply = _poly.SparsePoly.__mul__

    def counted(*args):
        products.append(args)
        return multiply(*args)

    monkeypatch.setattr(_poly.SparsePoly, "__mul__", counted)
    monkeypatch.setattr(_poly.SparsePoly, "__rmul__", counted)
    # (2, 2, 1) has no monomial (an odd order at even 2 d_a + 3 d_b); the others have 5 and 10
    dims = [covariants.semiinvariant_dimension(*cell) for cell in ((2, 2, 1), (2, 1, 1), (2, 2, 2))]
    assert dims == [0, 1, 3]
    assert all(covariants.is_semiinvariant(g.semi) for g in gens)
    assert [covariants.psi_inverse(g.semi) for g in gens] == [g.image for g in gens]
    assert products == []


def test_the_modular_fit_has_one_home():
    # invariant_ring alone fits series into C[E4, E6]; verify only asks it to
    src = Path(triality.__file__).parent
    callers = [
        f"{path.name}:{n}"
        for path in sorted(src.glob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"\b_fit_modular\(", line) and not line.lstrip().startswith("def ")
    ]
    assert callers and {c.split(":")[0] for c in callers} == {"invariant_ring.py"}
    fitting = re.compile(r"_fit_modular|_modular_basis|\.coeff\(")
    assert not fitting.search((src / "verify.py").read_text())


def test_only_linalg_assembles_equation_rows():
    # callers hand `LinearSolver.of_columns` the sparse stored-form columns of a map;
    # none builds an {equation: {unknown: coefficient}} dict of its own
    src = Path(triality.__file__).parent
    pattern = re.compile(r"\.setdefault\([^)]*\)\s*\[")
    builders = [
        f"{path.name}:{n}"
        for path in sorted(src.glob("*.py"))
        if path.name != "linalg.py"
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert builders == []


def test_the_solver_works_in_integers_only():
    # linalg takes and gives integer numerators over denominators: no Fraction
    # is imported there or built, and none of the old Fraction entry points is left
    tree = ast.parse((Path(triality.__file__).parent / "linalg.py").read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    imported = {alias.name for node in imports for alias in node.names}
    imported |= {getattr(node, "module", None) for node in imports}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert "fractions" not in imported and "Fraction" not in imported | used
    assert not hasattr(linalg, "nullspace") and not hasattr(linalg, "_divided")
    assert not hasattr(linalg.LinearSolver, "kernel")


def test_one_solver_class_and_one_elimination_step():
    # `_clear` is the one place where two solver rows combine: the only
    # subtraction in linalg, called by the solver's forward elimination and
    # back-substitution alone, and by no other module
    src = Path(triality.__file__).parent
    tree = ast.parse((src / "linalg.py").read_text())
    assert [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)] == ["LinearSolver"]
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]

    def subtracts(node):
        return isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Sub)

    def calls_clear(node):
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_clear"

    assert {fn.name for fn in functions if any(map(subtracts, ast.walk(fn)))} == {"_clear"}
    assert {fn.name for fn in functions if any(map(calls_clear, ast.walk(fn)))} == {"add", "integer_kernel"}
    clearing = re.compile(r"\b_clear\(")
    assert [path.name for path in sorted(src.glob("*.py")) if clearing.search(path.read_text())] == ["linalg.py"]


def test_the_cli_refuses_in_one_place():
    # commands raise; main alone writes the one error line to stderr
    tree = ast.parse((Path(triality.__file__).parent / "cli.py").read_text())
    stderr = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "stderr"
        and isinstance(node.value, ast.Name) and node.value.id == "sys"
    ]
    assert len(stderr) == 1
    main = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "main")
    assert main.lineno <= stderr[0] <= main.end_lineno
    commands = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")]
    assert len(commands) == 7
    statements = (ast.Try, getattr(ast, "TryStar", ast.Try))
    tries = [c.name for c in commands if any(isinstance(n, statements) for n in ast.walk(c))]
    assert tries == []


def test_the_cli_prints_in_one_place():
    # commands compute and return their renderings; main alone prints, once:
    # the rendering --format names on stdout, or the refusal on stderr
    tree = ast.parse((Path(triality.__file__).parent / "cli.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def prints(node):
        return [n for n in ast.walk(node) if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "print"]

    def reads_format(node):
        return any(isinstance(n, ast.Attribute) and n.attr == "format" for n in ast.walk(node))

    commands = [fn for name, fn in functions.items() if name.startswith("cmd_")]
    assert len(commands) == 7
    assert [fn.name for fn in commands if prints(fn) or reads_format(fn)] == []
    main_prints = prints(functions["main"])
    assert len(main_prints) == len(prints(tree)) == 2
    keywords = [(kw.arg, ast.unparse(kw.value)) for call in main_prints for kw in call.keywords]
    assert keywords == [("file", "sys.stderr")]


def test_series_are_built_on_integers():
    # every series but zero (no terms) and constant (which drops exponent 0
    # when trunc <= 0) is built as integer numerators and handed to _new;
    # the validating constructor, FracSeries(...) or cls(...), is called nowhere else
    builders = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and getattr(child.func, "id", None) in ("FracSeries", "cls"):
                builders.append(owner)
            visit(child, child.name if isinstance(child, ast.FunctionDef) else owner)

    visit(ast.parse(Path(exact_series.__file__).read_text()), None)
    assert sorted(builders) == ["constant", "zero"]


def test_series_and_polynomials_print_their_terms_alike():
    # one printer: a unit coefficient shows only its sign, "+ -" reads "- "
    series = FracSeries({0: 3, 12: Fraction(1, 2), 24: -1, 48: 1, 60: -2}, 96)
    assert str(series) == "3 + 1/2*q^(1/2) - q + q^2 - 2*q^(5/2)"
    poly = AL0 * AL0 - FormPoly.variable(1) / 2 - FormPoly.variable(FormPoly.V, 3) - FormPoly.one()
    assert str(poly) == "-v^3 + alpha0^2 - 1/2*alpha1 - 1"
    assert str(FracSeries.zero(24)) == str(FormPoly.zero()) == "0"

    # one monomial text: no "^1", and the unit monomial prints as nothing
    assert _poly.format_monomial(("x", "y", "z"), (1, 0, 3)) == "x*z^3"
    assert _poly.format_monomial(("x", "y"), (0, 0)) == ""
    invariant = Invariant({(2, 0, 1, 1): FracSeries.constant(1, 24)}, 0, 14)
    assert str(invariant) == "(1)*I2^2*I6*I~4"



def module_trees():
    """{module file name: its parsed source} for every module of the package."""
    src = Path(triality.__file__).parent
    return {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}


def loaded_names(tree):
    """The names a module loads, the base of an attribute included."""
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def read_names(tree):
    """Every name a module reads: loaded names, attributes and imported names."""
    names = loaded_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def module_level_names(tree):
    """The names a module's top-level statements define."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        for target in getattr(node, "targets", [getattr(node, "target", None)]):
            if isinstance(target, ast.Name):
                yield target.id


def test_every_import_and_private_name_is_read():
    # what a deletion leaves behind: an import no line uses, or a module-level
    # _private definition no module reads (the root's imports are its exports)
    trees = module_trees()
    unused = []
    for name, tree in trees.items():
        loaded = loaded_names(tree)
        imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
        bound = {
            (a.asname or a.name).split(".")[0]
            for n in imports if getattr(n, "module", "") != "__future__" for a in n.names
        }
        unused += [f"{name}: import {b}" for b in sorted(bound - loaded) if name != "__init__.py"]
    readers = set().union(*map(read_names, trees.values()))
    for name, tree in trees.items():
        unused += [
            f"{name}: {d}" for d in module_level_names(tree)
            if d.startswith("_") and not d.startswith("__") and d not in readers
        ]
    assert unused == []


def test_each_derived_set_has_one_builder():
    # e_series builds the triple (e1, e2, e3) from one set of theta fourth
    # powers; each generator carries its leading coefficient and curve image,
    # so no reader rebuilds either and no second cache keeps the images
    assert list(inspect.signature(exact_series.e_series).parameters) == ["order"]
    assert not hasattr(covariants, "gordan_images")
    rebuilt = [
        f"{name}:{node.lineno}"
        for name, tree in module_trees().items()
        if name != "covariants.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "roberts_to_semiinvariant"
        and node.args and isinstance(node.args[0], ast.Attribute) and node.args[0].attr == "poly"
    ]
    assert rebuilt == []


def test_each_decision_sits_behind_one_module():
    # the recovery identities are rows of verify, the rank series sits beside
    # I_DEGREES, and the integer store's read side is written once in _poly
    assert not hasattr(sw_curve, "recover_klmn")
    assert not hasattr(enumerator, "rank_series")
    imports = [n for n in ast.walk(module_trees()["enumerator.py"]) if isinstance(n, ast.ImportFrom)]
    assert all(n.module != "weyl_poly" and "weyl_poly" not in {a.name for a in n.names} for n in imports)
    assert all(isinstance(poly, sw_curve.CurvePolyAB) for _, _, _, poly in verify.RECOVERY)

    base = _poly._IntegerStore
    assert issubclass(_poly.SparsePoly, base) and issubclass(FracSeries, base)
    for name in ("terms", "is_zero", "__truediv__"):
        assert name in vars(base)
        assert name not in vars(_poly.SparsePoly) and name not in vars(FracSeries)
    # the span tracer wraps the hot methods in their owner's own __dict__
    assert {"__mul__", "inverse", "_combine", "_new"} <= set(vars(FracSeries))
    assert {"__mul__", "_new"} <= set(vars(_poly.SparsePoly))
