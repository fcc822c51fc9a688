"""Differential tests against sympy as an outside oracle.

Products and frame changes of `SparsePoly` are compared with sympy's
`expand` and substitution, where the frame-change images are derived in
sympy from their definition (completing the square of the quadratic), and
the kernels of `LinearSolver`, divided out, are
compared exactly with the kernel read off sympy's `Matrix.rref`.
"""

import random
from fractions import Fraction as F
from math import lcm

import pytest

sympy = pytest.importorskip("sympy")

from triality.linalg import LinearSolver  # noqa: E402
from triality.sw_curve import CurvePolyAB, CurvePolyCD, ab_to_cd  # noqa: E402

AB = sympy.symbols(CurvePolyAB.names)
CD = sympy.symbols(CurvePolyCD.names)


def to_sympy(p, symbols):
    return sympy.Add(
        *(
            sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*map(sympy.Pow, symbols, exps))
            for exps, c in p.terms.items()
        )
    )


def random_poly(rng, cls, terms=5, top=3):
    exps = [tuple(rng.randrange(top + 1) for _ in range(cls.nvars)) for _ in range(terms)]
    return cls({e: F(rng.randrange(-9, 10), rng.choice((1, 2, 3, 7))) for e in exps})


def ab_images_in_cd():
    """a0, a2, b0..b3 as the quadratic (c0, c1, c2) and cubic (d0, 0, d2, d3)
    rewritten in u + s v with s = -c1/(2 c0), read off by sympy."""
    c0, c1, c2, d0, d2, d3 = CD
    u, v = sympy.symbols("u v")
    s = -c1 / (2 * c0)
    quadratic = sympy.expand((c0 * u**2 + c1 * u * v + c2 * v**2).subs(u, u + s * v))
    cubic = sympy.expand((d0 * u**3 + d2 * u * v**2 + d3 * v**3).subs(u, u + s * v))
    a = [quadratic.coeff(u, 2 - i).coeff(v, i) for i in range(3)]
    b = [cubic.coeff(u, 3 - i).coeff(v, i) for i in range(4)]
    assert sympy.expand(a[1]) == 0
    return [a[0], a[2], *b]


def test_multiply_matches_sympy_expand():
    rng = random.Random(7)
    for cls, symbols in ((CurvePolyAB, AB), (CurvePolyCD, CD)):
        for _ in range(25):
            p, q = random_poly(rng, cls), random_poly(rng, cls)
            expected = sympy.expand(to_sympy(p, symbols) * to_sympy(q, symbols))
            assert sympy.expand(to_sympy(p * q, symbols) - expected) == 0


def test_frame_change_matches_sympy_substitution():
    rng = random.Random(8)
    images = dict(zip(AB, ab_images_in_cd()))
    for _ in range(25):
        p = random_poly(rng, CurvePolyAB, terms=4, top=2)
        expected = to_sympy(p, AB).xreplace(images)
        assert sympy.expand(to_sympy(ab_to_cd(p), CD) - expected) == 0


def sympy_kernel(rows, ncols):
    """The kernel basis read off sympy's RREF: one vector per free column, 1 in
    that column and minus the column's RREF entries in the pivot columns."""
    flat = [sympy.Rational(F(x).numerator, F(x).denominator) for row in rows for x in row]
    rref, pivots = sympy.Matrix(len(rows), ncols, flat).rref()
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [F(0)] * ncols
        vec[f] = F(1)
        for i, p in enumerate(pivots):
            vec[p] = -F(int(rref[i, f].p), int(rref[i, f].q))
        basis.append(vec)
    return basis


def divided(vectors):
    return [[F(n, den) for n in vec] for vec, den in vectors]


def solver_kernel(rows, ncols):
    """The solver's kernel of rational rows, each row scaled to integers by the
    lcm of its denominators, with its vectors divided out."""
    solver = LinearSolver(ncols)
    for row in rows:
        scale = lcm(*(F(x).denominator for x in row))
        solver.add(dict(enumerate(int(x * scale) for x in row)))
    return divided(solver.integer_kernel())


def random_systems(rng, count):
    for _ in range(count):
        nrows, ncols = rng.randrange(0, 7), rng.randrange(1, 7)
        rows = [
            [F(rng.randrange(-3, 4), rng.choice((1, 2, 5))) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        # a dependent row now and then, so that rank drops below min(nrows, ncols)
        if nrows > 2 and rng.random() < 0.5:
            rows[-1] = [2 * x - y for x, y in zip(rows[0], rows[1])]
        yield rows, ncols


BIG = F(10**12 + 1, 3**20)
EDGE_SYSTEMS = [
    ([], 3),
    ([[0, 0, 0], [F(0), 0, 0]], 3),
    ([[1, 2, 3], [1, 2, 3], [F(2), 4, 6], [6, -4, 2]], 3),
    ([[F(6, 4), 0, F(-9, 6), 3], [F(6, 4), 0, F(-9, 6), 3], [0, 0, 0, 0]], 4),
    ([[BIG, 1, 0, -BIG], [3**20, BIG, F(1, 10**12 + 1), 0], [BIG * BIG, BIG, 2, 7]], 4),
    ([[F(1, 3**20), F(-1, 2**40), 0], [F(2, 3**20), F(-2, 2**40), 0], [0, 0, F(5, 7)]], 3),
]


def test_kernel_matches_sympy_rref():
    systems = EDGE_SYSTEMS + list(random_systems(random.Random(9), 60))
    for rows, ncols in systems:
        assert solver_kernel(rows, ncols) == sympy_kernel(rows, ncols), rows


def columns_of(rows, ncols):
    """The sparse columns of a matrix given by its rows, each in the stored
    form: ({row index: integer numerator}, lcm of the column's denominators)."""
    columns = []
    for j in range(ncols):
        den = lcm(*(F(row[j]).denominator for row in rows))
        columns.append(({i: int(row[j] * den) for i, row in enumerate(rows)}, den))
    return columns


def test_nullspace_early_stop_matches_sympy_rref():
    full = [[1, F(1, 2), 0], [1, F(1, 2), 0], [0, F(6, 4), BIG], [BIG, 0, 1]]
    columns = columns_of(full, 3)
    # an equation after the rank is full would fail in LinearSolver.add
    columns[-1][0][len(full)] = "not a number"
    assert LinearSolver.of_columns(columns).integer_kernel() == sympy_kernel(full, 3) == []
    # nor is it scaled: None times the column's scale would raise
    columns[-1][0][len(full)] = None
    assert LinearSolver.of_columns(columns).integer_kernel() == []
    deficient = [[F(6, 4), 3, 0, BIG], [3, 6, 0, 2 * BIG], [0, 0, 0, 0]]
    vectors = LinearSolver.of_columns(iter(columns_of(deficient, 4))).integer_kernel()
    assert divided(vectors) == sympy_kernel(deficient, 4)
