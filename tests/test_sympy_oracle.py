"""Differential tests against sympy as an outside oracle.

Products and frame changes of `SparsePoly` are compared with sympy's
`expand` and substitution, where the frame-change images are derived in
sympy from their definition (completing the square of the quadratic), and
the rank behind `LinearSolver.kernel` is compared with `Matrix.rank`.
"""

import random
from fractions import Fraction as F

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


def test_kernel_rank_matches_sympy_rank():
    rng = random.Random(9)
    for _ in range(40):
        nrows, ncols = rng.randrange(1, 7), rng.randrange(1, 7)
        rows = [
            [F(rng.randrange(-3, 4), rng.choice((1, 2, 5))) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        # a dependent row now and then, so that rank drops below min(nrows, ncols)
        if nrows > 2 and rng.random() < 0.5:
            rows[-1] = [2 * x - y for x, y in zip(rows[0], rows[1])]
        solver = LinearSolver(ncols)
        for row in rows:
            solver.add(row)
        matrix = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows])
        kernel = solver.kernel()
        assert solver.rank == matrix.rank()
        assert len(kernel) == ncols - matrix.rank()
        for vec in kernel:
            assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in rows)
