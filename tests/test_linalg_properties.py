"""Property tests for the fraction-free solver: its kernel is the canonical
reduced-echelon one, whatever the order and scaling of the input rows, and
every stored row is a primitive integer row with a positive pivot.  The
kernel of a map given by sparse columns is that of its dense matrix.

A separate module, so that a missing `hypothesis` skips only these tests.
"""

from fractions import Fraction as F
from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from triality.linalg import LinearSolver, integer_nullspace, nullspace  # noqa: E402

PROPERTY = settings(derandomize=True, database=None, max_examples=80, deadline=None)

rationals = st.builds(F, st.integers(-12, 12), st.sampled_from([1, 2, 3, 5, 8]))
nonzero = rationals.filter(bool)
entries = st.one_of(st.integers(-3, 3), rationals)


@st.composite
def systems(draw):
    """(rows, ncols): a few rows of int and Fraction entries, then rows that
    are rational combinations of the first ones, so that the rank drops."""
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=5))
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        weights = draw(st.lists(rationals, min_size=len(rows), max_size=len(rows)))
        rows.append([sum(w * row[j] for w, row in zip(weights, rows)) for j in range(ncols)])
    return rows, ncols


@st.composite
def sparse_columns(draw):
    """Columns {equation key: entry} over a few exponent-tuple keys: some
    columns empty (free unknowns), some entries zero."""
    keys = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(0, 2)), max_size=6, unique=True))
    ncols = draw(st.integers(0, 6))
    if not keys:
        return [{}] * ncols
    return [draw(st.dictionaries(st.sampled_from(keys), entries)) for _ in range(ncols)]


def solve(rows, ncols):
    solver = LinearSolver(ncols)
    for row in rows:
        solver.add(row)
    return solver


@PROPERTY
@given(systems(), st.data())
def test_kernel_ignores_row_order_and_row_scaling(system, data):
    rows, ncols = system
    kernel = solve(rows, ncols).kernel()
    permuted = data.draw(st.permutations(rows))
    assert solve(permuted, ncols).kernel() == kernel
    scales = data.draw(st.lists(nonzero, min_size=len(rows), max_size=len(rows)))
    assert solve([[c * x for x in row] for c, row in zip(scales, rows)], ncols).kernel() == kernel


@PROPERTY
@given(systems())
def test_stored_rows_are_primitive_and_kernel_entries_fractions(system):
    rows, ncols = system
    solver = solve(rows, ncols)
    pivots = [p for p, _ in solver.rows]
    assert pivots == sorted(set(pivots))
    for p, coeffs in solver.rows:
        assert all(type(x) is int for x in coeffs)
        assert gcd(*coeffs) == 1 and coeffs[p] > 0
        assert not any(coeffs[:p]) and not any(coeffs[q] for q in pivots if q != p)
    kernel = solver.kernel()
    assert len(kernel) == ncols - solver.rank
    for vec in kernel:
        assert all(type(x) is F for x in vec)
        assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in rows)


@PROPERTY
@given(sparse_columns())
def test_nullspace_of_columns_is_the_kernel_of_the_dense_matrix(columns):
    # the dense rows in first-seen key order: the kernel does not depend on it
    keys = list(dict.fromkeys(key for column in columns for key in column))
    rows = [[column.get(key, 0) for column in columns] for key in keys]
    assert nullspace(columns) == solve(rows, len(columns)).kernel()
    assert nullspace(iter(columns)) == nullspace(columns)


@PROPERTY
@given(systems())
def test_integer_kernel_divided_out_is_the_kernel(system):
    rows, ncols = system
    solver = solve(rows, ncols)
    vectors = solver.integer_kernel()
    assert all(den > 0 and all(type(n) is int for n in vec) for vec, den in vectors)
    assert all(sum(x * n for x, n in zip(row, vec)) == 0 for row in rows for vec, _ in vectors)
    assert [[F(n, den) for n in vec] for vec, den in vectors] == solver.kernel()


@PROPERTY
@given(sparse_columns())
def test_integer_nullspace_divided_out_is_the_nullspace(columns):
    divided = [[F(n, den) for n in vec] for vec, den in integer_nullspace(columns)]
    assert divided == nullspace(columns)
