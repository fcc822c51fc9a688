"""Property tests for the fraction-free solver: its kernel is the canonical
reduced-echelon one, whatever the order and scaling of the input rows and
however kernel reads and adds interleave, and every stored row is a
primitive integer row with a positive pivot, in echelon form after the adds
and reduced once a kernel is read.  The kernel of a map given by sparse
columns in the stored form is that of its dense matrix, and depends only on
each column's rational value.  The reference is a test-local Gauss-Jordan
over Fractions.

A separate module, so that a missing `hypothesis` skips only these tests.
"""

import random
from fractions import Fraction as F
from math import gcd, lcm

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from triality.enumerator import monomials_of, triality_basis  # noqa: E402
from triality.linalg import LinearSolver  # noqa: E402
from triality.sw_curve import negative_c0_part  # noqa: E402

PROPERTY = settings(derandomize=True, database=None, max_examples=80, deadline=None)

rationals = st.builds(F, st.integers(-12, 12), st.sampled_from([1, 2, 3, 5, 8]))
nonzero = st.integers(-6, 6).filter(bool)
entries = st.one_of(st.integers(-3, 3), rationals)


@st.composite
def rational_systems(draw):
    """(rows, ncols): a few rows of int and Fraction entries, then rows that
    are rational combinations of the first ones, so that the rank drops."""
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=5))
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        weights = draw(st.lists(rationals, min_size=len(rows), max_size=len(rows)))
        rows.append([sum(w * row[j] for w, row in zip(weights, rows)) for j in range(ncols)])
    return rows, ncols


def integer_row(row):
    """A rational row times the lcm of its denominators: the same equation."""
    scale = lcm(*(F(x).denominator for x in row))
    return [int(x * scale) for x in row]


systems = rational_systems().map(lambda s: ([integer_row(row) for row in s[0]], s[1]))


@st.composite
def sparse_columns(draw, values=entries):
    """Columns {equation key: entry} over a few exponent-tuple keys: some
    columns empty (free unknowns), some entries zero."""
    keys = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(0, 2)), max_size=6, unique=True))
    ncols = draw(st.integers(0, 6))
    if not keys:
        return [{}] * ncols
    return [draw(st.dictionaries(st.sampled_from(keys), values)) for _ in range(ncols)]


@st.composite
def block_sparse_systems(draw):
    """(rows, ncols): 20 to 60 unknowns split into a few blocks of shuffled
    columns; rows with a few entries inside one block, then rows b*r - a*s
    of two rows of a block in which a column both hold cancels exactly, and
    a few sums of rows of two blocks.  The entries come from a drawn seed,
    because a draw per entry would dominate the run time."""
    ncols = draw(st.integers(20, 60))
    nblocks = draw(st.integers(2, 6))
    rng = random.Random(draw(st.integers(0, 2**32)))
    order = rng.sample(range(ncols), ncols)
    cuts = sorted(rng.sample(range(1, ncols), nblocks - 1))
    rows = []
    for block in (order[i:j] for i, j in zip([0, *cuts], [*cuts, ncols])):
        own = []
        for _ in range(rng.randint(1, min(len(block), 6))):
            row = [0] * ncols
            for j in rng.sample(block, rng.randint(1, min(len(block), 4))):
                row[j] = rng.choice([-3, -2, -1, 1, 2, 3, 5, 10**12 + 1])
            own.append(row)
        for _ in range(rng.randrange(3) if len(own) > 1 else 0):
            r, s = rng.sample(own, 2)
            shared = [j for j in block if r[j] and s[j]]
            if shared:
                j = rng.choice(shared)
                own.append([s[j] * x - r[j] * y for x, y in zip(r, s)])
        rows += own
    rows += [[x + y for x, y in zip(*rng.sample(rows, 2))] for _ in range(rng.randrange(3))]
    rng.shuffle(rows)
    return rows, ncols


def stored_column(column):
    """A {key: rational} column as (integer numerators, lcm of the denominators)."""
    den = lcm(*(F(x).denominator for x in column.values()))
    return {key: int(x * den) for key, x in column.items()}, den


def dense_rows(columns):
    # in first-seen key order: the kernel does not depend on it
    keys = list(dict.fromkeys(key for column in columns for key in column))
    return [[column.get(key, 0) for column in columns] for key in keys]


def solve(rows, ncols):
    solver = LinearSolver(ncols)
    for row in rows:
        solver.add(dict(enumerate(row)))
    return solver


def divided(vectors):
    return [[F(n, den) for n in vec] for vec, den in vectors]


def fraction_kernel(rows, ncols):
    """Reduced-echelon kernel basis by Gauss-Jordan over Fractions: one vector
    per free column, 1 there and minus the column's entries at the pivots."""
    reduced = []  # (pivot, row): row[pivot] == 1, 0 in every other pivot column
    for row in rows:
        row = [F(x) for x in row]
        for p, r in reduced:
            row = [x - row[p] * y for x, y in zip(row, r)]
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is None:
            continue
        row = [x / row[lead] for x in row]
        reduced = [(p, [x - r[lead] * y for x, y in zip(r, row)]) for p, r in reduced]
        reduced.append((lead, row))
    pivots = {p for p, _ in reduced}
    basis = []
    for f in range(ncols):
        if f not in pivots:
            vec = [F(int(j == f)) for j in range(ncols)]
            for p, r in reduced:
                vec[p] = -r[f]
            basis.append(vec)
    return basis


@PROPERTY
@given(systems, st.data())
def test_kernel_ignores_row_order_and_row_scaling(system, data):
    rows, ncols = system
    kernel = solve(rows, ncols).integer_kernel()
    permuted = data.draw(st.permutations(rows))
    assert solve(permuted, ncols).integer_kernel() == kernel
    scales = data.draw(st.lists(nonzero, min_size=len(rows), max_size=len(rows)))
    assert solve([[c * x for x in row] for c, row in zip(scales, rows)], ncols).integer_kernel() == kernel


@PROPERTY
@given(systems)
def test_stored_rows_are_primitive_and_kernel_vectors_integers(system):
    rows, ncols = system
    solver = solve(rows, ncols)
    # echelon after the adds: rows are keyed by their pivot column, so each
    # pivot holds one row, and the pivot is the row's least column
    for p, coeffs in solver.rows.items():
        assert all(type(x) is int and x for x in coeffs.values())
        assert set(coeffs) <= set(range(ncols)) and min(coeffs) == p
        assert gcd(*coeffs.values()) == 1 and coeffs[p] > 0
    vectors = solver.integer_kernel()
    # reduced once a kernel is read: still primitive, and no other pivot in a row
    pivots = set(solver.rows)
    for p, coeffs in solver.rows.items():
        assert min(coeffs) == p and gcd(*coeffs.values()) == 1 and coeffs[p] > 0
        assert not any(q in coeffs for q in pivots if q != p)
    assert len(vectors) == ncols - solver.rank
    for vec, den in vectors:
        assert type(den) is int and den > 0 and all(type(n) is int for n in vec)
        assert all(sum(a * n for a, n in zip(row, vec)) == 0 for row in rows)


@PROPERTY
@given(systems, st.data())
def test_kernels_read_between_adds_are_the_kernels_so_far(system, data):
    # the rank is the Fraction rank after adds alone; a kernel read reduces
    # the rows, and the next read, or an add after it, starts from the
    # reduced rows and gives the same kernel the echelon rows would
    rows, ncols = system
    cuts = sorted(data.draw(st.lists(st.integers(0, len(rows)), max_size=3)))
    solver = LinearSolver(ncols)
    done = 0
    for cut in [*cuts, len(rows)]:
        for row in rows[done:cut]:
            solver.add(dict(enumerate(row)))
        done = cut
        kernel = fraction_kernel(rows[:done], ncols)
        assert solver.rank == ncols - len(kernel)
        first = solver.integer_kernel()
        assert divided(first) == kernel
        assert solver.integer_kernel() == first


@PROPERTY
@given(rational_systems())
def test_integer_kernel_divided_out_is_the_kernel(system):
    # each rational row scaled to integers states the same equation
    rows, ncols = system
    solver = solve([integer_row(row) for row in rows], ncols)
    assert divided(solver.integer_kernel()) == fraction_kernel(rows, ncols)


@PROPERTY
@given(sparse_columns(values=st.integers(-3, 3)))
def test_nullspace_of_columns_is_the_kernel_of_the_dense_matrix(columns):
    kernel = solve(dense_rows(columns), len(columns)).integer_kernel()
    assert LinearSolver.of_columns((column, 1) for column in columns).integer_kernel() == kernel
    assert LinearSolver.of_columns([(column, 1) for column in columns]).integer_kernel() == kernel


@PROPERTY
@given(sparse_columns())
def test_kernel_of_columns_divided_out_is_the_nullspace(columns):
    # columns over different denominators: the kernel of the rational matrix
    vectors = LinearSolver.of_columns(stored_column(column) for column in columns).integer_kernel()
    assert divided(vectors) == fraction_kernel(dense_rows(columns), len(columns))


@PROPERTY
@given(sparse_columns(), st.data())
def test_kernel_of_columns_reads_only_each_columns_rational_value(columns, data):
    # (num, d) and (c*num, c*d) are the same column, whatever c > 0 each column takes
    stored = [stored_column(column) for column in columns]
    scales = data.draw(st.lists(st.integers(1, 9), min_size=len(stored), max_size=len(stored)))
    rescaled = [({key: c * n for key, n in num.items()}, c * den) for c, (num, den) in zip(scales, stored)]
    kernels = [LinearSolver.of_columns(columns).integer_kernel() for columns in (rescaled, stored)]
    assert kernels[0] == kernels[1]


@settings(PROPERTY, max_examples=50)
@given(block_sparse_systems())
def test_wide_block_sparse_kernels_are_the_kernel(system):
    rows, ncols = system
    kernel = fraction_kernel(rows, ncols)
    assert divided(solve(rows, ncols).integer_kernel()) == kernel
    columns = [({i: row[j] for i, row in enumerate(rows)}, 1) for j in range(ncols)]
    assert divided(LinearSolver.of_columns(columns).integer_kernel()) == kernel


def test_nullspace_of_the_widest_dimension_table_cells():
    # the cell with the most unknowns (76, and 37 equations that each raise
    # the rank) and one whose 66 equations reach rank 58 of 69
    for k, m, unknowns, equations, dimension in ((72, 20, 76, 37, 39), (72, 24, 69, 66, 11)):
        columns = [negative_c0_part(mono) for mono in monomials_of(k, m)]
        keys = sorted({key for num, _ in columns for key in num})
        assert (len(columns), len(keys)) == (unknowns, equations)
        rows = [[F(num.get(key, 0), den) for num, den in columns] for key in keys]
        vectors = LinearSolver.of_columns(columns).integer_kernel()
        assert divided(vectors) == fraction_kernel(rows, len(columns))
        assert len(vectors) == triality_basis(k, m).dimension == dimension
