"""Exact linear algebra over the rationals.

Fraction-free elimination (Bareiss, Math. Comp. 22, 1968): every stored
row is a primitive integer list, its content divided out and its pivot
entry positive.  Such a row is the unique integer scaling of a row of the
reduced row-echelon form, so the form (and hence every kernel basis) is
the same canonical and deterministic one that Gauss-Jordan over Fractions
gives.  `integer_kernel()` hands out each kernel vector as integer
numerators over one positive denominator, and `kernel()` divides them
out; a row of Fractions is scaled to integers on entry.  The incremental
solver lets callers stream equation rows and stop as soon as the rank is
full.

`integer_nullspace` is the one place that turns coefficients into solver
rows.  It takes a linear map by its sparse columns, the image {equation
key: coefficient} of each unknown, builds one dense row per equation key
in sorted key order, and stops adding rows once the rank is full;
`nullspace` gives the same kernel with Fraction entries.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _primitive(row, lead):
    """row divided by the gcd of its entries, signed so that row[lead] > 0."""
    g = gcd(*row)
    if row[lead] < 0:
        g = -g
    return row if g == 1 else [x // g for x in row]


def _divided(vectors):
    """Fraction vectors of (integer numerators, denominator) pairs."""
    return [[Fraction(n, den) for n in vec] for vec, den in vectors]


class LinearSolver:
    """Incremental RREF of a homogeneous system with a fixed number of unknowns."""

    def __init__(self, ncols):
        self.ncols = ncols
        # (pivot_col, coeffs): primitive ints, coeffs[pivot_col] > 0, and 0 in
        # every other row's pivot column
        self.rows = []

    @property
    def rank(self):
        return len(self.rows)

    def add(self, row):
        """Reduce one equation (ints or Fractions) into the RREF; returns True
        if rank grew."""
        row = list(row)
        scale = lcm(*(x.denominator for x in row))
        row = [x.numerator * (scale // x.denominator) for x in row]
        # cross-multiply, b*row - a*stored, to clear each stored pivot column
        for pivot, coeffs in self.rows:
            a = row[pivot]
            if a:
                b = coeffs[pivot]
                g = gcd(a, b)
                a, b = a // g, b // g
                row = [b * x - a * y for x, y in zip(row, coeffs)]
        for pivot in range(self.ncols):
            if row[pivot]:
                break
        else:
            return False
        row = _primitive(row, pivot)
        # back-substitute the new pivot into the existing rows
        b = row[pivot]
        updated = []
        for p, coeffs in self.rows:
            a = coeffs[pivot]
            if a:
                g = gcd(a, b)
                coeffs = _primitive([(b // g) * x - (a // g) * y for x, y in zip(coeffs, row)], p)
            updated.append((p, coeffs))
        updated.append((pivot, row))
        updated.sort(key=lambda t: t[0])
        self.rows = updated
        return True

    def integer_kernel(self):
        """`kernel()` with each vector as (integer numerators, denominator > 0)."""
        pivots = {p for p, _ in self.rows}
        basis = []
        for f in range(self.ncols):
            if f in pivots:
                continue
            # entry p is -coeffs[f] / coeffs[p], the 1 at f is den / den
            den = lcm(*(coeffs[p] for p, coeffs in self.rows if coeffs[f]))
            vec = [0] * self.ncols
            vec[f] = den
            for p, coeffs in self.rows:
                if coeffs[f]:
                    vec[p] = -coeffs[f] * (den // coeffs[p])
            basis.append((vec, den))
        return basis

    def kernel(self):
        """Reduced-echelon basis of the kernel, one vector per free column."""
        return _divided(self.integer_kernel())


def integer_nullspace(columns):
    """Exact reduced-echelon kernel basis of the linear map with the given
    columns, each vector as (integer numerators, denominator > 0).

    columns[i] is the sparse image {equation key: coefficient} of unknown i;
    an empty column is a free unknown.  Rows are built in sorted key order
    only until the rank is full, so the keys past that point are never read.
    """
    columns = list(columns)
    ncols = len(columns)
    solver = LinearSolver(ncols)
    for key in sorted({key for column in columns for key in column}):
        solver.add([column.get(key, 0) for column in columns])
        if solver.rank == ncols:
            break
    return solver.integer_kernel()


def nullspace(columns):
    """`integer_nullspace` with each vector's entries as Fractions."""
    return _divided(integer_nullspace(columns))
