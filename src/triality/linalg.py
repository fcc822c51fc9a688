"""Exact linear algebra over the rationals.

Fraction-free elimination (Bareiss, Math. Comp. 22, 1968): every stored
row is a primitive integer list, its content divided out and its pivot
entry positive.  Such a row is the unique integer scaling of a row of the
reduced row-echelon form, so the form (and hence every kernel basis) is
the same canonical and deterministic one that Gauss-Jordan over Fractions
gives.  Fractions are built only in `kernel()`.  The incremental solver
lets callers stream equation rows and stop as soon as the rank is full.

`nullspace` is the one place that turns coefficients into solver rows.  It
takes a linear map by its sparse columns, the image {equation key:
coefficient} of each unknown, builds one dense row per equation key in
sorted key order, and stops adding rows once the rank is full.
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

    def kernel(self):
        """Reduced-echelon basis of the kernel, one vector per free column."""
        pivots = {p for p, _ in self.rows}
        basis = []
        for f in range(self.ncols):
            if f in pivots:
                continue
            vec = [Fraction(0)] * self.ncols
            vec[f] = Fraction(1)
            for p, coeffs in self.rows:
                if coeffs[f]:
                    vec[p] = Fraction(-coeffs[f], coeffs[p])
            basis.append(vec)
        return basis


def nullspace(columns):
    """Exact reduced-echelon kernel basis of the linear map with the given columns.

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
    return solver.kernel()
