"""Exact linear algebra over the rationals, in integers only.

Fraction-free elimination (Bareiss, Math. Comp. 22, 1968): every stored
row is a primitive integer list, its content divided out and its pivot
entry positive.  Such a row is the unique integer scaling of a row of the
reduced row-echelon form, so the form (and hence every kernel basis) is
the same canonical and deterministic one that Gauss-Jordan over Fractions
gives.  `integer_kernel()` hands out each kernel vector as integer
numerators over one positive denominator.  The incremental solver lets
callers stream integer equation rows and stop as soon as the rank is full.

`integer_nullspace` is the one place that turns coefficients into solver
rows.  It takes a linear map by its sparse columns, each in the package's
stored form (`_poly.stored`): the image {equation key: integer numerator}
of one unknown over its positive denominator.  It scales every column to
the lcm of the denominators, a common positive scale of the whole map that
leaves its reduced-echelon kernel unchanged, builds one dense row per
equation key in sorted key order, and stops adding rows once the rank is
full.
"""

from __future__ import annotations

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
        """Reduce one equation of integers into the RREF; returns True if rank grew."""
        row = list(row)
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
        """Reduced-echelon basis of the kernel, one vector per free column, each
        as (integer numerators, denominator > 0)."""
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


def integer_nullspace(columns):
    """Exact reduced-echelon kernel basis of the linear map with the given
    columns, each vector as (integer numerators, denominator > 0).

    columns[i] is (numerators, denominator), the sparse image {equation key:
    integer} of unknown i over a positive denominator; an empty column is a
    free unknown.  Rows are built in sorted key order only until the rank is
    full, so the entries past that point are never read.
    """
    columns = list(columns)
    scale = lcm(*(den for _, den in columns))
    columns = [(num, scale // den) for num, den in columns]
    solver = LinearSolver(len(columns))
    for key in sorted({key for num, _ in columns for key in num}):
        solver.add([num.get(key, 0) * factor for num, factor in columns])
        if solver.rank == solver.ncols:
            break
    return solver.integer_kernel()
