"""Exact linear algebra over the rationals, in integers only.

Fraction-free elimination (Bareiss, Math. Comp. 22, 1968) on sparse rows,
dicts {column: int} with no zero value, so a step costs a row's nonzero
entries, not its length.  Every stored row is primitive, its content
divided out and its pivot entry (its least column) positive: the unique
integer scaling of a row of the reduced row-echelon form, so the form (and
every kernel basis) is the canonical one Gauss-Jordan over Fractions gives.
`integer_kernel()` hands out each kernel vector as dense integer numerators
over one positive denominator.

`integer_nullspace` is the one place that turns coefficients into solver
rows.  It takes a linear map by its sparse columns, each in the package's
stored form (`_poly.stored`): the image {equation key: integer numerator}
of one unknown over its positive denominator, scales them all to the lcm
of the denominators (which leaves the reduced-echelon kernel unchanged),
and builds the sparse rows lazily, one per key in sorted order, until the
rank is full.
"""

from __future__ import annotations

from math import gcd, lcm


def _primitive(row, lead):
    """row divided by the gcd of its entries, signed so that row[lead] > 0."""
    g = gcd(*row.values())
    if row[lead] < 0:
        g = -g
    return row if g == 1 else {j: x // g for j, x in row.items()}


def _clear(row, other, j):
    """b*row - a*other, for a/b = row[j]/other[j] in lowest terms with b > 0:
    a new row without column j or any other entry that cancels."""
    g = gcd(row[j], other[j])
    a, b = row[j] // g, other[j] // g
    out = row.copy() if b == 1 else {k: b * x for k, x in row.items()}
    for k, y in other.items():
        x = out.get(k, 0) - a * y
        if x:
            out[k] = x
        else:
            del out[k]
    return out


class LinearSolver:
    """Incremental RREF of a homogeneous system with a fixed number of unknowns."""

    def __init__(self, ncols):
        self.ncols = ncols
        # pivot -> primitive row: its least column, > 0 there, no other pivot in it
        self.rows = {}

    @property
    def rank(self):
        return len(self.rows)

    def add(self, row):
        """Reduce one equation {column: int} into the RREF; returns True if rank grew."""
        row = {j: x for j, x in row.items() if x}
        # clear the stored pivots held on entry: no stored row holds another's
        for pivot in [j for j in row if j in self.rows]:
            row = _clear(row, self.rows[pivot], pivot)
        if not row:
            return False
        pivot = min(row)
        row = _primitive(row, pivot)
        # back-substitute the new pivot into the existing rows
        for p, coeffs in self.rows.items():
            if pivot in coeffs:
                self.rows[p] = _primitive(_clear(coeffs, row, pivot), p)
        self.rows[pivot] = row
        return True

    def integer_kernel(self):
        """Reduced-echelon kernel basis: (integer numerators, denominator > 0) per free column."""
        basis = []
        for f in range(self.ncols):
            if f not in self.rows:
                # entry p is -coeffs[f] / coeffs[p], the 1 at f is den / den
                column = [(p, coeffs[p], coeffs[f]) for p, coeffs in self.rows.items() if f in coeffs]
                den = lcm(*(lead for _, lead, _ in column))
                vec = [0] * self.ncols
                vec[f] = den
                for p, lead, x in column:
                    vec[p] = -x * (den // lead)
                basis.append((vec, den))
        return basis


def integer_nullspace(columns):
    """Exact reduced-echelon kernel basis of the linear map with the given
    columns, each vector as (integer numerators, denominator > 0).

    columns[i] is (numerators, denominator), the sparse image {equation key:
    integer} of unknown i over a positive denominator; an empty column is a
    free unknown.  Sparse rows are built in sorted key order, from an index of
    the columns that hold each key, only until the rank is full: the entries
    past that point are never read.
    """
    columns = list(columns)
    scale = lcm(*(den for _, den in columns))
    holders = {}
    for i, (num, _) in enumerate(columns):
        for key in num:
            holders.setdefault(key, []).append(i)
    solver = LinearSolver(len(columns))
    for key in sorted(holders):
        solver.add({i: columns[i][0][key] * (scale // columns[i][1]) for i in holders[key]})
        if solver.rank == solver.ncols:
            break
    return solver.integer_kernel()
