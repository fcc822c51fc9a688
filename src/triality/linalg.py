"""Exact linear algebra over the rationals, in integers only.

Fraction-free elimination (Bareiss, Math. Comp. 22, 1968) on sparse rows,
dicts {column: int} with no zero value, so a step costs a row's nonzero
entries, not its length.  Every stored row is primitive, its content
divided out and its pivot entry (its least column) positive.  Adding a row
eliminates forward only, so the rows stay in echelon form and the rank is
known after each one: a count reads it.  `integer_kernel()` first back-
substitutes once, bottom-up, which leaves the unique integer scaling of
each row of the reduced row-echelon form, so every kernel basis is the
canonical one Gauss-Jordan over Fractions gives; it hands each vector out
as dense integer numerators over one positive denominator.

`LinearSolver.of_columns` is the one place that turns coefficients into
solver rows.  It takes a linear map by its sparse columns, each in the
package's stored form (`_poly.stored`), and scales them all to the lcm of
their denominators, which leaves the reduced-echelon kernel unchanged.
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
    """Echelon rows of a homogeneous system with a fixed number of unknowns,
    brought to reduced echelon form only when a kernel is read."""

    def __init__(self, ncols):
        self.ncols = ncols
        # pivot -> primitive row: its least column, > 0 there; as
        # integer_kernel() returns, no other pivot in it
        self.rows = {}

    @classmethod
    def of_columns(cls, columns):
        """The solver of the linear map with the given columns.

        columns[i] is (numerators, denominator), the sparse image {equation
        key: integer} of unknown i over a positive denominator; an empty
        column is a free unknown.  Sparse rows are built in sorted key order,
        from an index of the columns that hold each key, only until the rank
        is full: the entries past that point are never read.
        """
        columns = list(columns)
        scale = lcm(*(den for _, den in columns))
        holders = {}
        for i, (num, _) in enumerate(columns):
            for key in num:
                holders.setdefault(key, []).append(i)
        solver = cls(len(columns))
        for key in sorted(holders):
            solver.add({i: columns[i][0][key] * (scale // columns[i][1]) for i in holders[key]})
            if solver.rank == solver.ncols:
                break
        return solver

    @property
    def rank(self):
        return len(self.rows)

    def add(self, row):
        """Eliminate one equation {column: int} forward; returns True if rank grew."""
        row = {j: x for j, x in row.items() if x}
        while row:
            pivot = min(row)
            if pivot not in self.rows:
                self.rows[pivot] = _primitive(row, pivot)
                return True
            row = _clear(row, self.rows[pivot], pivot)
        return False

    def integer_kernel(self):
        """Reduced-echelon kernel basis: (integer numerators, denominator > 0) per free column."""
        rows = self.rows
        # back-substitute bottom-up: a row holds only the pivots of reduced
        # rows past its own, and clears each once (a reduced row, none)
        for p in sorted(rows, reverse=True):
            row = rows[p]
            for q in [q for q in row if q != p and q in rows]:
                row = _clear(row, rows[q], q)
            rows[p] = _primitive(row, p)
        basis = []
        for f in range(self.ncols):
            if f not in rows:
                # entry p is -coeffs[f] / coeffs[p], the 1 at f is den / den
                column = [(p, coeffs[p], coeffs[f]) for p, coeffs in rows.items() if f in coeffs]
                den = lcm(*(lead for _, lead, _ in column))
                vec = [0] * self.ncols
                vec[f] = den
                for p, lead, x in column:
                    vec[p] = -x * (den // lead)
                basis.append((vec, den))
        return basis

