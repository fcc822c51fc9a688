"""Exact linear algebra over the rationals.

Plain lists of Fraction, Gauss-Jordan with full back-substitution so that
the reduced row-echelon form (and hence every kernel basis) is canonical
and deterministic.  The incremental solver lets callers stream equation
rows and stop as soon as the rank is full.
"""

from __future__ import annotations

from fractions import Fraction


class LinearSolver:
    """Incremental RREF of a homogeneous system with a fixed number of unknowns."""

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = []  # list of (pivot_col, coeffs), pivot coeff == 1

    @property
    def rank(self):
        return len(self.rows)

    def add(self, row):
        """Reduce one equation into the RREF; returns True if rank grew."""
        row = list(row)
        for pivot, coeffs in self.rows:
            factor = row[pivot]
            if factor:
                for j in range(pivot, self.ncols):
                    row[j] -= factor * coeffs[j]
        for pivot in range(self.ncols):
            if row[pivot]:
                break
        else:
            return False
        lead = row[pivot]
        if lead != 1:
            row = [c / lead for c in row]
        # back-substitute the new pivot into the existing rows
        updated = []
        for p, coeffs in self.rows:
            factor = coeffs[pivot]
            if factor:
                coeffs = [c - factor * r for c, r in zip(coeffs, row)]
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
                    vec[p] = -coeffs[f]
            basis.append(vec)
        return basis


def nullspace(rows, ncols):
    """Exact reduced-echelon kernel basis of the matrix given as an iterable of rows.

    Rows are read only until the rank is full, so a generator of rows is
    never built past that point.
    """
    solver = LinearSolver(ncols)
    for row in rows:
        solver.add(row)
        if solver.rank == ncols:
            break
    return solver.kernel()
