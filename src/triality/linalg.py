"""Exact linear algebra over the rationals.

Plain lists of Fraction, Gauss-Jordan with full back-substitution so that
the reduced row-echelon form (and hence every kernel basis) is canonical
and deterministic.  The incremental solver lets callers stream equation
rows and stop as soon as the solution is pinned down.
"""

from __future__ import annotations

from fractions import Fraction


class LinearSolver:
    """Incremental RREF of [A | b] for a fixed number of unknowns."""

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = []  # list of (pivot_col, coeffs, rhs), pivot coeff == 1
        self.inconsistent = False

    @property
    def rank(self):
        return len(self.rows)

    def add(self, row, rhs=Fraction(0)):
        """Reduce one equation into the RREF; returns True if rank grew."""
        row = list(row)
        rhs = Fraction(rhs)
        for pivot, coeffs, prhs in self.rows:
            factor = row[pivot]
            if factor:
                for j in range(pivot, self.ncols):
                    row[j] -= factor * coeffs[j]
                rhs -= factor * prhs
        for pivot in range(self.ncols):
            if row[pivot]:
                break
        else:
            if rhs:
                self.inconsistent = True
            return False
        lead = row[pivot]
        if lead != 1:
            row = [c / lead for c in row]
            rhs = rhs / lead
        # back-substitute the new pivot into the existing rows
        updated = []
        for p, coeffs, prhs in self.rows:
            factor = coeffs[pivot]
            if factor:
                coeffs = [c - factor * r for c, r in zip(coeffs, row)]
                prhs = prhs - factor * rhs
            updated.append((p, coeffs, prhs))
        updated.append((pivot, row, rhs))
        updated.sort(key=lambda t: t[0])
        self.rows = updated
        return True

    def pivot_cols(self):
        return [p for p, _, _ in self.rows]

    def free_cols(self):
        pivots = set(self.pivot_cols())
        return [c for c in range(self.ncols) if c not in pivots]

    def solution(self):
        """Particular solution (free variables set to 0), or None."""
        if self.inconsistent:
            return None
        sol = [Fraction(0)] * self.ncols
        for p, _, prhs in self.rows:
            sol[p] = prhs
        return sol

    def kernel(self):
        """Reduced-echelon basis of the homogeneous kernel, one vector per free column."""
        basis = []
        for f in self.free_cols():
            vec = [Fraction(0)] * self.ncols
            vec[f] = Fraction(1)
            for p, coeffs, _ in self.rows:
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
