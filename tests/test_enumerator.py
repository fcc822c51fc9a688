from fractions import Fraction as F
from itertools import product
from operator import mul

from triality import _poly, covariants, sw_curve
from triality._poly import bounded_monomials
from triality.cli import MAX_DEGREE, MAX_WEIGHT
from triality.enumerator import dimension_table, monomials_of, triality_basis
from triality.invariant_ring import INVARIANT, KLMN_DEGREES, express_in_klmn
from triality.linalg import LinearSolver
from triality.sw_curve import (
    CurvePolyAB, ab_to_cd, evaluate_ab, is_triality_invariant, negative_c0_part,
)
from triality.verify import K_MAX, M_MAX, oracle_dimension
from triality.weyl_poly import I_DEGREES, rank_series


def test_monomials_of():
    assert monomials_of(12, 0) == [(3, 0, 0, 0, 0, 0), (0, 0, 2, 0, 0, 0)]
    assert monomials_of(12, 2) == [(1, 0, 0, 1, 0, 0)]
    assert monomials_of(4, 2) == []
    # weight/degree bookkeeping on a bigger cell
    for exps in monomials_of(24, 8):
        assert sum(w * e for w, e in zip(CurvePolyAB.WEIGHTS, exps)) == 24
        assert sum(d * e for d, e in zip(CurvePolyAB.DEGREES, exps)) == 8


def _brute_force_cells(weights, top):
    """Every exponent tuple of degrees at most top under the weight rows, from
    itertools.product over a box, by its degrees and in decreasing grlex order."""
    box = [min(t // w for t, w in zip(top, column) if w) for column in zip(*weights)]
    cells = {}
    for e in product(*(range(b + 1) for b in box)):
        cells.setdefault(tuple(sum(map(mul, row, e)) for row in weights), []).append(e)
    return {t: tuple(sorted(es, key=lambda e: (sum(e), e), reverse=True)) for t, es in cells.items()}


def test_bounded_monomials_match_a_brute_force_enumeration(monkeypatch):
    # every curve cell with k <= 48 and m <= 16, odd and negative targets too
    curve = (CurvePolyAB.WEIGHTS, CurvePolyAB.DEGREES)
    expected = _brute_force_cells(curve, (48, 16))
    for k in range(-3, 49):
        for m in range(-3, 17):
            assert bounded_monomials(curve, (k, m)) == expected.get((k, m), ()), (k, m)
    # the semiinvariant cells the dimension oracle reads at k <= 24, m <= 8
    cells = []
    real = covariants.bounded_monomials
    monkeypatch.setattr(covariants, "bounded_monomials", lambda w, t: cells.append(t) or real(w, t))
    for k in range(0, 25, 2):
        for m in range(0, 9, 2):
            oracle_dimension(k, m)
    assert len(set(cells)) == 71 and min(t[2] for t in cells) < 0
    weights = covariants._SEMIINVARIANT_WEIGHTS
    expected = _brute_force_cells(weights, tuple(map(max, zip(*cells))))
    for t in cells:
        assert bounded_monomials(weights, t) == expected.get(t, ()), t
    # single weight rows
    for row in (I_DEGREES, KLMN_DEGREES):
        expected = _brute_force_cells((row,), (40,))
        for d in range(-3, 41):
            assert bounded_monomials((row,), (d,)) == expected.get((d,), ()), (row, d)


def test_deep_cells_are_built_without_recursion():
    # 750 units of total degree, deeper than the interpreter lets a recursion go
    assert len(monomials_of(3000, 0)) == 251
    assert bounded_monomials(((1,),), (500,)) == ((500,),)


def test_kept_cells_cannot_change_and_stay_bounded():
    """Each cell of `bounded_monomials` is kept for the process, and only
    cells with no negative target are built on the way down.  The dimension
    table under the CLI caps keeps 833 curve cells, every even k <= 96 and
    m <= 32; `test_cli_caps_bound_the_kept_cores` shows that every cell the
    CLI accepts, odd ones too, keeps 97 * 33, so a process that serves the
    CLI keeps at most that many curve cells."""
    cell = monomials_of(24, 8)
    original = list(cell)
    cell.reverse()
    cell.append((1,) * 6)
    assert monomials_of(24, 8) == original
    _poly._cells.clear()
    dimension_table(MAX_WEIGHT, MAX_DEGREE)
    assert len(_poly._cells) == 833


def divided(vectors):
    """(integer numerators, denominator) vectors as Fraction vectors."""
    return [[F(n, den) for n in vec] for vec, den in vectors]


def test_rational_kernel():
    # columns[i] is the image (numerators {equation: integer}, denominator) of unknown i
    def kernel(columns):
        return LinearSolver.of_columns(columns).integer_kernel()

    assert kernel([({}, 1), ({0: 0, 1: 0}, 1)]) == [([1, 0], 1), ([0, 1], 1)]
    assert kernel([({0: 1}, 1), ({1: 1}, 1)]) == []
    assert kernel([({0: 1}, 1), ({0: -1}, 1)]) == [([1, 1], 1)]
    # rank 2 in 4 unknowns: one vector per free column (2 and 3), with a 1
    # there and the pivot entries read off the reduced row-echelon form of
    # the rows [1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 1, 1/2], [1, 3, 4, 9/2]
    columns = [
        ({0: 1, 1: 2, 3: 1}, 1),
        ({0: 2, 1: 4, 2: 1, 3: 3}, 1),
        ({0: 3, 1: 6, 2: 1, 3: 4}, 1),
        ({0: 8, 1: 16, 2: 1, 3: 9}, 2),
    ]
    assert divided(kernel(columns)) == [[-1, -1, 1, 0], [-3, F(-1, 2), 0, 1]]
    # equations past full rank are never read: the last-sorted key is not a number
    assert kernel([({0: 1, 2: "not a number"}, 1), ({1: 1}, 1)]) == []
    # nor scaled: None times the column's scale would raise
    assert kernel([({0: 1, 2: None}, 1), ({1: 1}, 1)]) == []


def test_columns_match_the_full_frame_change_images():
    # the core shortcut against the monomial's own image, on every cell of
    # k <= 48, m <= 16
    for k in range(0, 49, 2):
        for m in range(0, 17, 2):
            for mono in monomials_of(k, m):
                image = ab_to_cd(CurvePolyAB.monomial(mono)).terms
                num, den = negative_c0_part(mono)
                assert den > 0 and all(type(n) is int for n in num.values())
                part = {e: F(n, den) for e, n in num.items()}
                assert part == {e: c for e, c in image.items() if e[0] < 0}, mono


def test_only_cores_are_sent_through_the_frame_change(monkeypatch):
    seen = []

    def recording(p):
        seen.extend(p.terms)
        return ab_to_cd(p)

    monkeypatch.setattr(sw_curve, "ab_to_cd", recording)
    sw_curve._core_image.cache_clear()
    dimension_table(48, 16)
    assert sw_curve._core_image.cache_info().currsize == 72
    assert len(seen) == len(set(seen)) == 72
    assert all(e[0] == e[2] == 0 for e in seen)


def test_cli_caps_bound_the_kept_cores():
    # every cell the CLI can ask for lies in weight <= 96, degree <= 32
    _poly._cells.clear()
    cores = {
        (0, e[1], 0) + e[3:]
        for k in range(MAX_WEIGHT + 1)
        for m in range(MAX_DEGREE + 1)
        for e in monomials_of(k, m)
    }
    assert len(cores) == 556
    # and each of them keeps one cell of monomials, built from cells below it
    assert len(_poly._cells) == (MAX_WEIGHT + 1) * (MAX_DEGREE + 1)


def test_basis_weight12():
    basis = triality_basis(12, 2)
    assert basis.dimension == 1
    assert basis.basis[0] == CurvePolyAB({(1, 0, 0, 1, 0, 0): 1})
    basis0 = triality_basis(12, 0)
    assert basis0.dimension == 2
    assert triality_basis(10, 4).dimension == 0


def test_basis_elements_are_echelon_normalized():
    basis = triality_basis(24, 6)
    assert basis.dimension == 3
    monos = list(basis.monomials)
    # each element has unit coefficient at its own echelon position, and that
    # position is zero in every other element
    lead_positions = []
    for p in basis.basis:
        ones = [m for m in monos if p.terms.get(m, 0) == 1]
        assert ones
        lead_positions.append(ones[0])
    for i, p in enumerate(basis.basis):
        for j, lead in enumerate(lead_positions):
            if i != j:
                assert p.terms.get(lead, 0) == 0


def test_basis_membership_and_classification(order):
    # forward direction of the intersection theorem on every enumerated
    # element in the acceptance range
    for k in range(0, 25, 2):
        for m in range(0, 9, 2):
            basis = triality_basis(k, m)
            for p in basis.basis:
                assert is_triality_invariant(p)
                value = evaluate_ab(p, order)
                assert value.classify() == INVARIANT


def test_basis_elements_have_klmn_representations(order):
    for k in (12, 14, 16, 20, 24):
        for m in (0, 2, 4, 6):
            for p in triality_basis(k, m).basis:
                express_in_klmn(evaluate_ab(p, order))  # must not raise


def test_dimension_table_even_zero_structure():
    table = dimension_table(16, 4)
    for (k, m), dim in table.items():
        if k < 3 * m:
            assert dim == 0
    assert table[(12, 2)] == 1
    assert table[(12, 0)] == 2


def test_odd_gradings_are_empty():
    # generator weights and degrees are all even, so odd cells cannot occur
    assert triality_basis(13, 2).dimension == 0
    assert triality_basis(12, 3).dimension == 0
    assert monomials_of(13, 2) == []


def test_rank_series():
    rs = rank_series(12)
    assert rs[0] == 1
    assert rs[2] == 1
    assert rs[4] == 3
    assert rs[6] == 4
    assert all(rs[m] == 0 for m in (1, 3, 5, 7, 9, 11))


def test_counting_builds_no_kernel(monkeypatch):
    # a count reads the solver's rank; only a read of `basis` builds kernel vectors
    oracle_cells = [(k, m) for k in range(0, K_MAX + 1, 2) for m in range(0, M_MAX + 1, 2)]
    table = dimension_table(72, 24)
    oracle = [oracle_dimension(k, m) for k, m in oracle_cells]

    def refuse(self):
        raise AssertionError("a count built a kernel")

    with monkeypatch.context() as patch:
        patch.setattr(LinearSolver, "integer_kernel", refuse)
        assert dimension_table(72, 24) == table
        assert [oracle_dimension(k, m) for k, m in oracle_cells] == oracle
    assert len(table) == 481
    for (k, m), dim in table.items():
        cell = triality_basis(k, m)
        assert cell.dimension == len(cell.basis) == dim, (k, m)


def test_oracle_cross_validation_sample():
    # spot version of the central theorem check, one basis per cell (the
    # full range runs in `verify isomorphism`)
    for k, m in ((12, 2), (16, 4), (20, 6), (24, 8), (18, 6)):
        assert triality_basis(k, m).dimension == oracle_dimension(k, m), (k, m)
