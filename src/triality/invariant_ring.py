"""The bigraded ring of (weak) D4 triality invariants.

The ring is written over two sets of four generators, and `SeriesPoly`
is the one polynomial type for both: a finite sum of generator monomials
whose coefficients are exact q-series on the (1/24)Z lattice, together
with its declared modular weight and its polynomial degree in the
z-variables.  Weight is metadata fixed at the construction sites (the
named modular series know their weights) and propagated additively by
arithmetic; degree is checked against the generator degrees on
construction.

`Invariant` is the element over the Weyl generators I2, I4, I6, I~4
(degrees 2, 4, 6, 4).  The module provides its exponent-shift injection,
which converts the cusp condition into plain q-regularity, the resulting
three-way classification (invariant / weak only / neither), and the sign
involution realizing the tau -> tau + 1 action on the half-integer
lattice.  `KLMNPoly` is the element over the four fundamental weak
invariants K, L, M, N, which generate freely over the level-1 forms E4, E6
(Wirthmueller); `express_in_klmn` rewrites an invariant in them exactly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from ._poly import ring_det, substitute
from .exact_series import LATTICE, FracSeries, e_series, eisenstein
from .linalg import LinearSolver
from .weyl_poly import I_DEGREES, IPoly

INVARIANT = "invariant"
WEAK_ONLY = "weak_only"
NOT_WEAK = "not_weak"

ONE_EXPS = (0, 0, 0, 0)

KLMN_WEIGHTS = (0, 2, 4, 0)
KLMN_DEGREES = (2, 4, 4, 6)


class GradingError(ValueError):
    """Mismatched weight/degree in invariant arithmetic."""


class UnsupportedLatticeError(ValueError):
    """The sign involution needs all t-exponents divisible by 12."""


class HasPoleError(ValueError):
    """The injected series has negative q-powers."""


class NoRepresentationError(ValueError):
    """No polynomial in K, L, M, N over E4, E6 matches within the window."""


class AmbiguousRepresentationError(ValueError):
    """The window-restricted rewriting solve has a nontrivial kernel."""


class SeriesPoly:
    """Polynomial in four graded generators with q-series coefficients.

    Subclasses fix the generator names, their formal weights and degrees,
    and the JSON kind.  The declared (weight, degree) of the whole value
    splits per monomial into the coefficient weight plus the formal ones.
    Values of different subclasses never mix.
    """

    NAMES = ()
    WEIGHTS = (0, 0, 0, 0)
    DEGREES = ()
    KIND = ""

    def __init__(self, terms, weight, degree):
        self.weight = int(weight)
        self.degree = int(degree)
        clean = {}
        for exps, series in terms.items():
            exps = tuple(int(e) for e in exps)
            if series.is_zero:
                continue
            mono_degree = sum(d * e for d, e in zip(self.DEGREES, exps))
            if mono_degree != self.degree:
                raise GradingError(
                    f"monomial {exps} has degree {mono_degree}, declared {self.degree}"
                )
            clean[exps] = series
        self.terms = clean

    @classmethod
    def _new(cls, terms, weight, degree):
        """Arithmetic results: drop zero series, skip the degree check."""
        value = cls.__new__(cls)
        value.weight = weight
        value.degree = degree
        value.terms = {e: s for e, s in terms.items() if not s.is_zero}
        return value

    @classmethod
    def zero(cls, weight=0, degree=0):
        return cls._new({}, weight, degree)

    @classmethod
    def one(cls, trunc):
        """The unit, with its series known below t^trunc."""
        return cls._new({ONE_EXPS: FracSeries.constant(1, trunc)}, 0, 0)

    # -- structure -------------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def common_trunc(self):
        return min((s.trunc for s in self.terms.values()), default=None)

    def coefficient(self, exps):
        """Coefficient series of a generator monomial (None if absent)."""
        return self.terms.get(tuple(exps))

    def coefficient_weight(self, exps):
        return self.weight - sum(w * e for w, e in zip(self.WEIGHTS, exps))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        zero = FracSeries.zero
        for exps in self.terms.keys() | other.terms.keys():
            a = self.terms.get(exps)
            b = other.terms.get(exps)
            if a is None:
                a = zero(b.trunc)
            if b is None:
                b = zero(a.trunc)
            if a != b:
                return False
        return True

    __hash__ = None

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if (self.weight, self.degree) != (other.weight, other.degree):
            raise GradingError(
                f"cannot add ({self.weight},{self.degree}) and ({other.weight},{other.degree})"
            )
        terms = dict(self.terms)
        for exps, series in other.terms.items():
            cur = terms.get(exps)
            terms[exps] = series if cur is None else cur + series
        return self._new(terms, self.weight, self.degree)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._new({e: -s for e, s in self.terms.items()}, self.weight, self.degree)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._new(
                {e: s * other for e, s in self.terms.items()}, self.weight, self.degree
            )
        if type(other) is not type(self):
            return NotImplemented
        terms = {}
        for e1, s1 in self.terms.items():
            for e2, s2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                prod = s1 * s2
                cur = terms.get(e)
                terms[e] = prod if cur is None else cur + prod
        return self._new(terms, self.weight + other.weight, self.degree + other.degree)

    __rmul__ = __mul__

    def scale_series(self, series, series_weight):
        """Multiply by a degree-0 modular series of known weight."""
        return self._new(
            {e: s * series for e, s in self.terms.items()},
            self.weight + series_weight,
            self.degree,
        )

    def __pow__(self, n):
        if not isinstance(n, int):
            raise ValueError("powers must be integers")
        if n < 0:
            # only a degree-0 value with a single series coefficient is a unit
            if self.degree or set(self.terms) != {ONE_EXPS}:
                raise ValueError("negative power of a value that is not a single series")
            inverse = self.terms[ONE_EXPS].inverse()
            return self._new({ONE_EXPS: inverse}, -self.weight, 0) ** -n
        if n == 0:
            return self.one(self.common_trunc() or LATTICE)
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def truncate(self, trunc):
        return self._new(
            {e: s.truncate(trunc) for e, s in self.terms.items()}, self.weight, self.degree
        )

    def derivative(self, i):
        """Formal partial with respect to the i-th generator."""
        terms = {}
        for exps, series in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            new = list(exps)
            new[i] = e - 1
            key = tuple(new)
            add = series * e
            cur = terms.get(key)
            terms[key] = add if cur is None else cur + add
        return self._new(terms, self.weight - self.WEIGHTS[i], self.degree - self.DEGREES[i])

    # -- output ---------------------------------------------------------------

    def _sorted_monomials(self):
        return sorted(self.terms, key=lambda e: (sum(e), e), reverse=True)

    def to_json(self):
        return {
            "kind": self.KIND,
            "grading": {"weight": self.weight, "degree": self.degree},
            "exponent_lattice": LATTICE,
            "trunc": self.common_trunc(),
            "terms": [
                [list(exps), self.terms[exps].to_json()["terms"]]
                for exps in self._sorted_monomials()
            ],
        }

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps in self._sorted_monomials():
            mono = "*".join(
                n + (f"^{e}" if e > 1 else "") for n, e in zip(self.NAMES, exps) if e
            )
            parts.append(f"({self.terms[exps]})" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)

    def __repr__(self):
        return f"{type(self).__name__}({self!s}, weight={self.weight}, degree={self.degree})"


class Invariant(SeriesPoly):
    """Element of the Weyl-generator ring with q-series coefficients."""

    NAMES = ("I2", "I4", "I6", "I~4")
    DEGREES = I_DEGREES
    KIND = "invariant"

    # bound here too, so this class's own __dict__ holds its multiply for tracers
    __mul__ = __rmul__ = SeriesPoly.__mul__

    @classmethod
    def from_series(cls, series, weight):
        return cls({ONE_EXPS: series}, weight, 0)

    @classmethod
    def from_ipoly_series(cls, ipoly, series, weight):
        """ipoly (homogeneous) times a single series of the given weight."""
        degree = ipoly.invariant_degree()
        return cls({e: series * c for e, c in ipoly.terms.items()}, weight, degree)

    # -- the injection and classification -----------------------------------

    def _shift_of(self, exps):
        a, b, c, d = exps
        return LATTICE * (a + b + c) + (LATTICE // 2) * d

    def inject(self):
        """Substitute generators by themselves over q^-1 (I~4 over q^-1/2).

        The coefficient of the monomial (a, b, c, d) is shifted by
        t^-(24a+24b+24c+12d); the grading is unchanged.
        """
        return self._new(
            {e: s.shift(-self._shift_of(e)) for e, s in self.terms.items()},
            self.weight,
            self.degree,
        )

    def classify(self):
        """invariant / weak_only / not_weak, relative to the truncation window.

        The value is an invariant iff the injected form is a power series in
        integer powers of q; it is weak iff the raw expansion sits on the
        nonnegative q^(1/2) lattice with integer powers on the even part in
        I~4 and half-odd-integer powers on the odd part.  Nonzero values of
        negative or odd weight are never (weak) invariants.
        """
        if self.terms and (self.weight < 0 or self.weight % 2):
            return NOT_WEAK
        is_invariant = True
        is_weak = True
        for exps, series in self.terms.items():
            shift = self._shift_of(exps)
            parity = (LATTICE // 2) * (exps[3] % 2)
            for e in series.terms:
                if e - shift < 0 or (e - shift) % LATTICE:
                    is_invariant = False
                if e < 0 or e % LATTICE != parity:
                    is_weak = False
        if is_invariant:
            return INVARIANT
        return WEAK_ONLY if is_weak else NOT_WEAK

    def t_action(self):
        """Flip the signs of q^(1/2) and I~4 simultaneously.

        Only defined on the half-integer lattice (t-exponents divisible
        by 12); a ring involution there.
        """
        half = LATTICE // 2
        terms = {}
        for exps, series in self.terms.items():
            d = exps[3]
            flipped = {}
            for e, c in series.terms.items():
                if e % half:
                    raise UnsupportedLatticeError(
                        f"t-exponent {e} is not a multiple of {half}"
                    )
                flipped[e] = -c if (e // half + d) % 2 else c
            terms[exps] = FracSeries(flipped, series.trunc)
        return self._new(terms, self.weight, self.degree)

    def leading_ipoly(self):
        """The q^0 coefficient of the injected form, as an IPoly."""
        coeffs = {}
        for exps, series in self.terms.items():
            shifted = series.shift(-self._shift_of(exps))
            if shifted.valuation < 0:
                raise HasPoleError(f"injected coefficient of {exps} has a pole")
            c = shifted.terms.get(0)
            if c:
                coeffs[exps] = c
        return IPoly(coeffs)


# -- the fundamental weak invariants -------------------------------------------

# building blocks of degree 4: T1 + T2 + T3 = 0
T_POLYS = (
    IPoly({(0, 1, 0, 0): Fraction(1, 6), (2, 0, 0, 0): Fraction(-1, 24)}),
    IPoly({(0, 1, 0, 0): Fraction(-1, 12), (0, 0, 0, 1): Fraction(-1, 2), (2, 0, 0, 0): Fraction(1, 48)}),
    IPoly({(0, 1, 0, 0): Fraction(-1, 12), (0, 0, 0, 1): Fraction(1, 2), (2, 0, 0, 0): Fraction(1, 48)}),
)


@lru_cache(maxsize=None)
def klmn(order):
    """The four fundamental weak invariants K, L, M, N at the given order.

    K = I2,  L = sum e_i T_i,  M = 12 sum e_i^2 T_i,
    N = I6/4 - I2 I4/24 + I2^3/96;
    gradings (weight, degree) = (0,2), (2,4), (4,4), (0,6).
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    trunc = LATTICE * order
    one = FracSeries.constant(1, trunc)
    es = [e_series(i, order) for i in (1, 2, 3)]
    K = Invariant({(1, 0, 0, 0): one}, 0, 2)
    L = Invariant.zero(2, 4)
    M = Invariant.zero(4, 4)
    for e, t in zip(es, T_POLYS):
        L = L + Invariant.from_ipoly_series(t, e, 2)
        M = M + Invariant.from_ipoly_series(t, e * e, 4)
    M = M * 12
    N = Invariant.from_ipoly_series(
        IPoly({(0, 0, 1, 0): Fraction(1, 4), (1, 1, 0, 0): Fraction(-1, 24), (3, 0, 0, 0): Fraction(1, 96)}),
        one,
        0,
    )
    return K, L, M, N


def klmn_generator_jacobian(order):
    """det of the partials of (K, L, M, N) by (I2, I4, I6, I~4), as a series.

    A degree-0, weight-6 invariant; equals -eta^12/16.
    """
    gens = klmn(order)
    rows = [[g.derivative(j) for j in range(4)] for g in gens]
    det = ring_det(rows)
    extra = [e for e in det.terms if e != (0, 0, 0, 0)]
    if extra:
        raise AssertionError(f"generator jacobian is not degree 0: {extra}")
    series = det.terms.get((0, 0, 0, 0))
    return series if series is not None else FracSeries.zero(LATTICE * order)


# -- polynomials in formal K, L, M, N -------------------------------------------


class KLMNPoly(SeriesPoly):
    """Polynomial in formal K, L, M, N with q-series coefficients.

    Formal weights (0, 2, 4, 0) and degrees (2, 4, 4, 6).
    """

    NAMES = ("K", "L", "M", "N")
    WEIGHTS = KLMN_WEIGHTS
    DEGREES = KLMN_DEGREES
    KIND = "klmn_poly"

    # bound here too, so this class's own __dict__ holds its multiply for tracers
    __mul__ = __rmul__ = SeriesPoly.__mul__

    def constant_series(self):
        """The coefficient of the empty monomial; raises if others are present."""
        extra = [e for e in self.terms if any(e)]
        if extra:
            raise ValueError(f"not a constant: contains {extra}")
        return self.terms.get(ONE_EXPS)

    def evaluate(self, order):
        """Substitute the actual K, L, M, N invariants at the given order."""
        one = Invariant.one(LATTICE * order)
        result = Invariant.zero(self.weight, self.degree)
        for exps, series, value in substitute(self.terms, klmn(order), one):
            result = result + value.scale_series(series, self.coefficient_weight(exps))
        return result


def _klmn_candidates(weight, degree):
    """All (alpha, beta, a, b, c, d) with E4^alpha E6^beta K^a L^b M^c N^d
    of the given weight and degree, in deterministic order."""
    out = []
    for d in range(degree // 6 + 1):
        for c in range((degree - 6 * d) // 4 + 1):
            for b in range((degree - 6 * d - 4 * c) // 4 + 1):
                rest = degree - 6 * d - 4 * c - 4 * b
                if rest % 2:
                    continue
                a = rest // 2
                w = weight - 2 * b - 4 * c
                if w < 0:
                    continue
                for beta in range(w // 6 + 1):
                    if (w - 6 * beta) % 4 == 0:
                        out.append(((w - 6 * beta) // 4, beta, a, b, c, d))
    out.sort()
    return out


def express_in_klmn(phi, order=None):
    """Rewrite an invariant as a polynomial in K, L, M, N over E4, E6.

    Solves the exact linear system over all monomials of matching weight
    and degree; raises NoRepresentationError when inconsistent within the
    window and AmbiguousRepresentationError if the solve has a nontrivial
    kernel (not expected: K, L, M, N are independent over the level-1 ring).
    """
    trunc = phi.common_trunc()
    if order is None:
        if trunc is None:
            return KLMNPoly.zero(phi.weight, phi.degree)
        order = trunc // LATTICE
    elif trunc is not None:
        # never read equations beyond the window phi actually knows
        order = min(order, trunc // LATTICE)
    candidates = _klmn_candidates(phi.weight, phi.degree)
    if not candidates:
        if phi.is_zero:
            return KLMNPoly.zero(phi.weight, phi.degree)
        raise NoRepresentationError("no candidate monomials at this grading")

    window = LATTICE * order
    # the value of every distinct K,L,M,N part and E4,E6 part of a candidate
    klmn_keys = dict.fromkeys(cand[2:] for cand in candidates)
    klmn_values = {
        key: v for key, _, v in substitute(klmn_keys, klmn(order), Invariant.one(window))
    }
    eis_keys = dict.fromkeys(cand[:2] for cand in candidates)
    e4_e6 = (eisenstein(4, order), eisenstein(6, order))
    eis_values = {
        key: v for key, _, v in substitute(eis_keys, e4_e6, FracSeries.constant(1, window))
    }
    cand_parts = [(eis_values[cand[:2]], klmn_values[cand[2:]]) for cand in candidates]

    def entry(mod_series, inv, mono, e):
        # coefficient of t^e in mod_series * inv.terms[mono], by convolution
        s = inv.terms.get(mono)
        if s is None:
            return Fraction(0)
        total = Fraction(0)
        for j, c in mod_series.terms.items():
            v = s.terms.get(e - j)
            if v:
                total += c * v
        return total

    # stream equations (one per generator monomial and t-exponent) until the
    # solution is pinned down, then verify the full window exactly
    monomials = set(phi.terms)
    for inv in klmn_values.values():
        monomials.update(inv.terms)
    solver = LinearSolver(len(candidates))
    done = False
    for mono in sorted(monomials, key=lambda e: (sum(e), e)):
        target = phi.terms.get(mono)
        # every series involved lives on the half-integer lattice (12 | e);
        # off-lattice target terms are caught by the final verification
        for e in range(0, window, LATTICE // 2):
            row = [entry(ms, inv, mono, e) for ms, inv in cand_parts]
            if not any(row) and (target is None or not target.terms.get(e)):
                continue
            rhs = target.terms.get(e, Fraction(0)) if target is not None else Fraction(0)
            solver.add(row, rhs)
            if solver.inconsistent:
                raise NoRepresentationError("inconsistent system within the window")
            if solver.rank == len(candidates):
                done = True
                break
        if done:
            break

    if not done:
        raise AmbiguousRepresentationError(
            f"solve has a {len(candidates) - solver.rank}-dimensional kernel within the window"
        )

    grouped = {}
    for x, cand in zip(solver.solution(), candidates):
        if x:
            key = cand[2:]
            add = eis_values[cand[:2]] * x
            cur = grouped.get(key)
            grouped[key] = add if cur is None else cur + add
    rep = KLMNPoly(grouped, phi.weight, phi.degree)

    # exact verification over the whole window, from the monomial values above
    recon = Invariant.zero(phi.weight, phi.degree)
    for key, series in rep.terms.items():
        recon = recon + klmn_values[key].scale_series(series, rep.coefficient_weight(key))
    if not recon == phi:
        raise NoRepresentationError("no representation matches the full window")
    return rep
