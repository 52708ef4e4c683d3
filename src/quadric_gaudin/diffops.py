"""Second-order rotation operators and their commutation relations.

X_ij = x_i d_j - x_j d_i generates the rotation in the (i, j) plane, the
standard so(N) basis acting on polynomials; Omega_ij = X_ij^2 and

    Delta_i = sum_{j != i} Omega_ij / (mu_i - mu_j)

is the Gaudin-type second-order operator.  Everything in this module is
exact; there is no float path.  The verification drivers apply the
relations to exhaustive monomial bases and demand exact equality.

Operators act on sparse vectors: dicts from exponent tuples to exact
scalars, worked on by the sparse-vector kernel of ``multipoly``
(``_apply``, ``_combine``, ``_shift``); this module defines none of its
own.  The one operator it builds from scratch is the column of X_ij at a
monomial x^e, at most two integer entries (``_x_column``).  Every X_ij
preserves degree, so on each degree block Omega_ij and Delta_i are sparse
matrices; a suite builds their columns from those of X_ij once, on first
use, and keeps them for that call only (``_Operators``).  A relation is
then checked one basis monomial at a time as one sparse column, e.g.
``[Delta_i, Delta_j] e`` as ``Delta_i(Delta_j[e]) == Delta_j(Delta_i[e])``.
``apply_X`` and ``apply_Delta`` apply the same columns to a ``MultiPoly``
by linearity.

The suites that involve the pencil clear denominators once per pencil:
mu is scaled by the common denominator L of its entries, and Delta_i by
prod_{k != i} (mu_i - mu_k), so Delta_i has the Gaussian-integer weights
prod_{k != i, j} (mu_i - mu_k) and no division is left.  This is exact:
every identity checked is homogeneous in mu and linear in each Delta_i
(the descent correction (4d + 2N) x_i^2 f is scaled by the same factor),
so the scaled identity vanishes exactly when the original one does.

Useful exact identities (all checked by the test suite):

    Delta_i q        = 0                      (termwise, X_ij q = 0)
    Delta_i (f q)    = Delta_i(f) q           (same reason)
    Delta_i q1       = -2N x_i^2 + 2 q        (so -2N x_i^2 modulo q)
    Delta_i (f q1)   = Delta_i(f) q1 - (4d + 2N) x_i^2 f   (mod q, f homog. of degree d)

and the twist at which the descent remainder cancels is k = -(N-4)/2.

Degree bounds.  The Weyl algebra acts faithfully on polynomials: applied
to the x^b in order of |b|, an operator sum_b c_b(x) d^b of order <= k
recovers each c_b in turn, so it is zero iff it kills every monomial of
degree <= k (S. C. Coutinho, A Primer of Algebraic D-modules, 1995).
The commutator of two order-2 operators has order <= 3, so degree
COMMUTATOR_DEGREE = 3 proves the Kohno-Drinfeld relations and
[Delta_i, Delta_j] = 0.  [Delta_i, q], the descent map
f -> Delta_i(f q1) - Delta_i(f) q1 + x_i^2 (4E + 2N) f and the symbol
pairing have order <= 1, and an order-1 operator a_0 + sum_k a_k d_k maps
into (q) iff it maps 1 and each x_k there (their images are a_0 and
a_0 x_k + a_k): FIRST_ORDER_DEGREE = 1 proves them.  Both bounds hold for
every N.  A suite run below its bound is a partial check, and its
report says so (``RelationReport.complete``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .multipoly import MultiPoly, _apply, _combine, _shift, reduce_mod_quadrics
from .phase import Pencil, PhasePoint
from .scalars import GaussianRational, ONE, gr

COMMUTATOR_DEGREE = 3
FIRST_ORDER_DEGREE = 1


# -- the columns of X_ij on the monomial basis -------------------------------


def _x_column(i: int, j: int, e: tuple) -> dict:
    """X_ij x^e = e_j x^(e + 1_i - 1_j) - e_i x^(e - 1_i + 1_j), as a sparse vector."""
    out = {}
    if e[j]:
        g = list(e)
        g[i] += 1
        g[j] -= 1
        out[tuple(g)] = e[j]
    if e[i]:
        g = list(e)
        g[i] -= 1
        g[j] += 1
        out[tuple(g)] = -e[i]
    return out


def _square(N: int, i: int) -> tuple:
    e = [0] * N
    e[i] = 2
    return tuple(e)


def _times_squares(vec: dict, coeffs) -> dict:
    """vec times sum_k coeffs[k] x_k^2 (q for unit coefficients, q1 for mu)."""
    N = len(coeffs)
    return _combine((c, _shift(vec, _square(N, k))) for k, c in enumerate(coeffs))


class _Columns(dict):
    """The columns of one operator, each built on first use."""

    __slots__ = ("column",)

    def __init__(self, column):
        super().__init__()
        self.column = column

    def __missing__(self, e):
        col = self[e] = self.column(e)
        return col


def _sum(*ops) -> _Columns:
    return _Columns(lambda e: _combine((1, op[e]) for op in ops))


class _Operators:
    """Column tables of X_ij, Omega_ij and Delta_i for one call.

    ``weights[i]`` maps j to the weight of Omega_ij in Delta_i.  Since
    X_ij preserves degree, the tables fill one degree block at a time;
    nothing outlives the call that made the instance.
    """

    def __init__(self, weights=None):
        self.weights = weights
        self._tables: dict = {}

    def _table(self, key, column) -> _Columns:
        t = self._tables.get(key)
        if t is None:
            t = self._tables[key] = _Columns(column)
        return t

    def X(self, i: int, j: int) -> _Columns:
        return self._table(("X", i, j), lambda e: _x_column(i, j, e))

    def omega(self, i: int, j: int) -> _Columns:
        if i > j:  # X_ji = -X_ij, so Omega_ji = Omega_ij
            i, j = j, i
        x = self.X(i, j)
        return self._table(("Omega", i, j), lambda e: _apply(x, x[e]))

    def delta(self, i: int) -> _Columns:
        terms = [(w, self.omega(i, j)) for j, w in self.weights[i].items()]
        return self._table(("Delta", i), lambda e: _combine((w, om[e]) for w, om in terms))


def _cleared(pencil: Pencil):
    """The weights of Delta_i scaled by prod_{k != i} (mu_i - mu_k), with mu
    scaled by its common denominator; returns (weights, mu, scales)."""
    N = pencil.N
    L = math.lcm(*(x.denominator for m in pencil.mu for x in (m.re, m.im)))
    mu = [m * L for m in pencil.mu]
    diff = [[mu[i] - mu[k] for k in range(N)] for i in range(N)]
    weights = [
        {j: math.prod((diff[i][k] for k in range(N) if k not in (i, j)), start=ONE)
         for j in range(N) if j != i}
        for i in range(N)
    ]
    scales = [math.prod((diff[i][k] for k in range(N) if k != i), start=ONE) for i in range(N)]
    return weights, mu, scales


def apply_X(i: int, j: int, f: MultiPoly) -> MultiPoly:
    """x_i df/dx_j - x_j df/dx_i, exact."""
    if i == j:
        raise ValueError("rotation needs two distinct indices")
    return MultiPoly(f.nvars, _apply(_Operators().X(i, j), f.terms))


def apply_Delta(i: int, f: MultiPoly, pencil: Pencil) -> MultiPoly:
    """sum_{j != i} X_ij(X_ij(f)) / (mu_i - mu_j), exact."""
    mu = pencil.mu
    weights = {i: {j: ONE / (mu[i] - mu[j]) for j in range(pencil.N) if j != i}}
    return MultiPoly(f.nvars, _apply(_Operators(weights).delta(i), f.terms))


def _exponents(nvars: int, dmax: int) -> list:
    """Exponent tuples of total degree <= dmax, degree by degree."""
    out = []
    for d in range(dmax + 1):
        for combo in itertools.combinations_with_replacement(range(nvars), d):
            e = [0] * nvars
            for i in combo:
                e[i] += 1
            out.append(tuple(e))
    return out


def monomials_up_to(nvars: int, dmax: int):
    """All monomials of total degree <= dmax, deterministic order."""
    for e in _exponents(nvars, dmax):
        yield MultiPoly.monomial(nvars, e)


def _show(e: tuple) -> str:
    return repr(MultiPoly.monomial(len(e), e))


@dataclass
class RelationReport:
    """Outcome of one relation family over an exhaustive monomial basis."""

    name: str
    cases_checked: int = 0
    failures: list = field(default_factory=list)
    #: the basis reached the relation's degree bound, so passing is a proof
    complete: bool = False

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, ok: bool, label) -> None:
        """Count one case; a failed one records label(), which is built only then."""
        self.cases_checked += 1
        if not ok:
            self.failures.append(label())

    @property
    def first_counterexample(self):
        return self.failures[0] if self.failures else None


def _commutes(a, b, e: tuple) -> bool:
    """[A, B] x^e = 0, for operators given by their columns."""
    return _apply(a, b[e]) == _apply(b, a[e])


def verify_kohno_drinfeld(N: int, dmax: int | None = None) -> list[RelationReport]:
    """[Omega_ij, Omega_kl] = 0 (disjoint), [Omega_ij, Omega_ik + Omega_jk] = 0,
    the Casimir variant, and the frozen so(3) bracket [X_ij, X_ik] = -X_jk."""
    if N < 4:
        raise ValueError("the four-distinct-index relation needs N >= 4")
    dmax = COMMUTATOR_DEGREE if dmax is None else dmax
    complete = dmax >= COMMUTATOR_DEGREE
    basis = _exponents(N, dmax)
    ops = _Operators()

    disjoint = RelationReport("[Om_ij, Om_kl] = 0 for disjoint pairs", complete=complete)
    for (i, j), (k, l) in itertools.combinations(
        itertools.combinations(range(N), 2), 2
    ):
        if {i, j} & {k, l}:
            continue
        a, b = ops.omega(i, j), ops.omega(k, l)
        for e in basis:
            disjoint.check(_commutes(a, b, e), lambda: f"[Om{i}{j},Om{k}{l}] on {_show(e)}")

    shared = RelationReport("[Om_ij, Om_ik + Om_jk] = 0", complete=complete)
    casimir = RelationReport("[Om_ij, Om_ij + Om_ik + Om_jk] = 0", complete=complete)
    for i, j, k in itertools.combinations(range(N), 3):
        oij = ops.omega(i, j)
        pair = _sum(ops.omega(i, k), ops.omega(j, k))
        total = _sum(oij, pair)
        for e in basis:
            shared.check(
                _commutes(oij, pair, e), lambda: f"[Om{i}{j},Om{i}{k}+Om{j}{k}] on {_show(e)}"
            )
            casimir.check(_commutes(oij, total, e), lambda: f"Casimir ({i},{j},{k}) on {_show(e)}")

    so3 = RelationReport("[X_ij, X_ik] = -X_jk", complete=complete)
    for i, j, k in itertools.combinations(range(N), 3):
        xij, xik, xjk = ops.X(i, j), ops.X(i, k), ops.X(j, k)
        for e in basis:
            lhs = _combine(((1, _apply(xij, xik[e])), (1, xjk[e])))
            so3.check(lhs == _apply(xik, xij[e]), lambda: f"so(3) ({i},{j},{k}) on {_show(e)}")
    return [disjoint, shared, casimir, so3]


def verify_commutation(
    N: int, pencil: Pencil, dmax: int | None = None
) -> RelationReport:
    """[Delta_i, Delta_j] = 0 on every monomial of degree <= dmax (COMMUTATOR_DEGREE if None).

    This is an identity on all polynomials, not only modulo the quadrics.
    The Delta_i are scaled to clear denominators (see the module docstring).
    """
    if pencil.N != N:
        raise ValueError("pencil size mismatch")
    dmax = COMMUTATOR_DEGREE if dmax is None else dmax
    report = RelationReport("[Delta_i, Delta_j] = 0", complete=dmax >= COMMUTATOR_DEGREE)
    basis = _exponents(N, dmax)
    ops = _Operators(_cleared(pencil)[0])
    for i, j in itertools.combinations(range(N), 2):
        a, b = ops.delta(i), ops.delta(j)
        for e in basis:
            report.check(_commutes(a, b, e), lambda: f"[Delta{i},Delta{j}] on {_show(e)}")
    return report


def _check_descent(report, pencil: Pencil, cleared, i: int, cases) -> None:
    """The two descent cases at i for each (f, d) in cases, f a homogeneous
    sparse vector of degree d, with Delta_i and the correction scaled alike
    (see the module docstring)."""
    weights, mu, scales = cleared
    N = len(mu)
    # the columns reached at one i are few and used about twice each, so
    # they are kept only while i is checked
    delta = _Operators(weights).delta(i)
    ones = [1] * N
    for f, d in cases:
        df = _apply(delta, f)
        remainder = _combine((
            (1, _apply(delta, _times_squares(f, mu))),
            (-1, _times_squares(df, mu)),
            (scales[i] * (4 * d + 2 * N), _shift(f, _square(N, i))),
        ))
        report.check(
            reduce_mod_quadrics(MultiPoly(N, remainder), pencil, mode="q-only").is_zero(),
            lambda: f"q1-descent remainder mod q (d={d})",
        )
        report.check(
            _apply(delta, _times_squares(f, ones)) == _times_squares(df, ones),
            lambda: f"Delta_i(f q) = Delta_i(f) q (d={d})",
        )


def verify_descent(i: int, f: MultiPoly, pencil: Pencil) -> RelationReport:
    """Descent through q1 for homogeneous f of degree d:

    Delta_i(f q1) - Delta_i(f) q1 + (4d + 2N) x_i^2 f in ideal(q),
    and Delta_i(f q) = Delta_i(f) q exactly.
    """
    if not f.is_homogeneous():
        raise ValueError("descent check needs homogeneous f")
    report = RelationReport(f"descent through q1 at i={i}")
    _check_descent(report, pencil, _cleared(pencil), i, [(f.terms, max(f.total_degree(), 0))])
    return report


def verify_descent_suite(
    N: int, pencil: Pencil, dmax: int | None = None
) -> RelationReport:
    """Descent identities for all i on monomials of degree <= dmax (FIRST_ORDER_DEGREE if None)."""
    dmax = FIRST_ORDER_DEGREE if dmax is None else dmax
    report = RelationReport("descent suite", complete=dmax >= FIRST_ORDER_DEGREE)
    cleared = _cleared(pencil)
    cases = [({e: 1}, sum(e)) for e in _exponents(N, dmax)]
    for i in range(N):
        _check_descent(report, pencil, cleared, i, cases)
    return report


def verify_delta_q1(pencil: Pencil) -> RelationReport:
    """Delta_i q1 = -2N x_i^2 + 2q exactly; so -2N x_i^2 modulo q."""
    N = pencil.N
    report = RelationReport("Delta_i q1 = -2N x_i^2 (mod q)", complete=True)
    weights, mu, scales = _cleared(pencil)
    ops = _Operators(weights)
    one = {(0,) * N: 1}
    q, q1 = _times_squares(one, [1] * N), _times_squares(one, mu)
    for i in range(N):
        got = _apply(ops.delta(i), q1)
        sqi = {_square(N, i): 1}
        report.check(
            got == _combine(((2 * scales[i], q), (-2 * N * scales[i], sqi))),
            lambda: f"exact form at i={i}",
        )
        mod_q = _combine(((1, got), (2 * N * scales[i], sqi)))
        report.check(
            reduce_mod_quadrics(MultiPoly(N, mod_q), pencil, mode="q-only").is_zero(),
            lambda: f"mod-q form at i={i}",
        )
    return report


def verify_symbol_pairing(pencil: Pencil, dmax: int | None = None) -> RelationReport:
    """The symbol of Delta_i contracted with dq1 dies on the intersection:

    -4 sum_{j != i} x_i x_j X_ij + 4 x_i^2 E = 4 q x_i d_i exactly,
    hence 0 modulo q (E is the Euler operator), checked on every monomial
    of degree <= dmax (default FIRST_ORDER_DEGREE).
    """
    N = pencil.N
    dmax = FIRST_ORDER_DEGREE if dmax is None else dmax
    report = RelationReport("symbol of Delta_i against dq1", complete=dmax >= FIRST_ORDER_DEGREE)
    ops = _Operators()
    ones = [1] * N
    basis = _exponents(N, dmax)
    for i in range(N):
        pairs = []
        for j in range(N):
            if j != i:
                s = [0] * N
                s[i] += 1
                s[j] += 1
                pairs.append((ops.X(i, j), tuple(s)))
        for e in basis:
            # E x^e = deg(e) x^e and x_i d_i x^e = e_i x^e
            got = _combine(
                [(-4, _shift(x[e], s)) for x, s in pairs]
                + [(4 * sum(e), _shift({e: 1}, _square(N, i)))]
            )
            report.check(
                got == _times_squares({e: 4 * e[i]}, ones), lambda: f"exact form i={i} on {_show(e)}"
            )
            report.check(
                reduce_mod_quadrics(MultiPoly(N, got), pencil, mode="q-only").is_zero(),
                lambda: f"mod q i={i} on {_show(e)}",
            )
    return report


def symbol_quadratic_form(i: int, point: PhasePoint) -> GaussianRational:
    """Evaluate the symbol of Delta_i on the covector y via operator algebra.

    Delta_i(u^2) - 2u Delta_i(u) = 2 sum_{j != i} (X_ij u)^2 / (mu_i - mu_j)
    for u = sum_l y_l x_l; evaluated at the point's x this is 2 f_i, matching
    the Hamiltonian from the Higgs side exactly.
    """
    if not point.exact:
        raise ValueError("symbol evaluation is exact-only")
    N = point.pencil.N
    u = MultiPoly(
        N,
        {
            tuple(1 if k == l else 0 for k in range(N)): point.y[l]
            for l in range(N)
            if point.y[l]
        },
    )
    lhs = apply_Delta(i, u * u, point.pencil) - (
        u * apply_Delta(i, u, point.pencil)
    ).scale(gr(2))
    value = lhs.evaluate(point.x)
    return value / gr(2)


@dataclass(frozen=True)
class TwistReport:
    N: int
    k: Fraction
    integral: bool
    remainder_coefficient_is_zero: bool


def canonical_twist(N: int) -> TwistReport:
    """k = -(N-4)/2, the twist killing the descent remainder -4(k-2) - 2N.

    For odd N the twist is a half-integer and is flagged; the descent
    identity itself is verified for general integer degrees instead.
    """
    k = Fraction(-(N - 4), 2)
    remainder = -4 * (k - 2) - 2 * N
    return TwistReport(
        N=N,
        k=k,
        integral=(k.denominator == 1),
        remainder_coefficient_is_zero=(remainder == 0),
    )
