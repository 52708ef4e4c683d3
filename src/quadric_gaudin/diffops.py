"""Second-order rotation operators and their commutation relations.

X_ij = x_i d_j - x_j d_i generates the rotation in the (i, j) plane, the
standard so(N) basis acting on polynomials; Omega_ij = X_ij^2 and

    Delta_i = sum_{j != i} Omega_ij / (mu_i - mu_j)

is the Gaudin-type second-order operator.  Everything in this module is
exact; there is no float path.  The verification drivers apply commutators
to exhaustive monomial bases and demand the zero polynomial.

Useful exact identities (all checked by the test suite):

    Delta_i q        = 0                      (termwise, X_ij q = 0)
    Delta_i (f q)    = Delta_i(f) q           (same reason)
    Delta_i q1       = -2N x_i^2 + 2 q        (so -2N x_i^2 modulo q)
    Delta_i (f q1)   = Delta_i(f) q1 - (4d + 2N) x_i^2 f   (mod q, f homog. of degree d)

and the twist at which the descent remainder cancels is k = -(N-4)/2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .multipoly import MultiPoly, quadric, reduce_mod_quadrics, weighted_quadric
from .phase import Pencil, PhasePoint
from .scalars import GaussianRational, ONE, gr


class PolyOperator:
    """Composable endomorphism of the polynomial space."""

    __slots__ = ("nvars", "fn", "name")

    def __init__(self, nvars: int, fn, name: str = "op"):
        self.nvars = nvars
        self.fn = fn
        self.name = name

    def __call__(self, f: MultiPoly) -> MultiPoly:
        return self.fn(f)

    def __matmul__(self, other: "PolyOperator") -> "PolyOperator":
        return PolyOperator(
            self.nvars, lambda f: self(other(f)), f"({self.name}@{other.name})"
        )

    def __add__(self, other: "PolyOperator") -> "PolyOperator":
        return PolyOperator(
            self.nvars, lambda f: self(f) + other(f), f"({self.name}+{other.name})"
        )

    def __sub__(self, other: "PolyOperator") -> "PolyOperator":
        return PolyOperator(
            self.nvars, lambda f: self(f) - other(f), f"({self.name}-{other.name})"
        )

    def scale(self, c) -> PolyOperator:
        return PolyOperator(self.nvars, lambda f: self(f).scale(c), f"{c}*{self.name}")

    def commutator(self, other: "PolyOperator") -> "PolyOperator":
        return PolyOperator(
            self.nvars,
            lambda f: self(other(f)) - other(self(f)),
            f"[{self.name},{other.name}]",
        )


def apply_X(i: int, j: int, f: MultiPoly) -> MultiPoly:
    """x_i df/dx_j - x_j df/dx_i, exact."""
    if i == j:
        raise ValueError("rotation needs two distinct indices")
    n = f.nvars
    ei = [0] * n
    ei[i] = 1
    ej = [0] * n
    ej[j] = 1
    return f.diff(j).mul_monomial(tuple(ei)) - f.diff(i).mul_monomial(tuple(ej))


def X(nvars: int, i: int, j: int) -> PolyOperator:
    return PolyOperator(nvars, lambda f: apply_X(i, j, f), f"X{i}{j}")


def Omega(nvars: int, i: int, j: int) -> PolyOperator:
    return PolyOperator(
        nvars, lambda f: apply_X(i, j, apply_X(i, j, f)), f"Om{i}{j}"
    )


def apply_Delta(i: int, f: MultiPoly, pencil: Pencil) -> MultiPoly:
    """sum_{j != i} X_ij(X_ij(f)) / (mu_i - mu_j), exact."""
    mu = pencil.mu
    out = MultiPoly.zero(f.nvars)
    for j in range(pencil.N):
        if j == i:
            continue
        out = out + apply_X(i, j, apply_X(i, j, f)).scale(ONE / (mu[i] - mu[j]))
    return out


def Delta(pencil: Pencil, i: int) -> PolyOperator:
    return PolyOperator(
        pencil.N, lambda f: apply_Delta(i, f, pencil), f"Delta{i}"
    )


def euler(nvars: int) -> PolyOperator:
    def fn(f: MultiPoly) -> MultiPoly:
        out = MultiPoly.zero(nvars)
        for i in range(nvars):
            e = [0] * nvars
            e[i] = 1
            out = out + f.diff(i).mul_monomial(tuple(e))
        return out

    return PolyOperator(nvars, fn, "E")


def monomials_up_to(nvars: int, dmax: int):
    """All monomials of total degree <= dmax, deterministic order."""
    for d in range(dmax + 1):
        for combo in itertools.combinations_with_replacement(range(nvars), d):
            e = [0] * nvars
            for i in combo:
                e[i] += 1
            yield MultiPoly.monomial(nvars, tuple(e))


@dataclass
class RelationReport:
    """Outcome of one relation family over an exhaustive monomial basis."""

    name: str
    cases_checked: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, label: str, value: MultiPoly) -> None:
        self.cases_checked += 1
        if not value.is_zero():
            self.failures.append(label)

    @property
    def first_counterexample(self):
        return self.failures[0] if self.failures else None


def default_dmax(N: int) -> int:
    """Exhaustive bases stay tractable: degree 3 through N = 6, 2 through N = 8."""
    return 3 if N <= 6 else 2


def verify_kohno_drinfeld(N: int, dmax: int | None = None) -> list[RelationReport]:
    """[Omega_ij, Omega_kl] = 0 (disjoint), [Omega_ij, Omega_ik + Omega_jk] = 0,
    the Casimir variant, and the frozen so(3) bracket [X_ij, X_ik] = -X_jk."""
    if N < 4:
        raise ValueError("the four-distinct-index relation needs N >= 4")
    if dmax is None:
        dmax = default_dmax(N)
    basis = list(monomials_up_to(N, dmax))

    disjoint = RelationReport("[Om_ij, Om_kl] = 0 for disjoint pairs")
    for (i, j), (k, l) in itertools.combinations(
        itertools.combinations(range(N), 2), 2
    ):
        if {i, j} & {k, l}:
            continue
        comm = Omega(N, i, j).commutator(Omega(N, k, l))
        for m in basis:
            disjoint.check(f"[Om{i}{j},Om{k}{l}] on {m!r}", comm(m))

    shared = RelationReport("[Om_ij, Om_ik + Om_jk] = 0")
    casimir = RelationReport("[Om_ij, Om_ij + Om_ik + Om_jk] = 0")
    for i, j, k in itertools.combinations(range(N), 3):
        oij, oik, ojk = Omega(N, i, j), Omega(N, i, k), Omega(N, j, k)
        comm = oij.commutator(oik + ojk)
        cas = oij.commutator(oij + oik + ojk)
        for m in basis:
            shared.check(f"[Om{i}{j},Om{i}{k}+Om{j}{k}] on {m!r}", comm(m))
            casimir.check(f"Casimir ({i},{j},{k}) on {m!r}", cas(m))

    so3 = RelationReport("[X_ij, X_ik] = -X_jk")
    for i, j, k in itertools.combinations(range(N), 3):
        lhs = X(N, i, j).commutator(X(N, i, k))
        for m in basis:
            so3.check(
                f"so(3) ({i},{j},{k}) on {m!r}", lhs(m) + apply_X(j, k, m)
            )
    return [disjoint, shared, casimir, so3]


def verify_commutation(
    N: int, pencil: Pencil, dmax: int | None = None
) -> RelationReport:
    """[Delta_i, Delta_j] = 0 on every monomial of degree <= dmax.

    This is an identity on all polynomials, not only modulo the quadrics.
    """
    if pencil.N != N:
        raise ValueError("pencil size mismatch")
    if dmax is None:
        dmax = default_dmax(N)
    report = RelationReport("[Delta_i, Delta_j] = 0")
    basis = list(monomials_up_to(N, dmax))
    deltas = [Delta(pencil, i) for i in range(N)]
    for i, j in itertools.combinations(range(N), 2):
        comm = deltas[i].commutator(deltas[j])
        for m in basis:
            report.check(f"[Delta{i},Delta{j}] on {m!r}", comm(m))
    return report


def verify_descent(i: int, f: MultiPoly, pencil: Pencil) -> RelationReport:
    """Descent through q1 for homogeneous f of degree d:

    Delta_i(f q1) - Delta_i(f) q1 + (4d + 2N) x_i^2 f in ideal(q),
    and Delta_i(f q) = Delta_i(f) q exactly.
    """
    if not f.is_homogeneous():
        raise ValueError("descent check needs homogeneous f")
    N = pencil.N
    report = RelationReport(f"descent through q1 at i={i}")
    d = max(f.total_degree(), 0)
    q = quadric(N)
    q1 = weighted_quadric(pencil.mu)
    lhs = apply_Delta(i, f * q1, pencil)
    sqi = [0] * N
    sqi[i] = 2
    correction = f.mul_monomial(tuple(sqi), gr(4 * d + 2 * N))
    remainder = lhs - apply_Delta(i, f, pencil) * q1 + correction
    report.check(
        f"q1-descent remainder mod q (d={d})",
        reduce_mod_quadrics(remainder, pencil, mode="q-only"),
    )
    report.check(
        f"Delta_i(f q) = Delta_i(f) q (d={d})",
        apply_Delta(i, f * q, pencil) - apply_Delta(i, f, pencil) * q,
    )
    return report


def verify_descent_suite(
    N: int, pencil: Pencil, dmax: int | None = None
) -> RelationReport:
    """Descent identities over all monomials of degree <= dmax and all i."""
    if dmax is None:
        dmax = default_dmax(N) - 1
    report = RelationReport("descent suite")
    for i in range(N):
        for m in monomials_up_to(N, dmax):
            sub = verify_descent(i, m, pencil)
            report.cases_checked += sub.cases_checked
            report.failures.extend(sub.failures)
    return report


def verify_delta_q1(pencil: Pencil) -> RelationReport:
    """Delta_i q1 = -2N x_i^2 + 2q exactly; so -2N x_i^2 modulo q."""
    N = pencil.N
    report = RelationReport("Delta_i q1 = -2N x_i^2 (mod q)")
    q = quadric(N)
    q1 = weighted_quadric(pencil.mu)
    for i in range(N):
        sqi = [0] * N
        sqi[i] = 2
        got = apply_Delta(i, q1, pencil)
        exact_form = got + MultiPoly.monomial(N, tuple(sqi), gr(2 * N)) - q.scale(gr(2))
        report.check(f"exact form at i={i}", exact_form)
        report.check(
            f"mod-q form at i={i}",
            reduce_mod_quadrics(
                got + MultiPoly.monomial(N, tuple(sqi), gr(2 * N)), pencil, mode="q-only"
            ),
        )
    return report


def verify_symbol_pairing(pencil: Pencil, dmax: int | None = None) -> RelationReport:
    """The symbol of Delta_i contracted with dq1 dies on the intersection:

    -4 sum_{j != i} x_i x_j X_ij + 4 x_i^2 E = 4 q x_i d_i exactly,
    hence 0 modulo q (E is the Euler operator).  dmax defaults to 2.
    """
    N = pencil.N
    report = RelationReport("symbol of Delta_i against dq1")
    q = quadric(N)
    E = euler(N)
    for i in range(N):
        ei = [0] * N
        ei[i] = 1

        def op(f, i=i, ei=tuple(ei)):
            acc = MultiPoly.zero(N)
            for j in range(N):
                if j == i:
                    continue
                ej = [0] * N
                ej[j] = 1
                term = apply_X(i, j, f).mul_monomial(tuple(ej)).mul_monomial(ei)
                acc = acc - term.scale(gr(4))
            sqi = [0] * N
            sqi[i] = 2
            return acc + E(f).mul_monomial(tuple(sqi), gr(4))

        for m in monomials_up_to(N, 2 if dmax is None else dmax):
            got = op(m)
            exact_form = got - (q * m.diff(i).mul_monomial(tuple(ei))).scale(gr(4))
            report.check(f"exact form i={i} on {m!r}", exact_form)
            report.check(
                f"mod q i={i} on {m!r}",
                reduce_mod_quadrics(got, pencil, mode="q-only"),
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
