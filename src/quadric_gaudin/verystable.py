"""Very-stable / wobbly classification with constructive nilpotent witnesses.

A constrained x is very stable exactly when its auxiliary polynomial p has
distinct roots on all of P^1, infinity included with multiplicity
n - deg p.  All multiplicity decisions here are exact: repeated finite
roots come from resultants and squarefree factorization, never from float
clustering (wobbliness is a measure-zero condition floats cannot certify).
:func:`classify` computes p, its squarefree factorization and the divisor
once per point; the :class:`StabilityVerdict` carries them, and the witness
construction and the degenerate recursion read the verdict instead of
classifying again.

Witness construction is root-free.  Writing b_y(z) = sum_i y_i x_i
prod_{j != i} (z - mu_j), a covector y annihilates every separated
Hamiltonian iff b_y vanishes to order ceil(m/2) at each finite root of
multiplicity m and deg b_y <= n - ceil(m_inf/2); those are linear
conditions expressible through exact polynomial remainders by the
squarefree factors of p.  Order counting on b^2 + ac = -p_D h shows every
solution forces h = 0, so each kernel vector outside the gauge line
span(x) is a nilpotent witness; the construction is still re-verified
exactly before anything is returned.

Points with zero coordinates (indices Z) recurse on the reduced pencil,
and witnesses embed back by zero padding.  When the reduced point is very
stable but x is not, p = P_Z p_red has double roots at the deleted marked
points mu_j, j in J = {j in Z : p_red(mu_j) = 0}; the infinity multiplicity
is the same on both pencils.  For i not in Z put u_i = x_i/(mu_j - mu_i),
sigma_j = sum u_i^2 = -p_red'(mu_j)/p_D^red(mu_j), nonzero, and
lambda_j(y) = sum u_i y_i.  With c = P_Z c_red and b = P_Z b_red, comparing
orders in b^2 + ac = 0 forces y_k = 0 for k in Z outside J, and evaluating
h(a) = -p_D(a) lambda(a)^2 at mu_j forces y_j^2 = -lambda_j(y)^2/sigma_j.
On the relaxed kernel (the witness system without its roots at marked
points) lambda is injective modulo the gauge line, since the reduced point
is very stable.  As -1 is a square in Q(i), a witness with Gaussian-rational
coordinates exists iff some sigma_k is a square: the rows u_j (j in J, j !=
k) and e_j (j in Z) then leave a kernel vector y off the gauge line, and
y_k = i lambda_k(y)/sqrt(sigma_k) completes it.  Otherwise the sigma_j are
reported as radicands.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional

from .linalg import Matrix, rank_kernel
from .phase import Pencil, PhasePoint
from .scalars import I, ONE, ZERO, as_complex, dot, is_exact
from .sov import auxiliary_poly, exact_divisor
from .unipoly import Polynomial, resultant, squarefree_factorization


VERY_STABLE = "very_stable"
WOBBLY = "wobbly"
DEGENERATE = "degenerate"


@dataclass(frozen=True)
class StabilityVerdict:
    """Classification of x over a pencil, with the divisor data it rests on.

    ``p`` is the auxiliary polynomial and ``factors`` its squarefree
    factorization ((a_k, k), ...); ``finite_roots`` and
    ``infinity_multiplicity`` are the divisor of p on P^1.  A Degenerate
    verdict also carries the verdict of x on the reduced pencil.
    """

    x: tuple
    pencil: Pencil
    p: Polynomial
    factors: tuple
    finite_roots: tuple  # ((float root, exact multiplicity), ...)
    infinity_multiplicity: int
    zero_indices: tuple = ()
    reduced: Optional["StabilityVerdict"] = None

    def points(self) -> list:
        """The divisor as n points of P^1, with "inf" for infinity."""
        out = [r for r, m in self.finite_roots for _ in range(m)]
        return out + ["inf"] * self.infinity_multiplicity

    @property
    def distinct(self) -> bool:
        """The full divisor of p, infinity included, has distinct points."""
        return all(m == 1 for _, m in self.finite_roots) and self.infinity_multiplicity <= 1

    @property
    def resolved_tag(self) -> str:
        """The verdict with Degenerate chains resolved by the full divisor."""
        return VERY_STABLE if self.distinct else WOBBLY

    @property
    def tag(self) -> str:
        return DEGENERATE if self.zero_indices else self.resolved_tag

    @property
    def reduced_mu(self) -> tuple:
        return self.reduced.pencil.mu if self.reduced else ()

    def chain(self) -> list[str]:
        out = [self.tag]
        v = self
        while v.reduced is not None:
            v = v.reduced
            out.append(v.tag)
        return out


def classify(x, pencil: Pencil) -> StabilityVerdict:
    """Exact classification of a constrained x by its auxiliary divisor.

    A root of p at a marked point mu_j forces x_j = 0; such points are
    tagged Degenerate and recursively classified on the reduced pencil.
    The resolved verdict always follows the full divisor of p (including
    infinity): distinct roots everywhere means very stable.
    """
    if not is_exact(x[0]):
        raise ValueError("classification requires exact coordinates")
    if not any(x):
        raise ValueError("x must be nonzero")
    p = auxiliary_poly(x, pencil)
    factors = tuple(squarefree_factorization(p))
    finite, inf_mult = exact_divisor(p, pencil.n, factors=factors)
    zeros = tuple(i for i, v in enumerate(x) if not v)
    reduced = None
    if zeros:
        keep = [i for i in range(pencil.N) if i not in zeros]
        red_pencil = Pencil([pencil.mu[i] for i in keep], allow_small=True)
        reduced = classify([x[i] for i in keep], red_pencil)
    elif p.degree >= 1:
        # resultant cross-check: repeated finite root iff res(p, p') = 0
        rep_by_res = not resultant(p, p.derivative())
        if rep_by_res != any(m > 1 for _, m in finite):
            raise AssertionError("resultant and squarefree factorization disagree")
    return StabilityVerdict(
        x=tuple(x),
        pencil=pencil,
        p=p,
        factors=factors,
        finite_roots=finite,
        infinity_multiplicity=inf_mult,
        zero_indices=zeros,
        reduced=reduced,
    )


# -- the exact witness system -------------------------------------------------


def witness_system(x, pencil: Pencil) -> Matrix:
    """Linear conditions on y cutting out the nilpotent covectors over x.

    Rows: the two covector constraints, the remainder of b_y modulo
    s = prod a_k^ceil(k/2) (squarefree factors a_k of p), and the top
    ceil(m_inf/2) coefficients of b_y beyond the forced degree bound.
    Requires all x_i != 0 (reduce first otherwise).
    """
    if not all(x):
        raise ValueError("witness system needs all x_i != 0; reduce first")
    return Matrix(_witness_rows(classify(x, pencil), strip_marked=False))


def _witness_rows(verdict: StabilityVerdict, strip_marked: bool) -> list[list]:
    """Rows of the witness system; strip_marked drops the roots of p at marked
    points, the relaxed system of a double root at a deleted marked point.
    A zero x_i gives a zero column, whose zero polynomial reads as the int 0."""
    x, pencil = verdict.x, verdict.pencil
    cols = [L.scale(xi) for xi, L in zip(x, pencil.lagrange_numerators())]
    rows = [list(x), [m * v for m, v in zip(pencil.mu, x)]]
    s = Polynomial([ONE])
    for factor, k in verdict.factors:
        if strip_marked:
            for m in pencil.mu:
                lin = Polynomial.identity_shift(m)
                while (factor % lin).is_zero():
                    factor = factor.exact_div(lin)
        for _ in range((k + 1) // 2):
            s = s * factor
    if s.degree >= 1:
        rems = [c % s for c in cols]
        rows.extend([r.coeff(d) for r in rems] for d in range(s.degree))
    top = (verdict.infinity_multiplicity + 1) // 2
    rows.extend([c.coeff(pencil.n - t) for c in cols] for t in range(top))
    return rows


def is_gauge_trivial(x, y) -> bool:
    """y proportional to x, i.e. the represented covector is zero."""
    return all(
        x[i] * y[j] == x[j] * y[i] for i, j in itertools.combinations(range(len(x)), 2)
    )


@dataclass(frozen=True)
class WitnessResult:
    """``kernel_dim`` is -1 at a double root on a deleted marked point, where
    the nilpotent covectors form no linear space.  ``radicands`` are the
    sigma_j there when none is a square, so no witness is Gaussian rational."""

    witness: Optional[tuple]
    kernel_dim: int
    kernel_is_gauge_line: bool
    verdict: StabilityVerdict
    radicands: tuple = ()


def nilpotent_witness(x, pencil: Pencil) -> WitnessResult:
    """Constructive dichotomy between the wobbly and very stable cases.

    Wobbly x: returns y with both exact certificates (all Hamiltonians zero
    and b^2 + ac identically zero) verified before returning, y not in
    span(x).  Very stable x: returns no witness and certifies that the
    witness-system kernel is exactly the gauge line span(x).  A double root
    at a deleted marked point with no square sigma_j has no witness with
    Gaussian-rational coordinates: the result then carries no witness and
    lists the sigma_j as ``radicands``.  The result carries the verdict of x
    that it was built from.
    """
    return _witness(classify(x, pencil))


def _witness(verdict: StabilityVerdict) -> WitnessResult:
    if verdict.tag == DEGENERATE:
        return _witness_degenerate(verdict)
    x, pencil = verdict.x, verdict.pencil
    _, basis = rank_kernel(Matrix(_witness_rows(verdict, strip_marked=False)))
    if not basis:
        raise AssertionError("witness system lost the gauge direction")
    if verdict.tag == VERY_STABLE:
        if len(basis) != 1 or not is_gauge_trivial(x, basis[0]):
            raise AssertionError("very stable point with kernel exceeding span(x)")
        return WitnessResult(
            witness=None, kernel_dim=1, kernel_is_gauge_line=True, verdict=verdict
        )
    return WitnessResult(
        witness=_verified_nilpotent(x, _off_gauge(x, basis), pencil),
        kernel_dim=len(basis), kernel_is_gauge_line=False, verdict=verdict,
    )


def _off_gauge(x, basis) -> list:
    """The first kernel basis vector off the gauge line; an RREF basis has at
    most one vector on it."""
    for b in basis:
        if not is_gauge_trivial(x, b):
            return list(b)
    raise AssertionError("witness kernel lies on the gauge line")


def _verified_nilpotent(x, y, pencil: Pencil) -> tuple:
    """y, once all Hamiltonians vanish and b^2 + ac == 0 exactly at (x, y)."""
    from .higgs import hamiltonians, hecke_transform, is_nilpotent

    point = PhasePoint(pencil, x, y)
    if any(hamiltonians(point)) or not is_nilpotent(hecke_transform(point)):
        raise AssertionError("witness failed its exact re-verification")
    return tuple(y)


def _witness_degenerate(verdict: StabilityVerdict) -> WitnessResult:
    x, pencil = verdict.x, verdict.pencil
    red = _witness(verdict.reduced)
    if red.witness is not None:
        y = _zero_pad(red.witness, verdict.zero_indices, pencil.N)
        return WitnessResult(
            witness=_verified_nilpotent(x, y, pencil), kernel_dim=red.kernel_dim,
            kernel_is_gauge_line=False, verdict=verdict,
        )
    if verdict.resolved_tag == VERY_STABLE:
        return WitnessResult(
            witness=None,
            kernel_dim=red.kernel_dim,
            kernel_is_gauge_line=red.kernel_is_gauge_line,
            verdict=verdict,
        )
    # double roots at deleted marked points: the closed form of the module docstring
    zeros, mu = verdict.zero_indices, pencil.mu
    J = [j for j in zeros if not verdict.reduced.p(mu[j])]
    if not J:
        raise AssertionError("wobbly reduction without a root at a deleted marked point")
    us = [[ZERO if i in zeros else x[i] / (mu[j] - mu[i]) for i in range(pencil.N)] for j in J]
    sigmas = [dot(u, u) for u in us]
    roots = [s.sqrt() for s in sigmas]
    k = next((t for t, r in enumerate(roots) if r is not None), None)
    if k is None:
        return WitnessResult(
            witness=None, kernel_dim=-1, kernel_is_gauge_line=False, verdict=verdict,
            radicands=tuple(sigmas),
        )
    rows = _witness_rows(verdict, strip_marked=True)
    rows.extend(u for t, u in enumerate(us) if t != k)
    rows.extend([ONE if i == j else ZERO for i in range(pencil.N)] for j in zeros)
    y = _off_gauge(x, rank_kernel(Matrix(rows))[1])
    y[J[k]] = I * dot(us[k], y) / roots[k]
    return WitnessResult(
        witness=_verified_nilpotent(x, y, pencil), kernel_dim=-1,
        kernel_is_gauge_line=False, verdict=verdict,
    )


def _zero_pad(y_red, zero_indices, N: int):
    out = []
    it = iter(y_red)
    for i in range(N):
        out.append(ZERO if i in zero_indices else next(it))
    return out


# -- properness probe ----------------------------------------------------------


@dataclass(frozen=True)
class PropernessReport:
    radii: tuple
    min_abs_lambda: tuple  # per radius, min over rays and roots
    growth_exponent: float


def properness_probe(
    x, pencil: Pencil, radii=(1.0, 10.0, 100.0), samples: int = 5, seed: int = 0
) -> PropernessReport:
    """Empirical check that |lambda| grows linearly along covector rays.

    For very stable x the separated map dominates a linear isomorphism, so
    min_k |lambda_k| should scale like R along generic rays (expected
    growth exponent 1).  Along a nilpotent witness ray the lambdas vanish
    identically for every R.
    """
    import math

    from .sov import eigenvalues, separate

    xf = [as_complex(v) for v in x]
    pf = pencil.to_float()
    muf = pf.mu
    constraints = Matrix([xf, [m * v for m, v in zip(muf, xf)]])
    _, basis = rank_kernel(constraints, tol=1e-12)
    rng = random.Random(seed)
    zero_pt = PhasePoint(pf, xf, [0j] * pencil.N, check=False)
    sep = separate(zero_pt)
    simple = [r for r, m in sep.finite_roots if m == 1]
    rays = []
    for _ in range(samples):
        coeffs = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in basis]
        ray = [sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(pencil.N)]
        norm = max(abs(v) for v in ray)
        rays.append([v / norm for v in ray])

    def smallest(R, ray):
        pt = PhasePoint(pf, xf, [R * v for v in ray], check=False)
        return min((abs(as_complex(l)) for l in eigenvalues(pt, simple)), default=0.0)

    mins = [min((smallest(R, ray) for ray in rays), default=0.0) for R in radii]
    if len(radii) >= 2 and mins[0] > 0 and mins[-1] > 0:
        expo = (math.log(mins[-1]) - math.log(mins[0])) / (
            math.log(radii[-1]) - math.log(radii[0])
        )
    else:
        expo = float("nan")
    return PropernessReport(
        radii=tuple(radii), min_abs_lambda=tuple(mins), growth_exponent=expo
    )
