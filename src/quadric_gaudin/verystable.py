"""Very-stable / wobbly classification with constructive nilpotent witnesses.

A constrained x is very stable exactly when its auxiliary polynomial p has
distinct roots on all of P^1, infinity included with multiplicity
n - deg p.  All multiplicity decisions here are exact: repeated finite
roots come from resultants and squarefree factorization, never from float
clustering (wobbliness is a measure-zero condition floats cannot certify).

Witness construction is root-free.  Writing b_y(z) = sum_i y_i x_i
prod_{j != i} (z - mu_j), a covector y annihilates every separated
Hamiltonian iff b_y vanishes to order ceil(m/2) at each finite root of
multiplicity m and deg b_y <= n - ceil(m_inf/2); those are linear
conditions expressible through exact polynomial remainders by the
squarefree factors of p.  Order counting on b^2 + ac = -p_D h shows every
solution forces h = 0, so each kernel vector outside the gauge line
span(x) is a nilpotent witness; the construction is still re-verified
exactly before anything is returned.

Points with zero coordinates recurse on the reduced pencil (dropping the
vanishing coordinates) and witnesses embed back by zero padding.  The one
genuinely delicate corner is a repeated root sitting AT a deleted marked
point: the linear theory degenerates there, so the witness search falls
back to enumerating small exact combinations over a relaxed kernel.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional

from .linalg import Matrix, rank_kernel
from .phase import Pencil, PhasePoint
from .scalars import ZERO, ONE, gr, as_complex, is_exact
from .sov import auxiliary_poly, exact_divisor
from .unipoly import Polynomial, resultant, squarefree_factorization


class WitnessSearchError(RuntimeError):
    """The last-resort witness search found no exact witness in its range."""


VERY_STABLE = "very_stable"
WOBBLY = "wobbly"
DEGENERATE = "degenerate"


@dataclass(frozen=True)
class StabilityVerdict:
    """Classification outcome with the full root divisor and reduction chain."""

    tag: str
    finite_roots: tuple  # ((float root, exact multiplicity), ...)
    infinity_multiplicity: int
    zero_indices: tuple = ()
    reduced_mu: tuple = ()
    reduced_x: tuple = ()
    reduced: Optional["StabilityVerdict"] = None

    @property
    def resolved_tag(self) -> str:
        """The verdict with Degenerate chains resolved to their endpoint."""
        if self.tag != DEGENERATE:
            return self.tag
        return self._full_divisor_tag()

    def _full_divisor_tag(self) -> str:
        if any(m > 1 for _, m in self.finite_roots) or self.infinity_multiplicity > 1:
            return WOBBLY
        return VERY_STABLE

    @property
    def is_very_stable(self) -> bool:
        return self.resolved_tag == VERY_STABLE

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
    finite, inf_mult = exact_divisor(p, pencil.n)
    zeros = tuple(i for i, v in enumerate(x) if not v)
    if zeros:
        keep = [i for i in range(pencil.N) if i not in zeros]
        red_mu = tuple(pencil.mu[i] for i in keep)
        red_x = tuple(x[i] for i in keep)
        red_pencil = Pencil(red_mu, allow_small=True)
        reduced = classify(list(red_x), red_pencil)
        return StabilityVerdict(
            tag=DEGENERATE,
            finite_roots=finite,
            infinity_multiplicity=inf_mult,
            zero_indices=zeros,
            reduced_mu=red_mu,
            reduced_x=red_x,
            reduced=reduced,
        )
    # resultant cross-check: repeated finite root iff res(p, p') = 0
    if p.degree >= 1:
        rep_by_res = not resultant(p, p.derivative())
        rep_by_sqf = any(m > 1 for _, m in finite)
        if rep_by_res != rep_by_sqf:
            raise AssertionError("resultant and squarefree factorization disagree")
    wobbly = any(m > 1 for _, m in finite) or inf_mult > 1
    return StabilityVerdict(
        tag=WOBBLY if wobbly else VERY_STABLE,
        finite_roots=finite,
        infinity_multiplicity=inf_mult,
    )


@dataclass(frozen=True)
class DivisorImage:
    """Image of x in the n-fold symmetric product of P^1."""

    finite: tuple  # ((root, multiplicity), ...)
    infinity_multiplicity: int

    def points(self):
        out = []
        for r, m in self.finite:
            out.extend([r] * m)
        out.extend(["inf"] * self.infinity_multiplicity)
        return out

    @property
    def distinct(self) -> bool:
        return all(m == 1 for _, m in self.finite) and self.infinity_multiplicity <= 1


def symmetric_product_image(x, pencil: Pencil) -> DivisorImage:
    """The divisor of p, infinity included; distinct iff x is very stable."""
    finite, inf_mult = exact_divisor(auxiliary_poly(x, pencil), pencil.n)
    return DivisorImage(finite=finite, infinity_multiplicity=inf_mult)


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
    return Matrix(_witness_rows(x, pencil, strip_marked=False))


def _witness_rows(x, pencil: Pencil, strip_marked: bool) -> list[list]:
    """Rows of the witness system; strip_marked drops the roots of p at marked
    points, the relaxed system of the marked-double-root search."""
    n = pencil.n
    p = auxiliary_poly(x, pencil)
    cols = [L.scale(xi) for xi, L in zip(x, pencil.lagrange_numerators())]
    rows = [list(x), [m * v for m, v in zip(pencil.mu, x)]]
    s = Polynomial([ONE])
    for factor, k in squarefree_factorization(p):
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
    inf_mult = n - p.degree
    rows.extend([c.coeff(n - t) for c in cols] for t in range((inf_mult + 1) // 2))
    return rows


def is_gauge_trivial(x, y) -> bool:
    """y proportional to x, i.e. the represented covector is zero."""
    return all(
        x[i] * y[j] == x[j] * y[i] for i, j in itertools.combinations(range(len(x)), 2)
    )


@dataclass(frozen=True)
class WitnessResult:
    witness: Optional[tuple]
    kernel_dim: int
    kernel_is_gauge_line: bool


def nilpotent_witness(x, pencil: Pencil) -> WitnessResult:
    """Constructive dichotomy between the wobbly and very stable cases.

    Wobbly x: returns y with both exact certificates (all Hamiltonians zero
    and b^2 + ac identically zero) verified before returning, y not in
    span(x).  Very stable x: returns no witness and certifies that the
    witness-system kernel is exactly the gauge line span(x).
    """
    verdict = classify(x, pencil)
    if verdict.tag == DEGENERATE:
        return _witness_degenerate(x, pencil, verdict)
    kernel_dim, basis = _witness_kernel(x, pencil)
    if verdict.tag == VERY_STABLE:
        if kernel_dim != 1 or not is_gauge_trivial(x, basis[0]):
            raise AssertionError("very stable point with kernel exceeding span(x)")
        return WitnessResult(witness=None, kernel_dim=1, kernel_is_gauge_line=True)
    for y in _witness_candidates(x, basis):
        if _verified_nilpotent(x, y, pencil):
            return WitnessResult(
                witness=tuple(y), kernel_dim=kernel_dim, kernel_is_gauge_line=False
            )
    raise AssertionError("wobbly point but no kernel vector verified nilpotent")


def _witness_kernel(x, pencil: Pencil):
    m = witness_system(x, pencil)
    rank, basis = rank_kernel(m)
    if not basis:
        raise AssertionError("witness system lost the gauge direction")
    return len(basis), basis


def _witness_candidates(x, basis):
    # basis vectors first, then small combinations steering off the gauge line
    for b in basis:
        if not is_gauge_trivial(x, b):
            yield b
    if len(basis) >= 2:
        for b1, b2 in itertools.combinations(basis, 2):
            for t in (ONE, -ONE, gr(2), gr(0, 1)):
                cand = [a + t * c for a, c in zip(b1, b2)]
                if not is_gauge_trivial(x, cand):
                    yield cand


def _verified_nilpotent(x, y, pencil: Pencil) -> bool:
    from .higgs import hamiltonians, hecke_transform, is_nilpotent

    point = PhasePoint(pencil, x, y)
    if any(hamiltonians(point)):
        return False
    return is_nilpotent(hecke_transform(point))


def _witness_degenerate(x, pencil: Pencil, verdict: StabilityVerdict) -> WitnessResult:
    red_pencil = Pencil(verdict.reduced_mu, allow_small=True)
    red = nilpotent_witness(list(verdict.reduced_x), red_pencil)
    if red.witness is not None:
        y = _zero_pad(red.witness, verdict.zero_indices, pencil.N)
        if not _verified_nilpotent(x, y, pencil):
            raise AssertionError("zero-padded witness failed re-verification")
        return WitnessResult(
            witness=tuple(y), kernel_dim=red.kernel_dim, kernel_is_gauge_line=False
        )
    if verdict.resolved_tag == VERY_STABLE:
        return WitnessResult(
            witness=None,
            kernel_dim=red.kernel_dim,
            kernel_is_gauge_line=red.kernel_is_gauge_line,
        )
    # repeated root at a deleted marked point: the reduced problem looks very
    # stable but the full divisor is not.  Search small exact combinations
    # over the relaxed kernel (conditions only at roots off the marked set).
    y = _marked_multiple_root_witness(x, pencil)
    if y is None:
        raise WitnessSearchError(
            "wobbly via a repeated root at a deleted marked point; no witness "
            "with Gaussian-rational coordinates found in the search range"
        )
    return WitnessResult(witness=tuple(y), kernel_dim=-1, kernel_is_gauge_line=False)


def _zero_pad(y_red, zero_indices, N: int):
    out = []
    it = iter(y_red)
    for i in range(N):
        out.append(ZERO if i in zero_indices else next(it))
    return out


def _marked_multiple_root_witness(x, pencil: Pencil, bound: int = 2):
    """Last-resort exact search for the marked-double-root corner case."""
    _, basis = rank_kernel(Matrix(_witness_rows(x, pencil, strip_marked=True)))
    if len(basis) < 2:
        return None
    coeff_pool = [gr(a, b) for a in range(-bound, bound + 1) for b in range(-bound, bound + 1)]
    rng = random.Random(20240517)
    combos = list(itertools.product(coeff_pool, repeat=len(basis)))
    rng.shuffle(combos)
    for combo in combos[:4000]:
        y = [ZERO] * pencil.N
        any_nonzero = False
        for c, b in zip(combo, basis):
            if not c:
                continue
            any_nonzero = True
            y = [yi + c * bi for yi, bi in zip(y, b)]
        if not any_nonzero or is_gauge_trivial(x, y):
            continue
        if _verified_nilpotent(x, y, pencil):
            return y
    return None


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
