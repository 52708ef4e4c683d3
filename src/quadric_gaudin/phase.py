"""Pencils of diagonal quadrics and constrained phase points.

A phase point is a representative (x, y) in C^N x C^N of a cotangent vector
to the affine cone over X = {q = 0} cap {q1 = 0}:

    sum x_i^2 = 0,   sum mu_i x_i^2 = 0,
    sum x_i y_i = 0, sum mu_i x_i y_i = 0,

with the gauge action y -> y + t x.  Public quantities built from a point
are gauge invariant; the test suite enforces this.

Exact sampling notes.  Solving the two x-constraints for a coordinate pair
leaves Gaussian-rational squares that almost never admit exact square
roots, so exact mode uses two honest constructions instead:

* :func:`sample_pencil_point` draws an exact isotropic x by reflecting a
  fixed isotropic seed vector (a chord of q = 0) and then solves the real
  2x2 linear system for mu_1, mu_2, co-sampling a rational pencil with the
  point.  Always succeeds, fully seeded.
* :func:`sample_point_x` with an explicit exact pencil takes one exact
  chord step along X from the pencil's seed point, which a small search
  finds once per pencil (``Pencil.seed_point``).  X is unirational from any
  one rational point (Colliot-Thelene, Sansuc and Swinnerton-Dyer, J. reine
  angew. Math. 373, 1987).
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction

from .scalars import (
    GaussianRational, ZERO, ONE, I, as_complex, dot, gr, is_exact, negligible, total, zero_like,
)
from .unipoly import Polynomial


#: relative size below which a float coefficient of a Lagrange sum is dust
FLOAT_TRIM = 1e-9
#: sample_pencil_point draws mu_3..mu_N from the integers in [-MU_BOUND, MU_BOUND]
MU_BOUND = 12


class DegeneratePointError(ValueError):
    """No usable pivot pair exists for the requested solve."""


class Pencil:
    """N >= 5 pairwise-distinct marked points mu_i; n = N - 3 = dim X."""

    def __init__(self, mu, allow_small: bool = False):
        mu = tuple(mu)
        if len(mu) < 5 and not allow_small:
            raise ValueError("pencil needs N >= 5 marked points")
        if len(mu) < 3:
            raise ValueError("pencil needs at least 3 marked points")
        if len({is_exact(m) for m in mu}) > 1:
            raise ValueError("marked points mix exact and float scalars")
        for a, b in itertools.combinations(mu, 2):
            if a == b:
                raise ValueError("marked points must be pairwise distinct")
        self.mu = mu
        self.N = len(mu)
        self.n = self.N - 3
        self._lagrange = None
        self._vanishing = None

    @property
    def exact(self) -> bool:
        return is_exact(self.mu[0])

    def to_float(self) -> "Pencil":
        return Pencil([as_complex(m) for m in self.mu], allow_small=True)

    def vanishing_poly(self) -> Polynomial:
        """p_D(z) = prod (z - mu_i), cached."""
        if self._vanishing is None:
            self._vanishing = Polynomial.from_roots(self.mu)
        return self._vanishing

    def lagrange_numerators(self) -> list[Polynomial]:
        """L_i(z) = prod_{j != i} (z - mu_j), cached."""
        if self._lagrange is None:
            self._lagrange = [
                Polynomial.from_roots([m for j, m in enumerate(self.mu) if j != i])
                for i in range(self.N)
            ]
        return self._lagrange

    def lagrange_sum(self, weights) -> Polynomial:
        """sum_i w_i L_i(z) = p_D(z) sum_i w_i / (z - mu_i).

        Float degrees are descriptive: a float result drops each trailing
        coefficient that is cancellation dust, at most FLOAT_TRIM times its
        pre-cancellation mass sum_i |w_i| |L_i,k|.  The mass is per
        coefficient, not the largest coefficient: those grow like prod |mu|,
        and a genuine leading coefficient can be far smaller.
        """
        Ls = self.lagrange_numerators()
        p = Polynomial([dot(weights, [L.coeffs[k] for L in Ls]) for k in range(self.N)])
        if p.exact or p.is_zero():
            return p
        ws = [abs(as_complex(w)) for w in weights]
        cs = list(p.coeffs)
        while cs:
            k = len(cs) - 1
            mass = sum(w * abs(as_complex(L.coeffs[k])) for w, L in zip(ws, Ls))
            if abs(cs[k]) > FLOAT_TRIM * mass:
                break
            cs.pop()
        return Polynomial(cs)

    @functools.cached_property
    def seed_point(self):
        """A small Gaussian-integer point of X on an exact pencil (the first
        hit of the seed search), or None if the search finds none; cached."""
        return _seed_search(self)

    def node_weights(self):
        """d_i = prod_{j != i} (mu_i - mu_j) = L_i(mu_i)."""
        return [L(m) for L, m in zip(self.lagrange_numerators(), self.mu)]

    def __repr__(self):
        return f"Pencil(N={self.N}, mu={list(self.mu)!r})"


class PhasePoint:
    """A constrained pair (x, y) over a pencil, exact or float.  x and y are
    tuples, so ``pair_invariants``, ``bracket_grads`` and the matrices A(z)
    by z in ``A_at`` (filled by ``orthomodel.build_A``), derived from them
    alone, are cached on the instance: a gauge-shifted point is a new
    instance with caches of its own."""

    def __init__(self, pencil: Pencil, x, y, check: bool = True, tol: float = 1e-9):
        self.pencil = pencil
        self.x = tuple(x)
        self.y = tuple(y)
        self.A_at = {}
        if len(self.x) != pencil.N or len(self.y) != pencil.N:
            raise ValueError("vector length must equal N")
        if any(is_exact(v) != pencil.exact for v in self.x + self.y):
            raise ValueError("point coordinates and marked points mix exact and float scalars")
        if not any(self.x):
            raise ValueError("x must be nonzero")
        if check:
            self.validate(tol)

    @property
    def exact(self) -> bool:
        return is_exact(self.x[0])

    @property
    def mode(self) -> str:
        return "exact" if self.exact else "float"

    def constraint_residuals(self):
        """(sum x^2, sum mu x^2, sum x y, sum mu x y)."""
        mu = self.pencil.mu
        x, y = self.x, self.y
        mx = [m * v for m, v in zip(mu, x)]
        return (dot(x, x), dot(mx, x), dot(x, y), dot(mx, y))

    def validate(self, tol: float = 1e-9) -> None:
        res = self.constraint_residuals()
        scale = 1.0
        if not self.exact:
            scale = max(
                1.0,
                max(abs(as_complex(v)) for v in self.x) ** 2,
                max((abs(as_complex(v)) for v in self.y), default=0.0) ** 2,
            )
        if not all(negligible(r, tol, scale) for r in res):
            raise ValueError(f"constraints violated: {res}")

    @functools.cached_property
    def pair_invariants(self) -> tuple:
        """w[i][j] = x_i y_j - x_j y_i, once per unordered pair: w[j][i] = -w[i][j]."""
        x, y = self.x, self.y
        w = [[zero_like(x[0])] * len(x) for _ in x]
        for i, j in itertools.combinations(range(len(x)), 2):
            v = x[i] * y[j] - x[j] * y[i]
            w[i][j], w[j][i] = v, -v
        return tuple(map(tuple, w))

    @functools.cached_property
    def bracket_grads(self) -> tuple:
        """(d f_i/dx, d f_i/dy) for every i, one ``_bracket_grads`` call each."""
        return tuple(_bracket_grads(self, i) for i in range(self.pencil.N))

    def to_float(self) -> "PhasePoint":
        return PhasePoint(
            self.pencil.to_float(),
            [as_complex(v) for v in self.x],
            [as_complex(v) for v in self.y],
            check=False,
        )

    def __repr__(self):
        return f"PhasePoint(N={self.pencil.N}, mode={self.mode})"


# -- invariants and gauge ----------------------------------------------------

def pair_invariant(p: PhasePoint, i: int, j: int):
    """<v_i, v_j> = x_i y_j - x_j y_i (0-based indices); gauge invariant."""
    return p.pair_invariants[i][j]


def gauge_shift(p: PhasePoint, t) -> PhasePoint:
    """(x, y) -> (x, y + t x); preserves all four constraints."""
    return PhasePoint(
        p.pencil, p.x, [yi + t * xi for xi, yi in zip(p.x, p.y)], check=False
    )


def _bracket_grads(p: PhasePoint, i: int):
    """(d f_i/dx, d f_i/dy) at p, in closed form through the pair invariants."""
    mu, x, y, w = p.pencil.mu, p.x, p.y, p.pair_invariants[i]
    c = {j: (w[j] + w[j]) / (mu[i] - mu[j]) for j in range(p.pencil.N) if j != i}
    gx = [dot(c.values(), (y[j] for j in c)) if k == i else -c[k] * y[i] for k in range(p.pencil.N)]
    gy = [-dot(c.values(), (x[j] for j in c)) if k == i else c[k] * x[i] for k in range(p.pencil.N)]
    return gx, gy


def poisson_bracket(p: PhasePoint, a: int, b: int):
    """{f_a, f_b} at p for the canonical bracket {x_k, y_l} = delta_kl.

    Uses the closed-form gradients of f_i = sum_{j != i} w_ij^2/(mu_i-mu_j)
    through the pair invariants w_ij = x_i y_j - x_j y_i.  Both are cached on
    p (``PhasePoint.bracket_grads``), so the C(N, 2) brackets of a point
    build its N gradients once and each bracket is two dot products.
    """
    ax, ay = p.bracket_grads[a]
    bx, by = p.bracket_grads[b]
    return dot(ax, by) - dot(ay, bx)


def bracket_mass(p: PhasePoint, a: int, b: int) -> float:
    """sum_k |d_x f_a||d_y f_b| + |d_y f_a||d_x f_b| in float: the size of the
    terms of {f_a, f_b} before they cancel, the scale of its rounding error."""
    ax, ay = p.bracket_grads[a]
    bx, by = p.bracket_grads[b]
    return sum(
        abs(as_complex(ax[k])) * abs(as_complex(by[k]))
        + abs(as_complex(ay[k])) * abs(as_complex(bx[k]))
        for k in range(p.pencil.N)
    )


# -- sampling -----------------------------------------------------------------

def _draw_gaussian_int(rng: random.Random, bound: int = 9) -> GaussianRational:
    return gr(rng.randint(-bound, bound), rng.randint(-bound, bound))


def sample_isotropic_x(N: int, rng: random.Random) -> list[GaussianRational]:
    """Exact Gaussian-integer x with sum x_i^2 = 0.

    Reflects the isotropic seed P = (1, i, 0, ...) through a random chord:
    x = q(d) P - 2 q(P, d) d  lands on the cone {q = 0} for every d.
    """
    P = [ONE, I] + [ZERO] * (N - 2)
    while True:
        x = _chord(P, [_draw_gaussian_int(rng, 6) for _ in range(N)])
        if x is not None and sum(1 for v in x if v) >= max(3, N - 2):
            return x


def sample_pencil_point(N: int, seed: int) -> tuple[Pencil, list[GaussianRational]]:
    """Exact x plus a co-sampled rational pencil with both constraints exact.

    mu_3..mu_N are drawn as distinct small integers and (mu_1, mu_2) solve
    the real 2x2 linear system imposed by sum mu_i x_i^2 = 0.
    """
    if N < 5:
        raise ValueError("need N >= 5")
    rng = random.Random(seed)
    while True:
        x = sample_isotropic_x(N, rng)
        s = [v * v for v in x]
        det = s[0].re * s[1].im - s[1].re * s[0].im
        if det == 0:
            continue
        tail = rng.sample(range(-MU_BOUND, MU_BOUND + 1), N - 2)
        rhs_re = -sum((Fraction(m) * s[i + 2].re for i, m in enumerate(tail)), Fraction(0))
        rhs_im = -sum((Fraction(m) * s[i + 2].im for i, m in enumerate(tail)), Fraction(0))
        mu1 = (rhs_re * s[1].im - s[1].re * rhs_im) / det
        mu2 = (s[0].re * rhs_im - rhs_re * s[0].im) / det
        mu = [gr(mu1), gr(mu2)] + [gr(m) for m in tail]
        if len({(m.re, m.im) for m in mu}) != N:
            continue
        pencil = Pencil(mu)
        if dot([m * v for m, v in zip(mu, x)], x):
            raise AssertionError("sampled pencil does not satisfy sum mu_i x_i^2 = 0")
        return pencil, x


def _seed_search(pencil: Pencil):
    """The first x in Z[i]^N on both quadrics with entries a + bi, |a|, |b| <= 2,
    and at least three nonzero coordinates, or None if there is none.

    Meet in the middle: the moment sums (q, q1) of every leading half are
    tabulated, then the trailing halves are scanned for the negated sums.
    The table costs 25^(N/2) entries, so the search runs once per pencil.
    """
    N, mu = pencil.N, pencil.mu
    vals = [gr(a, b) for a in range(-2, 3) for b in range(-2, 3)]
    # per coordinate: (x_i, x_i^2, mu_i x_i^2) for each candidate entry
    terms = [[(v, v * v, m * v * v) for v in vals] for m in mu]
    left: dict = {}
    for combo in itertools.product(*terms[:N // 2]):
        key = (total(t[1] for t in combo), total(t[2] for t in combo))
        left.setdefault(key, []).append(combo)
    for combo in itertools.product(*terms[N // 2:]):
        key = (-total(t[1] for t in combo), -total(t[2] for t in combo))
        for lead in left.get(key, ()):
            x = [t[0] for t in lead + combo]
            if sum(1 for v in x if v) >= 3:
                return x
    return None


def _chord(P, v, w=None):
    """Q(v) P - 2 B(P, v) v for B(a, b) = sum_i w_i a_i b_i (w_i = 1 if w is None):
    for Q(P) = 0, the second point where the line P + t v meets {Q = 0}; for
    w = 1, Q(v) times the reflection of P through v.  None when Q(v) or
    B(P, v) vanishes, as the line then meets {Q = 0} again only at infinity
    or only at P."""
    wv = v if w is None else [m * c for m, c in zip(w, v)]
    # the isotropic seeds P are mostly zeros, so B(P, v) skips them
    q, b = dot(wv, v), total(p * c for p, c in zip(P, wv) if p)
    if not q or not b:
        return None
    b = b + b
    return [q * p - b * c for p, c in zip(P, v)]


def sample_point_x(pencil: Pencil, seed: int):
    """Sample x on the constraint cone of an explicit pencil, in its domain.

    A float pencil gets the direct construction: draw x_3..x_N, solve the
    2x2 system for (x_1^2, x_2^2), take complex square roots.  Those squares
    almost never have Gaussian-rational roots, so an exact pencil takes one
    chord step from its seed point P (``Pencil.seed_point``): for v in the
    randomly reflected isotropic plane span(e1 + i e2, e3 + i e4) with
    B(P, v) = 0, the line P + t v lies in {q = 0} and meets {q1 = 0} again at
    x = Q1(v) P - 2 B1(P, v) v, so sum P_i x_i = 0 too.  Every sample steps
    from P, as each chained step would triple the height, and has its
    content divided out.  x is never proportional to P: v would be too, and
    B1(P, cP) = c Q1(P) = 0 leaves no chord.
    """
    rng = random.Random(seed)
    N, mu = pencil.N, pencil.mu
    if not pencil.exact:
        tail = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(N - 2)]
        s0 = dot(tail, tail)
        s1 = dot([mu[i + 2] * v for i, v in enumerate(tail)], tail)
        d = mu[0] - mu[1]
        return [((mu[1] * s0 - s1) / d) ** 0.5, ((s1 - mu[0] * s0) / d) ** 0.5] + tail
    P = pencil.seed_point
    if P is None:
        raise ValueError(
            "no small Gaussian-integer points found on this pencil; "
            "use float mode or sample_pencil_point"
        )
    e12 = [ONE, I] + [ZERO] * (N - 2)
    e34 = [ZERO, ZERO, ONE, I] + [ZERO] * (N - 4)
    while True:
        d = [_draw_gaussian_int(rng, 2) for _ in range(N)]
        w1, w2 = _chord(e12, d), _chord(e34, d)
        if w1 is None or w2 is None:
            continue
        b1, b2 = dot(P, w1), dot(P, w2)
        v = [b2 * a - b1 * b for a, b in zip(w1, w2)]
        x = _chord(P, v, mu)
        if x is not None:
            # divide out the content gcd(numerators) / lcm(denominators)
            parts = [c for z in x for c in (z.re, z.im)]
            scale = gr(Fraction(math.lcm(*(c.denominator for c in parts)),
                                math.gcd(*(c.numerator for c in parts))))
            return [scale * z for z in x]


def sample_point_y(pencil: Pencil, x, seed: int):
    """Draw a covector representative in the pencil's domain: solve two linear
    constraints for a pivot pair.

    Requires two indices i, j with x_i, x_j != 0; re-pivots automatically and
    raises DegeneratePointError when no usable pair exists.
    """
    N = pencil.N
    mu = pencil.mu
    rng = random.Random(seed)
    usable = [i for i in range(N) if x[i]]
    if len(usable) < 2:
        raise DegeneratePointError("need two indices with x_i != 0 to solve for y")
    i0, i1 = usable[0], usable[1]
    rest = [i for i in range(N) if i not in (i0, i1)]
    if pencil.exact:
        draw = {i: _draw_gaussian_int(rng, 9) for i in rest}
    else:
        draw = {i: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for i in rest}
    # x_{i0} y_{i0} + x_{i1} y_{i1} = -sum_rest x_i y_i   (and mu-weighted)
    s0 = -total(x[i] * draw[i] for i in rest)
    s1 = -total(mu[i] * x[i] * draw[i] for i in rest)
    det = x[i0] * x[i1] * (mu[i1] - mu[i0])
    if not det:
        raise DegeneratePointError("pivot system singular for every usable pair")
    # Cramer on [[x0, x1], [mu0 x0, mu1 x1]]
    y0 = (s0 * mu[i1] * x[i1] - x[i1] * s1) / det
    y1 = (x[i0] * s1 - mu[i0] * x[i0] * s0) / det
    y = [None] * N
    y[i0], y[i1] = y0, y1
    for i in rest:
        y[i] = draw[i]
    return y


def sample_phase_point(N: int, seed: int) -> PhasePoint:
    """Seeded exact constrained point with its co-sampled pencil."""
    pencil, x = sample_pencil_point(N, seed)
    y = sample_point_y(pencil, x, seed ^ 0x9E3779B9)
    return PhasePoint(pencil, x, y)
