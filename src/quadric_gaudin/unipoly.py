"""Univariate polynomials over exact (Gaussian rational) or float scalars.

Coefficients are stored ascending in the power of z.  The same class serves
both scalar domains; exact polynomials feed the resultant / gcd / squarefree
machinery, float polynomials feed the root finder.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable, Sequence

from .scalars import GaussianRational, ONE, as_complex, dot, one_like, zero_like

NEG_INF = float("-inf")


class RootFindingError(RuntimeError):
    """Raised when simultaneous iteration fails; carries the best iterate."""

    def __init__(self, message: str, best: list[complex]):
        super().__init__(message)
        self.best = best


class Polynomial:
    """Dense univariate polynomial; trailing zero coefficients are trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial([])

    @staticmethod
    def identity_shift(c) -> "Polynomial":
        """The polynomial z - c over the scalar domain of c."""
        return Polynomial([-c, one_like(c)])

    @staticmethod
    def from_roots(roots: Sequence, lead=None) -> "Polynomial":
        exact = all(isinstance(r, GaussianRational) for r in roots) and roots
        one = ONE if exact else 1.0 + 0j
        c = [one]
        for r in roots:
            # times z - r, adding terms as the full product does: c_{k-1} 1 + c_k (-r)
            s = (one, -r)
            c = [c[0] * s[1], *[dot(c[k - 1:k + 1], s) for k in range(1, len(c))], c[-1] * one]
        p = Polynomial(c)
        return p if lead is None else p.scale(lead)

    # -- structure ----------------------------------------------------------

    @property
    def degree(self):
        """Degree, with -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def exact(self) -> bool:
        return bool(self.coeffs) and isinstance(self.coeffs[0], GaussianRational)

    def lead(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        # the zero polynomial has no domain; the int 0 is exact in both
        return zero_like(self.coeffs[0]) if self.coeffs else 0

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        if len(self.coeffs) != len(other.coeffs):
            return False
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero() or other.is_zero():
            return Polynomial.zero()
        # c_k = sum_i a_i b_{k-i} in ascending i: one dot per coefficient
        a, rb = self.coeffs, other.coeffs[::-1]
        n = len(rb) - 1
        return Polynomial([dot(a[max(0, k - n):k + 1], rb[max(0, n - k):])
                           for k in range(len(a) + n)])

    def scale(self, c) -> "Polynomial":
        return Polynomial([c * a for a in self.coeffs])

    def derivative(self) -> "Polynomial":
        return Polynomial([k * c for k, c in enumerate(self.coeffs)][1:])

    def __call__(self, z):
        if not self.coeffs:
            return zero_like(z)
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * z + c
        return acc

    def monic(self) -> "Polynomial":
        if self.is_zero():
            raise ValueError("zero polynomial cannot be made monic")
        return self.scale(1 / self.lead())

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Exact-field polynomial division with remainder."""
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self.coeffs)
        db, lb = other.degree, other.lead()
        if self.degree < db:
            return Polynomial.zero(), self
        quo = [zero_like(lb)] * (len(rem) - db)
        for k in range(len(rem) - 1, db - 1, -1):
            c = rem[k]
            if not c:
                continue
            f = c / lb
            quo[k - db] = f
            for j, b in enumerate(other.coeffs):
                rem[k - db + j] = rem[k - db + j] - f * b
        return Polynomial(quo), Polynomial(rem)

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return self.divmod(other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return self.divmod(other)[1]

    def exact_div(self, other: "Polynomial") -> "Polynomial":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ArithmeticError("division is not exact")
        return q

    def to_float(self) -> "Polynomial":
        return Polynomial([as_complex(c) for c in self.coeffs])

    def coeff_scale(self) -> float:
        """max |coefficient|, used to normalize residual tolerances."""
        if not self.coeffs:
            return 0.0
        return max(abs(as_complex(c)) for c in self.coeffs)

    def mass(self, z) -> float:
        """sum_k |c_k| |z|^k: the terms Horner's rule adds at z before they
        cancel.  A float evaluation's error scales with this, not with the value."""
        r = abs(as_complex(z))
        return sum(abs(as_complex(c)) * r**k for k, c in enumerate(self.coeffs))


# -- gcd / squarefree machinery (exact scalars only) -------------------------

def poly_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Monic gcd by the Euclidean algorithm over the exact field."""
    a, b = p, q
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    return a.monic()


def squarefree_factorization(p: Polynomial) -> list[tuple[Polynomial, int]]:
    """Yun's algorithm: [(a_k, k)] with p = lead * prod a_k^k, a_k squarefree."""
    if p.is_zero():
        raise ValueError("zero polynomial has no squarefree factorization")
    p = p.monic()
    if p.degree == 0:
        return []
    out: list[tuple[Polynomial, int]] = []
    g = poly_gcd(p, p.derivative())
    if g.degree == 0:
        return [(p, 1)]
    c = p.exact_div(g)
    d = p.derivative().exact_div(g) - c.derivative()
    k = 1
    while c.degree > 0:
        a = poly_gcd(c, d)
        if a.degree > 0:
            out.append((a.monic(), k))
        c = c.exact_div(a)
        d = d.exact_div(a) - c.derivative()
        k += 1
    return out


# -- resultants ---------------------------------------------------------------

def sylvester_matrix(p: Polynomial, q: Polynomial) -> list[list]:
    m, n = p.degree, q.degree
    size = m + n
    zero = zero_like(p.lead())
    rows = []
    pc = list(reversed(p.coeffs))
    qc = list(reversed(q.coeffs))
    for i in range(n):
        rows.append([zero] * i + pc + [zero] * (size - i - m - 1))
    for i in range(m):
        rows.append([zero] * i + qc + [zero] * (size - i - n - 1))
    return rows


def _bareiss_determinant(rows: list[list]):
    """Fraction-free (Bareiss) elimination; exact for exact scalars."""
    n = len(rows)
    if n == 0:
        return ONE
    m = [list(r) for r in rows]
    sign = 1
    prev = one_like(m[0][0])
    for k in range(n - 1):
        if not m[k][k]:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return zero_like(prev)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
            m[i][k] = zero_like(prev)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


def resultant(p: Polynomial, q: Polynomial):
    """Sylvester-matrix resultant of exact polynomials; res(p, p') = 0 iff p has
    a repeated root.  Float input raises ValueError, as ``classify`` does."""
    if p.is_zero() or q.is_zero():
        raise ValueError("undefined resultant: zero polynomial input")
    if not (p.exact and q.exact):
        raise ValueError("resultant requires exact coefficients")
    if p.degree == 0 and q.degree == 0:
        return one_like(p.lead())
    if p.degree == 0:
        return p.coeffs[0] ** q.degree
    if q.degree == 0:
        return q.coeffs[0] ** p.degree
    return _bareiss_determinant(sylvester_matrix(p, q))


# -- root finding (float) ------------------------------------------------------

DEFAULT_ROOT_TOL = 1e-8


def _quadratic_roots(c0: complex, c1: complex, c2: complex) -> list[complex]:
    disc = cmath.sqrt(c1 * c1 - 4 * c2 * c0)
    # pick the sign avoiding cancellation
    if (c1.conjugate() * disc).real > 0:
        qq = -(c1 + disc) / 2
    else:
        qq = -(c1 - disc) / 2
    r1 = qq / c2
    r2 = c0 / qq if qq != 0 else -c1 / c2 - r1
    return [r1, r2]


def _aberth(coeffs: list[complex], tol: float, max_iter: int = 400) -> list[complex]:
    n = len(coeffs) - 1
    lead = coeffs[-1]
    # Fujiwara's bound on |root|: a wider start circle can overflow Horner's rule
    radius = 2 * max(abs(coeffs[n - k] / lead) ** (1 / k) for k in range(1, n + 1))
    zs = [
        radius * cmath.exp(2j * math.pi * (k + 0.25) / n) * (0.9 + 0.05 * (k % 3))
        for k in range(n)
    ]
    p = Polynomial(coeffs)
    dp = p.derivative()
    for _ in range(max_iter):
        moved = 0.0
        for k in range(n):
            zk = zs[k]
            pv = p(zk)
            if pv == 0:
                continue
            dv = dp(zk)
            ratio = pv / dv if dv != 0 else pv
            s = sum(1.0 / (zk - zs[j]) for j in range(n) if j != k)
            denom = 1.0 - ratio * s
            step = ratio / denom if denom != 0 else ratio
            zs[k] = zk - step
            moved = max(moved, abs(step) / (1.0 + abs(zs[k])))
        if moved < 1e-15:
            break
    # checked on every exit: a non-finite iterate is never returned as a root
    if not all(cmath.isfinite(z) and abs(p(z)) <= tol * p.mass(z) for z in zs):
        raise RootFindingError("root iteration left a residual above tol or a non-finite root", zs)
    return zs


def _cluster(roots: list[complex], tol: float) -> list[list[complex]]:
    groups: list[list[complex]] = []
    for r in sorted(roots, key=lambda z: (z.real, z.imag)):
        for g in groups:
            c = sum(g) / len(g)
            if abs(r - c) <= tol * (1.0 + abs(r) + abs(c)):
                g.append(r)
                break
        else:
            groups.append([r])
    return groups


def roots(
    p: Polynomial, tol: float = DEFAULT_ROOT_TOL, max_iter: int = 400
) -> list[complex]:
    """All deg(p) roots with multiplicity, unclustered, in the finder's order.

    Degrees 1 and 2 are solved in closed form; higher degrees by Aberth's
    iteration, whose roots are kept only when each residual |p(root)| is at
    most tol * p.mass(root), the Horner mass that bounds the rounding error
    of evaluating p there.  Otherwise, a non-finite iterate included, it
    raises RootFindingError with the best iterate.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has no well-defined roots")
    if tol <= 0:
        raise ValueError("tol must be positive")
    cs = [as_complex(c) for c in p.coeffs]
    n = len(cs) - 1
    if n == 0:
        return []
    if n == 1:
        return [-cs[0] / cs[1]]
    if n == 2:
        return _quadratic_roots(cs[0], cs[1], cs[2])
    return _aberth(cs, tol, max_iter)


def clustered_roots(p: Polynomial, tol: float = DEFAULT_ROOT_TOL) -> list[tuple[complex, int]]:
    """Distinct float roots with multiplicities, grouped by tol, in sorted order.

    Each group is reported at its mean.  This is the one place roots are
    grouped, and only float polynomials need it: an exact polynomial takes
    its multiplicities from its squarefree factorization instead.
    """
    return [(sum(g) / len(g), len(g)) for g in _cluster(roots(p, tol), tol)]


def lagrange_interpolate(nodes: Sequence, values: Sequence) -> Polynomial:
    """Unique polynomial of degree < len(nodes) through the given points."""
    if len(nodes) != len(values):
        raise ValueError("nodes and values must have equal length")
    total = Polynomial.zero()
    for i, (ni, vi) in enumerate(zip(nodes, values)):
        basis = Polynomial([one_like(ni)])
        denom = one_like(ni)
        for j, nj in enumerate(nodes):
            if j == i:
                continue
            basis = basis * Polynomial.identity_shift(nj)
            denom = denom * (ni - nj)
        total = total + basis.scale(vi / denom)
    return total
