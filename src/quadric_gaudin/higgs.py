"""The meromorphic 2x2 Higgs field, its Hamiltonians, and the Hecke triple.

The field is stored by residue data: the residue at mu_i is the rank-1
nilpotent matrix

    R_i = [[-x_i y_i, x_i^2], [-y_i^2, x_i y_i]],

the action of v_i (x) v_i on the symplectic plane in the basis e_1, e_2.
Matrix entries of Phi(z) = sum R_i / (z - mu_i) are derived views.

Pinned normalizations (each certified exactly by the test suite):

* h(z) = sum_i f_i prod_{j != i} (z - mu_j) has degree <= n - 1 and
  -tr Phi^2(z) = 2 h(z) / p_D(z);
* the Hecke triple a = -p_D * sum y_i^2/(z - mu_i), b = p_D * sum x_i y_i/
  (z - mu_i), c = p_D * sum x_i^2/(z - mu_i) satisfies
  2 (b^2 + a c) = p_D^2 tr Phi^2 and b^2 + a c = -p_D * h;
* at a root a_k of c, tr Phi^2(a_k) = 2 lambda_k^2 (trace-free 2x2 with
  eigenvalue lambda has trace-square 2 lambda^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .phase import PhasePoint, Pencil
from .scalars import as_complex, close, gr, total
from .unipoly import Polynomial

Mat2 = tuple[tuple, tuple]


def mat_add(a: Mat2, b: Mat2) -> Mat2:
    return (
        (a[0][0] + b[0][0], a[0][1] + b[0][1]),
        (a[1][0] + b[1][0], a[1][1] + b[1][1]),
    )


def mat_scale(c, a: Mat2) -> Mat2:
    return ((c * a[0][0], c * a[0][1]), (c * a[1][0], c * a[1][1]))


def mat_mul(a: Mat2, b: Mat2) -> Mat2:
    return (
        (
            a[0][0] * b[0][0] + a[0][1] * b[1][0],
            a[0][0] * b[0][1] + a[0][1] * b[1][1],
        ),
        (
            a[1][0] * b[0][0] + a[1][1] * b[1][0],
            a[1][0] * b[0][1] + a[1][1] * b[1][1],
        ),
    )


def mat_trace(a: Mat2):
    return a[0][0] + a[1][1]


class PoleEvaluationError(ValueError):
    def __init__(self, index: int):
        super().__init__(f"evaluation at the pole z = mu_{index + 1} (index {index})")
        self.index = index


class HiggsField:
    """Phi(z) = sum_i R_i / (z - mu_i) with simple nilpotent residues."""

    def __init__(self, point: PhasePoint):
        self.point = point
        self.pencil = point.pencil

    def residue(self, i: int) -> Mat2:
        x, y = self.point.x[i], self.point.y[i]
        return ((-x * y, x * x), (-y * y, x * y))

    def at(self, z) -> Mat2:
        mu = self.pencil.mu
        for i, m in enumerate(mu):
            if z == m:
                raise PoleEvaluationError(i)
        return reduce(
            mat_add,
            (mat_scale(1 / (z - mu[i]), self.residue(i)) for i in range(self.pencil.N)),
        )

    def trace_squared_at(self, z):
        m = self.at(z)
        return mat_trace(mat_mul(m, m))


def build_phi(point: PhasePoint) -> HiggsField:
    return HiggsField(point)


def hamiltonians(point: PhasePoint) -> list:
    """f_i = sum_{j != i} (x_i y_j - x_j y_i)^2 / (mu_i - mu_j); gauge invariant."""
    mu, x, y = point.pencil.mu, point.x, point.y
    N = point.pencil.N

    def term(i, j):
        w = x[i] * y[j] - x[j] * y[i]
        return (w * w) / (mu[i] - mu[j])

    return [total(term(i, j) for j in range(N) if j != i) for i in range(N)]


@dataclass(frozen=True)
class ReducedQuadratic:
    """The f-vector and the degree <= n-1 polynomial h with 2h = -p_D tr Phi^2."""

    f: tuple
    h: Polynomial


def reduced_tr_phi_squared(point: PhasePoint, check_samples: bool = True) -> ReducedQuadratic:
    """h(z) = sum_i f_i prod_{j != i} (z - mu_j), verified against tr Phi^2.

    At constrained points the moment relations sum f = sum mu f =
    sum mu^2 f = 0 cancel the three leading coefficients, so deg h <= n - 1.
    """
    pencil = point.pencil
    f = hamiltonians(point)
    h = pencil.lagrange_sum(f)
    if point.exact and h.degree != float("-inf") and h.degree > pencil.n - 1:
        raise AssertionError("h exceeds its degree bound; point not constrained?")
    if check_samples:
        _check_reduced_identity(point, h)
    return ReducedQuadratic(tuple(f), h)


def _check_reduced_identity(point: PhasePoint, h: Polynomial) -> None:
    # -tr Phi^2 * p_D = 2h at n+2 sample values of z off the poles
    pencil = point.pencil
    phi = HiggsField(point)
    pd = pencil.vanishing_poly()
    samples = off_pole_samples(pencil, pencil.n + 2)
    for z in samples:
        lhs = -phi.trace_squared_at(z) * pd(z)
        rhs = 2 * h(z)
        scale = max(1.0, abs(as_complex(lhs)), abs(as_complex(rhs)))
        if not close(lhs, rhs, 1e-8, scale):
            raise AssertionError("tr Phi^2 partial-fraction identity failed")


def off_pole_samples(pencil: Pencil, count: int):
    """Deterministic exact (or float) z values avoiding every marked point."""
    if pencil.exact:
        out = []
        k = 0
        while len(out) < count:
            cand = gr(k * 2 + 1, 3)
            if cand not in pencil.mu:
                out.append(cand)
            k += 1
        return out
    out = []
    k = 0
    while len(out) < count:
        cand = complex(2 * k + 1, 0.37)
        if all(abs(cand - as_complex(m)) > 1e-9 for m in pencil.mu):
            out.append(cand)
        k += 1
    return out


def infinity_expansion(point: PhasePoint) -> tuple[Mat2, Mat2]:
    """Leading Laurent data at z -> infinity: Phi = phi0 dz/z + phi1 dz/z^2 + ...

    phi0 = sum_i R_i, which equals (sum y_i^2) * (e_2 (x) e_2) at constrained
    points, and phi1 = sum_i mu_i R_i.  The normalization sum y_i^2 = -1 is
    deliberately not imposed, so phi0 is proportional to, not equal to,
    the rank-1 matrix of the puncture at infinity; tr(phi0 phi1) = 0 and
    phi1 e_2 || e_2 hold either way.
    """
    field = HiggsField(point)
    rs = [field.residue(i) for i in range(point.pencil.N)]
    phi0 = reduce(mat_add, rs)
    phi1 = reduce(mat_add, (mat_scale(m, r) for m, r in zip(point.pencil.mu, rs)))
    return phi0, phi1


@dataclass(frozen=True)
class HeckeTriple:
    """Polynomial matrix data (b, a; c, -b) after the Hecke move at infinity.

    Degree bounds: deg c <= n, deg b <= n + 1, deg a <= n + 2, and c equals
    the auxiliary polynomial of the underlying x exactly.
    """

    a: Polynomial
    b: Polynomial
    c: Polynomial

    def spectral(self) -> Polynomial:
        return self.b * self.b + self.a * self.c


def hecke_transform(point: PhasePoint) -> HeckeTriple:
    """Closed-form (a, b, c) with 2(b^2 + ac) = p_D^2 tr Phi^2.

    a = -p_D sum y_i^2/(z - mu_i), b = p_D sum x_i y_i/(z - mu_i),
    c =  p_D sum x_i^2/(z - mu_i); the leading cancellations from the four
    constraints give the stated degree bounds.
    """
    pencil = point.pencil
    x, y = point.x, point.y
    n = pencil.n
    a = pencil.lagrange_sum([-(v * v) for v in y])
    b = pencil.lagrange_sum([u * v for u, v in zip(x, y)])
    c = pencil.lagrange_sum([u * u for u in x])
    if point.exact and (c.degree > n or b.degree > n + 1 or a.degree > n + 2):
        raise AssertionError("Hecke degree bounds violated; point not constrained?")
    return HeckeTriple(a=a, b=b, c=c)


def is_nilpotent(t: HeckeTriple, tol: float = 1e-9) -> bool:
    """True iff b^2 + ac is the zero polynomial (exactly, or below tol)."""
    s = t.spectral()
    if s.is_zero():
        return True
    if s.exact:
        return False
    scale = max(
        t.b.coeff_scale() ** 2, t.a.coeff_scale() * t.c.coeff_scale(), 1e-300
    )
    return all(abs(cf) <= tol * scale for cf in s.coeffs)


def spectral_polynomial(point: PhasePoint) -> Polynomial:
    """b^2 + ac, the defining polynomial of w^2 = b^2 + ac; equals -p_D h."""
    return hecke_transform(point).spectral()
