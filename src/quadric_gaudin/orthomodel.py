"""The rank-2 skew-adjoint model inside the pencil of quadrics.

For a constrained point, the N x N matrix

    A_ij(z) = (x_i y_j - y_i x_j) / (z - mu_i)

is skew-adjoint for the diagonal form q_z with weights (z - mu_i), kills x,
and has rank at most 2 (it is diag(1/(z - mu_i)) (x y^T - y x^T)).  On the
lifted vectors v_z = (v_i / (z - mu_i)) it reproduces the 2 x 2 Higgs field:

    A(x_z) = B(z) x_z - C(z) y_z,      A(y_z) = A'(z) x_z - B(z) y_z,

with B = sum x_i y_i/(z - mu_i), C = sum x_i^2/(z - mu_i) and
A' = sum y_i^2/(z - mu_i); under the frame e_1 = y_z, e_2 = -x_z these are
exactly the entries of Phi, and multiplied by p_D they are (b, c, a) of the
Hecke triple up to the pinned signs (+b, -c, -a, -b) for (alpha, beta,
gamma, delta).  ``verify_equivalence`` therefore solves for nothing: it
reads (alpha, beta, gamma, delta) = (Phi22, -Phi12, -Phi21, Phi11) off
Phi(z) and checks both identities entry by entry.  When y is proportional
to x (every x_i y_j - x_j y_i vanishes) A is zero and the frame dependent,
so the samples of that point are skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .linalg import Matrix, rank_kernel
from .phase import PhasePoint, Pencil
from .scalars import as_complex, close, dot, negligible


class PencilForm:
    """The family of diagonal bilinear forms q_z with entries z - mu_i."""

    def __init__(self, pencil: Pencil):
        self.pencil = pencil

    def weights(self, z):
        return [z - m for m in self.pencil.mu]

    def apply(self, z, u, w):
        return dot([wt * ui for wt, ui in zip(self.weights(z), u)], w)

    def degenerate_at(self, z) -> bool:
        return z in self.pencil.mu


def _check_off_poles(pencil: Pencil, z):
    for i, m in enumerate(pencil.mu):
        if z == m:
            raise ValueError(f"z collides with the pole mu_{i + 1}")


def build_A(point: PhasePoint, z) -> Matrix:
    """A_ij = (x_i y_j - y_i x_j) / (z - mu_i) at z off the marked points,
    built once per z and point: the skew, rank and equivalence checks share it."""
    if z not in point.A_at:
        _check_off_poles(point.pencil, z)
        invs = [1 / (z - m) for m in point.pencil.mu]
        point.A_at[z] = Matrix([[v * inv for v in w] for w, inv in zip(point.pair_invariants, invs)])
    return point.A_at[z]


def skew_adjoint_defect(point: PhasePoint, z) -> Matrix:
    """D(z) A + A^T D(z); identically zero, constraints not even needed."""
    a = build_A(point, z).rows
    w = [z - m for m in point.pencil.mu]
    N = point.pencil.N
    return Matrix([[dot((w[i], a[j][i]), (a[i][j], w[j])) for j in range(N)] for i in range(N)])


def lift_vz(v, point: PhasePoint, z):
    """v_z = (v_1/(z - mu_1), ..., v_N/(z - mu_N)) for v with sum v_i x_i = 0."""
    _check_off_poles(point.pencil, z)
    scale = max(1.0, max(abs(as_complex(a)) for a in v))
    if not negligible(dot(v, point.x), 1e-9, scale):
        raise ValueError("lift needs sum v_i x_i = 0")
    return [vi / (z - m) for vi, m in zip(v, point.pencil.mu)]


@dataclass(frozen=True)
class EquivalenceSample:
    z: object
    coefficients: tuple  # (alpha, beta, gamma, delta) of A in the basis (x_z, y_z)
    phi_entries: tuple  # ((Phi11, Phi12), (Phi21, Phi22))
    frame_match: bool
    hecke_match: bool
    skipped: bool = False
    note: str = ""


@dataclass(frozen=True)
class EquivalenceReport:
    samples: tuple

    @property
    def passed(self) -> bool:
        return all(s.frame_match and s.hecke_match for s in self.samples if not s.skipped)

    @property
    def checked(self) -> int:
        return sum(1 for s in self.samples if not s.skipped)


def verify_equivalence(point: PhasePoint, z_samples) -> EquivalenceReport:
    """:func:`phi_equivalence` on a new Higgs field of point; the Hecke triple
    and the Phi(z) values it caches are freed with it."""
    from .higgs import build_phi

    return phi_equivalence(build_phi(point), z_samples)


def phi_equivalence(phi, z_samples) -> EquivalenceReport:
    """Match A on the lifted frame with the Higgs field phi, exactly.

    At each sample z the coefficients of A in the basis (x_z, y_z) are read
    off Phi(z): (alpha, beta, gamma, delta) = (Phi22, -Phi12, -Phi21, Phi11).
    A(x_z) = alpha x_z + beta y_z and A(y_z) = gamma x_z + delta y_z must hold
    entry by entry, and the coefficients multiplied by p_D(z) must equal the
    Hecke polynomials (b, -c, -a, -b).  Every sample is skipped when y is
    proportional to x, that is when every x_i y_j - x_j y_i vanishes: the
    frame is then dependent.  The Hecke triple and each Phi(z) are read from
    phi's caches, which depend only on the point's tuples x and y, so the
    ``verify`` command shares one field with its Hecke and trace checks.
    """
    point = phi.point
    x, y, w = point.x, point.y, point.pair_invariants
    xs, ys = [as_complex(v) for v in x], [as_complex(v) for v in y]
    if all(negligible(w[i][j], 1e-9, 1.0 + abs(xs[i] * ys[j]) + abs(xs[j] * ys[i]))
           for i, j in combinations(range(len(x)), 2)):
        return EquivalenceReport(samples=tuple(
            EquivalenceSample(z=z, coefficients=(), phi_entries=(), frame_match=True,
                              hecke_match=True, skipped=True, note="y is proportional to x")
            for z in z_samples
        ))
    triple = phi.hecke
    pd = point.pencil.vanishing_poly()
    out = []
    for z in z_samples:
        x_z = lift_vz(x, point, z)
        y_z = lift_vz(y, point, z)
        A = build_A(point, z)
        m = phi.at(z)
        alpha, beta, gamma, delta = m[1][1], -m[0][1], -m[1][0], m[0][0]
        frame_ok = all(
            _close(got, dot((a, b), (u, v)))
            for v_z, a, b in ((x_z, alpha, beta), (y_z, gamma, delta))
            for got, u, v in zip(A.matvec(v_z), x_z, y_z)
        )
        pdz = pd(z)
        hecke_ok = all(
            _close(got, want, 0.0 if point.exact else poly.mass(z) + abs(coef) * pd.mass(z))
            for got, want, poly, coef in (
                (alpha * pdz, triple.b(z), triple.b, alpha),
                (beta * pdz, -triple.c(z), triple.c, beta),
                (gamma * pdz, -triple.a(z), triple.a, gamma),
                (delta * pdz, -triple.b(z), triple.b, delta),
            )
        )
        out.append(
            EquivalenceSample(
                z=z,
                coefficients=(alpha, beta, gamma, delta),
                phi_entries=(tuple(m[0]), tuple(m[1])),
                frame_match=frame_ok,
                hecke_match=hecke_ok,
            )
        )
    return EquivalenceReport(samples=tuple(out))


def _close(got, want, mass: float = 0.0, tol: float = 1e-9) -> bool:
    """got == want, exactly, or in float up to tol relative to their size plus
    mass, the pre-cancellation mass of the evaluations that produced them."""
    return close(got, want, tol, 1.0 + abs(as_complex(got)) + abs(as_complex(want)) + mass)


@dataclass(frozen=True)
class SubbundleProbe:
    z1_coefficient: object  # sum x_i^2
    z2_coefficient: object  # sum mu_i x_i^2
    both_vanish: bool


def trivial_subbundle_probe(point: PhasePoint) -> SubbundleProbe:
    """Asymptotics of sum_i x_i (x_z)_i = C(z) as z -> infinity.

    The 1/z and 1/z^2 coefficients are the two x-constraints resurfacing;
    both vanish exactly on constrained points.
    """
    x, mu = point.x, point.pencil.mu
    c1 = dot(x, x)
    c2 = dot([m * xi for xi, m in zip(x, mu)], x)
    return SubbundleProbe(
        z1_coefficient=c1,
        z2_coefficient=c2,
        both_vanish=negligible(c1, 1e-9) and negligible(c2, 1e-9),
    )


def rank_and_kernel_of_A(point: PhasePoint, z, tol: float = 1e-9):
    """Exact (or float) rank of A(z); contains x in the kernel, rank <= 2."""
    return rank_kernel(build_A(point, z), tol=tol)
