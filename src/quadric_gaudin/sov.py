"""Separation of variables: auxiliary polynomial, roots, eigenvalues, minors.

The auxiliary polynomial

    p(z) = sum_i x_i^2 prod_{j != i} (z - mu_j)

has degree <= n = N - 3 at constrained x (the two leading coefficients are
the constraint sums).  Its root divisor, including infinity with
multiplicity n - deg p, is the image of x in the n-fold symmetric product.
At a simple finite root a_k away from the mu_j the eigenvalue

    lambda_k = sum_i x_i y_i / (a_k - mu_i)

is linear in y and f_k = lambda_k^2 recovers the Hamiltonian data:
h(a_k) = -p_D(a_k) lambda_k^2 exactly (pinned constant -1, a consequence of
b^2 + ac = -p_D h).

At an exact point each root of a squarefree factor of p is one point of the
factor's multiplicity, and its float value only labels it; only a float
point's roots are grouped, by ``clustered_roots``.  Root-dependent rank
statements run at float precision with conditioning guards.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .linalg import Matrix, rank_kernel
from .phase import PhasePoint, Pencil
from .scalars import as_complex, close, dot, is_exact, negligible, total
from .unipoly import Polynomial, clustered_roots, roots, squarefree_factorization

class RootAtMarkedPointError(ValueError):
    """A separation root collides with a marked point: apply dimension reduction."""


def auxiliary_poly(x, pencil: Pencil) -> Polynomial:
    """p(z) = sum_i x_i^2 prod_{j != i} (z - mu_j); degree <= n at constrained x."""
    p = pencil.lagrange_sum([xi * xi for xi in x])
    if p.exact and p.degree > pencil.n:
        raise ValueError("auxiliary polynomial exceeds degree n: x unconstrained")
    return p


def point_from_polynomial(target: Polynomial, pencil: Pencil, mode: str = "exact"):
    """Invert p -> x by x_i^2 = target(mu_i) / prod_{j != i} (mu_i - mu_j).

    The returned x is determined up to independent sign choices; it satisfies
    both constraints and auxiliary_poly(x) == target exactly.  Exact mode
    requires every x_i^2 to admit a Gaussian-rational square root.
    """
    if target.is_zero():
        raise ValueError("target polynomial is zero: would give x = 0")
    if target.degree > pencil.n:
        raise ValueError(f"target degree {target.degree} exceeds n = {pencil.n}")
    weights = pencil.node_weights()
    if mode == "exact":
        out = []
        for m, d in zip(pencil.mu, weights):
            sq = target(m) / d
            root = sq.sqrt()
            if root is None:
                raise ValueError(
                    f"x_i^2 = {sq} has no exact square root; use float mode"
                )
            out.append(root)
        return out
    if mode != "float":
        raise ValueError(f"unknown mode {mode!r}")
    tf = target.to_float()
    return [
        complex(tf(as_complex(m)) / as_complex(d)) ** 0.5
        for m, d in zip(pencil.mu, weights)
    ]


@dataclass(frozen=True)
class SeparatedData:
    """Auxiliary polynomial with roots, eigenvalues, and the ell matrix."""

    p: Polynomial
    finite_roots: tuple  # ((root, multiplicity), ...)
    infinity_multiplicity: int
    lambdas: tuple  # lambda_k per simple finite root off the marked points
    ell_matrix: Matrix | None  # rows x_j / (a_k - mu_j) for those roots

    @property
    def simple_finite_roots(self):
        return tuple(r for r, m in self.finite_roots if m == 1)


def eigenvalues(point: PhasePoint, root_list) -> list:
    """lambda_k = sum_i x_i y_i / (a_k - mu_i) for finite simple roots a_k.

    Also replays the eigenvector equation: the e_1 component
    sum_i x_i^2 / (a_k - mu_i) must vanish (a_k is a root of p).
    """
    mu = point.pencil.mu
    x, y = point.x, point.y
    scale = max(1.0, max(abs(as_complex(v)) for v in x) ** 2)
    out = []
    for a in root_list:
        _check_off_marked(a, mu)
        denoms = [a - m for m in mu]
        lam = total(xi * yi / d for xi, yi, d in zip(x, y, denoms))
        e1 = total(xi * xi / d for xi, d in zip(x, denoms))
        if not negligible(e1, 1e-6, scale):
            raise ValueError("eigenvector equation failed: a_k is not a root")
        out.append(lam)
    return out


def _check_off_marked(a, mu) -> None:
    for j, m in enumerate(mu):
        if close(a, m, 1e-12):
            raise RootAtMarkedPointError(
                f"root {a} equals mu_{j + 1}: apply dimension reduction"
            )


def exact_divisor(p: Polynomial, n: int, factors=None):
    """Finite roots (float positions, exact multiplicities) and inf multiplicity.

    Multiplicities come from the exact squarefree factorization (``factors``
    when the caller already has it).  A squarefree factor has simple roots,
    so each float root of a factor of multiplicity k is one point of
    multiplicity k, however close it lies to another: the floats only label
    the points, and the multiplicities always sum to deg p.
    """
    if p.is_zero():
        raise ValueError("zero auxiliary polynomial")
    if factors is None:
        factors = squarefree_factorization(p)
    finite = [(r, k) for factor, k in factors for r in roots(factor.to_float())]
    finite.sort(key=lambda t: (t[0].real, t[0].imag))
    return tuple(finite), n - p.degree


def separate(point: PhasePoint, tol: float = 1e-8) -> SeparatedData:
    """Full separation data for a constrained point.

    Root multiplicities come from ``exact_divisor`` when the point is exact;
    only a float point's roots are grouped, by ``clustered_roots`` with tol.
    """
    pencil = point.pencil
    p = auxiliary_poly(point.x, pencil)
    if point.exact:
        finite, inf_mult = exact_divisor(p, pencil.n)
    elif p.is_zero():
        raise ValueError("zero auxiliary polynomial")
    else:
        finite, inf_mult = tuple(clustered_roots(p, tol)), pencil.n - p.degree
    simple = [
        r for r, m in finite if m == 1 and not any(close(r, mm, 1e-12) for mm in pencil.mu)
    ]
    lambdas = eigenvalues(point.to_float() if point.exact else point, simple) if simple else []
    ell = None
    if simple:
        muf = [as_complex(m) for m in pencil.mu]
        xf = [as_complex(v) for v in point.x]
        ell = Matrix([[xf[j] / (a - muf[j]) for j in range(pencil.N)] for a in simple])
    return SeparatedData(
        p=p,
        finite_roots=finite,
        infinity_multiplicity=inf_mult,
        lambdas=tuple(lambdas),
        ell_matrix=ell,
    )


def sov_matrix(x, root_list, pencil: Pencil) -> Matrix:
    """(n+2) x N matrix: evaluation rows x_j/(a_k - mu_j), then x_j, then mu_j x_j."""
    rows = []
    exact = is_exact(x[0]) and all(is_exact(a) for a in root_list)
    mu = pencil.mu if exact else [as_complex(m) for m in pencil.mu]
    xs = list(x) if exact else [as_complex(v) for v in x]
    for a in root_list:
        av = a if exact else as_complex(a)
        _check_off_marked(av, mu)
        rows.append([xs[j] / (av - mu[j]) for j in range(pencil.N)])
    rows.append(list(xs))
    rows.append([m * v for m, v in zip(mu, xs)])
    return Matrix(rows)


@dataclass(frozen=True)
class MinorIdentityReport:
    """Cofactors of the sov matrix against the closed form, up to one sign."""

    cofactors: tuple
    closed_form: complex
    lead_power: complex
    ratios: tuple  # cofactor_j / (x_j * closed_form * lead(p)^(N-1))
    sign: int
    match: bool
    rel_error: float


def minor_identity_check(
    x, root_list, pencil: Pencil, tol: float = 1e-9
) -> MinorIdentityReport:
    """Compare all N maximal minors with the product closed form.

    cofactor_j = (-1)^j det(M without column j) must equal
    sign * lead(p)^(N-1) * x_j * closed_form with a single sign for the given
    root ordering; the closed form is
    prod_i [x_i / p(mu_i)] * prod_{j<k} (a_j - a_k) * prod_{l<m} (mu_l - mu_m).
    """
    N = pencil.N
    if not all(x):
        raise ValueError("zero coordinate: use dimension reduction first")
    p = auxiliary_poly(x, pencil)
    if len(root_list) != pencil.n:
        raise ValueError("need all n finite roots for the minor comparison")
    M = sov_matrix(x, root_list, pencil)
    A = np.array(M.to_float().rows, dtype=complex)
    cof = []
    for j in range(N):
        cof.append((-1) ** j * complex(np.linalg.det(np.delete(A, j, axis=1))))
    muf = [as_complex(m) for m in pencil.mu]
    xf = [as_complex(v) for v in x]
    pf = p.to_float()
    closed = 1.0 + 0j
    for i in range(N):
        closed *= xf[i] / pf(muf[i])
    for a, b in itertools.combinations([as_complex(r) for r in root_list], 2):
        closed *= a - b
    for l, m in itertools.combinations(muf, 2):
        closed *= l - m
    lead_pow = as_complex(pf.lead()) ** (N - 1)
    ratios = [cof[j] / (xf[j] * closed * lead_pow) for j in range(N)]
    mean = sum(ratios) / N
    spread = max(abs(r - mean) for r in ratios)
    sign = 1 if mean.real >= 0 else -1
    err = max(spread, abs(mean - sign))
    return MinorIdentityReport(
        cofactors=tuple(cof),
        closed_form=closed,
        lead_power=lead_pow,
        ratios=tuple(ratios),
        sign=sign,
        match=bool(err <= tol * max(1.0, abs(mean))),
        rel_error=float(err),
    )


@dataclass(frozen=True)
class SovDualityReport:
    lambdas: tuple
    f_values: tuple  # lambda_k^2
    h_reconstructed: Polynomial
    h_direct: Polynomial
    max_rel_coeff_error: float
    ell_rank: int
    squares_span_dim: int


def hamiltonians_via_sov(point: PhasePoint) -> SovDualityReport:
    """The n separated Hamiltonians lambda_k^2 and their duality with h.

    Reconstructs h by interpolating -p_D(a_k) lambda_k^2 at the roots a_k and
    compares coefficients with the direct reduced form of tr Phi^2; also
    checks that the n linear forms ell_k are independent and their squares
    span an n-dimensional space of quadratics on the y-constraint plane.
    """
    from .higgs import reduced_tr_phi_squared

    pencil = point.pencil
    sep = separate(point)
    simple = sep.simple_finite_roots
    if len(simple) != pencil.n:
        raise ValueError("duality check needs n distinct finite roots off the poles")
    lambdas = sep.lambdas
    f_vals = tuple(l * l for l in lambdas)
    pdf = pencil.vanishing_poly().to_float()
    from .unipoly import lagrange_interpolate

    values = [-pdf(a) * f for a, f in zip(simple, f_vals)]
    h_rec = lagrange_interpolate(list(simple), values)
    h_dir = reduced_tr_phi_squared(point, check_samples=False).h.to_float()
    scale = max(h_dir.coeff_scale(), h_rec.coeff_scale(), 1e-300)
    deg = max(len(h_rec.coeffs), len(h_dir.coeffs))
    err = max(
        [abs(as_complex(h_rec.coeff(k)) - as_complex(h_dir.coeff(k))) / scale for k in range(deg)],
        default=0.0,
    )
    ell_rank, _ = rank_kernel(sep.ell_matrix, tol=1e-9)
    span_dim = _squares_span_dimension(point, sep)
    return SovDualityReport(
        lambdas=lambdas,
        f_values=f_vals,
        h_reconstructed=h_rec,
        h_direct=h_dir,
        max_rel_coeff_error=err,
        ell_rank=ell_rank,
        squares_span_dim=span_dim,
    )


def _squares_span_dimension(point: PhasePoint, sep: SeparatedData) -> int:
    """dim span{ell_k^2} inside quadratic forms on {sum xy = sum mu xy = 0}."""
    N = point.pencil.N
    muf = [as_complex(m) for m in point.pencil.mu]
    xf = [as_complex(v) for v in point.x]
    constraints = Matrix([xf, [m * v for m, v in zip(muf, xf)]])
    _, basis = rank_kernel(constraints, tol=1e-12)
    rows = []
    for k, a in enumerate(sep.simple_finite_roots):
        ell = [xf[j] / (a - muf[j]) for j in range(N)]
        restricted = [dot(ell, b) for b in basis]
        m = len(restricted)
        rows.append(
            [
                restricted[i] * restricted[j]
                for i in range(m)
                for j in range(i, m)
            ]
        )
    if not rows:
        return 0
    rank, _ = rank_kernel(Matrix(rows), tol=1e-9)
    return rank
