import pytest

from quadric_gaudin.linalg import rank_kernel
from quadric_gaudin.phase import PhasePoint, sample_phase_point, sample_point_x, sample_point_y
from quadric_gaudin.scalars import gr
from quadric_gaudin.sov import (
    RootAtMarkedPointError,
    auxiliary_poly,
    eigenvalues,
    hamiltonians_via_sov,
    minor_identity_check,
    point_from_polynomial,
    separate,
    sov_matrix,
)
from quadric_gaudin.unipoly import Polynomial, lagrange_interpolate

from conftest import exact_wobbly_point


def test_auxiliary_poly_fixtures(pencil01234, fix_a, fix_b):
    # hand expansion of the five quartics
    p = auxiliary_poly(fix_a, pencil01234)
    assert p == Polynomial([gr(24), gr(-40), gr(10)])
    assert p(gr(0)) == gr(24)  # x_1^2 (mu_1-mu_2)...(mu_1-mu_5) = 1*(-1)(-2)(-3)(-4)
    pb = auxiliary_poly(fix_b, pencil01234)
    assert pb == Polynomial([gr(-24), gr(22), gr(-4)])
    assert pb(gr(4)).is_zero()  # root at mu_5 where x_5 = 0


def test_auxiliary_poly_expansion_oracle(pencil01234, fix_a):
    # independent oracle: evaluate the defining sum at many z and interpolate
    nodes = [gr(k, 1) for k in range(5)]
    vals = []
    for z in nodes:
        acc = gr(0)
        for i in range(5):
            term = fix_a[i] * fix_a[i]
            for j in range(5):
                if j != i:
                    term = term * (z - pencil01234.mu[j])
            acc = acc + term
        vals.append(acc)
    oracle = lagrange_interpolate(nodes, vals)
    assert oracle == auxiliary_poly(fix_a, pencil01234)


def test_auxiliary_poly_rejects_unconstrained(pencil01234):
    with pytest.raises(ValueError):
        auxiliary_poly([gr(1), gr(1), gr(1), gr(1), gr(1)], pencil01234)


def test_point_from_polynomial_roundtrip(pencil01234, fix_a):
    target = auxiliary_poly(fix_a, pencil01234)
    x = point_from_polynomial(target, pencil01234, mode="exact")
    assert [v * v for v in x] == [v * v for v in fix_a]
    assert auxiliary_poly(x, pencil01234) == target


def test_point_from_polynomial_errors(pencil01234):
    with pytest.raises(ValueError, match="zero"):
        point_from_polynomial(Polynomial.zero(), pencil01234)
    with pytest.raises(ValueError, match="degree"):
        point_from_polynomial(Polynomial([gr(0), gr(0), gr(0), gr(1)]), pencil01234)
    with pytest.raises(ValueError, match="square root"):
        point_from_polynomial(Polynomial([gr(1), gr(1)]), pencil01234, mode="exact")
    # float mode always works
    x = point_from_polynomial(Polynomial([gr(1), gr(1)]), pencil01234, mode="float")
    s = sum(v * v for v in x)
    assert abs(s) < 1e-10


def test_eigenvalues_fixture(fix_c):
    sep = separate(fix_c)
    assert sep.infinity_multiplicity == 0
    roots = sorted(sep.simple_finite_roots, key=lambda z: z.real)
    s10 = 10 ** 0.5
    a1 = 2 - 2 * s10 / 5
    assert roots[0].real == pytest.approx(a1, abs=1e-10)
    # numeric oracle recomputed from scratch
    lam_oracle = 3 / a1 - 4 / (a1 - 1) + 1 / (a1 - 4)
    lams = eigenvalues(fix_c.to_float(), [roots[0]])
    assert lams[0].real == pytest.approx(lam_oracle, abs=1e-10)
    assert lams[0].real == pytest.approx(18.8742588672, abs=1e-9)


def test_eigenvalues_gauge_and_zero_cases(pencil01234, fix_a):
    pt = PhasePoint(pencil01234, fix_a, fix_a)  # y = x: lambdas vanish at roots
    sep = separate(pt)
    assert all(abs(complex(l)) < 1e-9 for l in sep.lambdas)
    with pytest.raises(RootAtMarkedPointError):
        eigenvalues(pt.to_float(), [complex(2.0)])


def test_sov_matrix_kernel_fixture(pencil01234, fix_a, fix_c):
    sep = separate(fix_c)
    roots = list(sep.simple_finite_roots)
    M = sov_matrix([complex(v) for v in fix_a], roots, pencil01234.to_float())
    assert M.nrows == 4 and M.ncols == 5
    xf = [complex(v) for v in fix_a]
    resid = M.matvec(xf)
    assert all(abs(r) < 1e-12 for r in resid)
    rank, kernel = rank_kernel(M, tol=1e-9)
    assert rank == 4 and len(kernel) == 1


def test_sov_matrix_wobbly_rank_drop():
    pencil, x, target = exact_wobbly_point(1)
    # the double root appears once among distinct roots: use it twice to
    # reproduce the displayed matrix with coincident rows
    sep = separate(PhasePoint(pencil, x, [gr(0)] * 5, check=False))
    (root, mult), = sep.finite_roots
    assert mult == 2
    M = sov_matrix([complex(v) for v in x], [root, root], pencil.to_float())
    rank, kernel = rank_kernel(M, tol=1e-9)
    assert rank <= 3 and len(kernel) >= 2


def test_minor_identity_fixture(pencil01234, fix_a, fix_c):
    sep = separate(fix_c)
    rep = minor_identity_check(fix_a, list(sep.simple_finite_roots), pencil01234)
    assert rep.match and rep.sign in (1, -1)
    assert rep.rel_error < 1e-9
    assert abs(rep.lead_power - 10.0 ** 4) < 1e-6


def test_minor_identity_constant_across_points():
    checked = 0
    for trial in range(12):
        pt = sample_phase_point(5, 700 + trial)
        if any(v.is_zero() for v in pt.x):
            continue
        sep = separate(pt)
        if len(sep.simple_finite_roots) != pt.pencil.n:
            continue
        rep = minor_identity_check(list(pt.x), list(sep.simple_finite_roots), pt.pencil)
        assert rep.match, rep.rel_error
        checked += 1
    assert checked >= 8


def test_minor_identity_rejects_zero_coordinate(pencil01234, fix_b):
    with pytest.raises(ValueError, match="dimension reduction"):
        minor_identity_check(fix_b, [complex(1.5), complex(4.0)], pencil01234)


def test_duality_exact_fixture(fix_c):
    rep = hamiltonians_via_sov(fix_c)
    assert rep.max_rel_coeff_error < 1e-9
    assert rep.ell_rank == fix_c.pencil.n
    assert rep.squares_span_dim == fix_c.pencil.n
    # lambda^2 matches -h(a_k)/p_D(a_k) with the pinned constant -1
    pdf = fix_c.pencil.vanishing_poly().to_float()
    hf = rep.h_direct
    sep = separate(fix_c)
    for a, f in zip(sep.simple_finite_roots, rep.f_values):
        assert complex(f) == pytest.approx(-(hf(a) / pdf(a)), rel=1e-9)


def test_duality_float_points():
    for seed in range(8):
        from quadric_gaudin.phase import sample_pencil_point

        pencil, _ = sample_pencil_point(6, 900 + seed)
        fp = pencil.to_float()
        x = sample_point_x(fp, seed)
        y = sample_point_y(fp, x, seed + 1)
        pt = PhasePoint(fp, x, y)
        try:
            rep = hamiltonians_via_sov(pt)
        except ValueError:
            continue  # conditioning guard: skip non-generic draws
        assert rep.max_rel_coeff_error < 1e-9
        assert rep.ell_rank == 3


def test_h_reconstruction_from_root_values_is_unique(fix_c):
    # evaluation at the n distinct roots determines h of degree <= n-1
    rep = hamiltonians_via_sov(fix_c)
    sep = separate(fix_c)
    nodes = list(sep.simple_finite_roots)
    pdf = fix_c.pencil.vanishing_poly().to_float()
    vals = [-pdf(a) * f for a, f in zip(nodes, rep.f_values)]
    h2 = lagrange_interpolate(nodes, vals)
    assert h2.degree <= fix_c.pencil.n - 1
    for k in range(len(rep.h_direct.coeffs)):
        assert complex(h2.coeff(k)) == pytest.approx(
            complex(rep.h_direct.coeff(k)), rel=1e-9, abs=1e-9
        )


def test_exact_divisor_keeps_close_simple_roots_apart():
    from fractions import Fraction

    from quadric_gaudin.sov import exact_divisor

    # (z - 1)(z - 1 - 10^-12) is squarefree: its two roots are simple, so they
    # stay two points of multiplicity 1 although their floats nearly coincide
    eps = Fraction(1, 10**12)
    p = Polynomial([gr(-1), gr(1)]) * Polynomial([gr(-1 - eps), gr(1)])
    finite, inf_mult = exact_divisor(p, 3)
    assert [m for _, m in finite] == [1, 1] and inf_mult == 1
    assert sum(m for _, m in finite) == p.degree
    assert all(abs(r - 1) < 1e-9 for r, _ in finite)
    # a genuine double root keeps its multiplicity, and they sum to deg p
    q = Polynomial([gr(-1), gr(1)]) * Polynomial([gr(-1), gr(1)]) * Polynomial([gr(-3), gr(1)])
    finite, inf_mult = exact_divisor(q, 4)
    assert [m for _, m in finite] == [2, 1] and inf_mult == 1
    assert abs(finite[0][0] - 1) < 1e-12 and abs(finite[1][0] - 3) < 1e-12
