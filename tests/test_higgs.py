import random

import pytest

from quadric_gaudin.higgs import (
    PoleEvaluationError,
    build_phi,
    hamiltonians,
    hecke_transform,
    infinity_expansion,
    is_nilpotent,
    mat_mul,
    mat_trace,
    off_pole_samples,
    reduced_tr_phi_squared,
    spectral_polynomial,
)
from quadric_gaudin.phase import PhasePoint, gauge_shift, sample_phase_point
from quadric_gaudin.scalars import gr
from quadric_gaudin.unipoly import Polynomial


def test_trace_free_and_pole_error(fix_c):
    phi = build_phi(fix_c)
    m = phi.at(gr(5))
    assert mat_trace(m).is_zero()
    with pytest.raises(PoleEvaluationError) as exc:
        phi.at(gr(2))
    assert exc.value.index == 2


def test_residues_nilpotent_and_match_pairs(fix_c):
    phi = build_phi(fix_c)
    for i in range(5):
        r = phi.residue(i)
        x, y = fix_c.x[i], fix_c.y[i]
        assert r == ((-x * y, x * x), (-y * y, x * y))
        assert mat_trace(r).is_zero()
        det = r[0][0] * r[1][1] - r[0][1] * r[1][0]
        assert det.is_zero()  # rank 1 nilpotent
        sq = mat_mul(r, r)
        assert all(v.is_zero() for row in sq for v in row)


def test_phi_nilpotent_everywhere_when_y_equals_x(pencil01234, fix_a):
    pt = PhasePoint(pencil01234, fix_a, fix_a)
    phi = build_phi(pt)
    for z in off_pole_samples(pencil01234, 3):
        m = phi.at(z)
        sq = mat_mul(m, m)
        assert all(v.is_zero() for row in sq for v in row)


def test_hamiltonians_fixture_values(fix_c):
    f = hamiltonians(fix_c)
    assert f[0] == gr(-35)
    mu = fix_c.pencil.mu
    assert sum(f[1:], f[0]).is_zero()
    assert sum((mu[i] * f[i] for i in range(1, 5)), mu[0] * f[0]).is_zero()
    assert sum((mu[i] * mu[i] * f[i] for i in range(1, 5)), mu[0] * mu[0] * f[0]).is_zero()


def test_hamiltonians_vanish_for_gauge_direction(pencil01234, fix_a):
    pt = PhasePoint(pencil01234, fix_a, fix_a)
    assert all(v.is_zero() for v in hamiltonians(pt))


def test_residue_sum_proportional_to_infinity_puncture(fix_c):
    phi0, phi1 = infinity_expansion(fix_c)
    sum_y2 = sum((v * v for v in fix_c.y[1:]), fix_c.y[0] * fix_c.y[0])
    # phi0 = (sum y^2) * (e2 (x) e2); the upper row and diagonal vanish
    assert phi0[0][0].is_zero() and phi0[0][1].is_zero() and phi0[1][1].is_zero()
    assert phi0[1][0] == -sum_y2
    # tr(phi0 phi1) = 0 and e2 is an eigenvector of phi1
    assert mat_trace(mat_mul(phi0, phi1)).is_zero()
    assert phi1[0][1].is_zero()


def test_laurent_coefficients_match_direct_expansion(fix_c):
    # Phi(z) agrees with phi0/z + phi1/z^2 + O(1/z^3) numerically at large z
    phi = build_phi(fix_c)
    phi0, phi1 = infinity_expansion(fix_c)
    z = 1.0e7
    got = build_phi(fix_c.to_float()).at(complex(z))
    for a in range(2):
        for b in range(2):
            approx = complex(phi0[a][b]) / z + complex(phi1[a][b]) / z**2
            assert abs(got[a][b] - approx) <= 1e-12 * max(1.0, abs(approx)) + 1e-20


def test_unconstrained_x_breaks_trace_pairing(pencil01234):
    # drop sum mu x^2 = 0: tr(phi0 phi1) generically nonzero
    rng = random.Random(8)
    nonzero = 0
    for _ in range(10):
        x = [gr(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(5)]
        y = [gr(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(5)]
        if all(v.is_zero() for v in x):
            continue
        pt = PhasePoint(pencil01234, x, y, check=False)
        phi0, phi1 = infinity_expansion(pt)
        nonzero += not mat_trace(mat_mul(phi0, phi1)).is_zero()
    assert nonzero >= 8


def test_reduced_quadratic(fix_c):
    rq = reduced_tr_phi_squared(fix_c)
    assert rq.h.degree <= fix_c.pencil.n - 1
    # h = sum f_i L_i with the fixture f-vector
    h = Polynomial.zero()
    for fi, L in zip(rq.f, fix_c.pencil.lagrange_numerators()):
        h = h + L.scale(fi)
    assert rq.h == h
    shifted = gauge_shift(fix_c, gr(3, -2))
    assert reduced_tr_phi_squared(shifted).h == rq.h


def test_reduced_quadratic_zero_for_gauge_direction(pencil01234, fix_a):
    pt = PhasePoint(pencil01234, fix_a, fix_a)
    assert reduced_tr_phi_squared(pt).h.is_zero()


def test_hecke_triple_fixture(fix_c):
    t = hecke_transform(fix_c)
    assert t.c == Polynomial([gr(24), gr(-40), gr(10)])
    n = fix_c.pencil.n
    assert t.c.degree <= n and t.b.degree <= n + 1 and t.a.degree <= n + 2
    assert not is_nilpotent(t)


def test_hecke_identities_exact(fix_c):
    t = hecke_transform(fix_c)
    pd = fix_c.pencil.vanishing_poly()
    rq = reduced_tr_phi_squared(fix_c)
    spectral = spectral_polynomial(fix_c)
    # b^2 + ac = -p_D h
    assert (spectral + pd * rq.h).is_zero()
    # 2(b^2 + ac) = p_D^2 tr Phi^2 at off-pole samples
    phi = build_phi(fix_c)
    for z in off_pole_samples(fix_c.pencil, 4):
        lhs = spectral(z) + spectral(z)
        rhs = pd(z) * pd(z) * phi.trace_squared_at(z)
        assert (lhs - rhs).is_zero()


def test_hecke_gauge_direction_nilpotent(pencil01234, fix_a):
    pt = PhasePoint(pencil01234, fix_a, fix_a)
    t = hecke_transform(pt)
    assert t.b == t.c  # y = x collapses b onto c
    assert is_nilpotent(t)
    assert spectral_polynomial(pt).is_zero()


def test_trace_squared_two_computations_agree(fix_c):
    # matrix-entry route against the partial-fraction route, exactly
    phi = build_phi(fix_c)
    rq = reduced_tr_phi_squared(fix_c)
    pd = fix_c.pencil.vanishing_poly()
    for z in off_pole_samples(fix_c.pencil, 5):
        via_matrix = phi.trace_squared_at(z)
        via_f = gr(-2) * rq.h(z) / pd(z)
        assert (via_matrix - via_f).is_zero()


def test_sampled_points_all_higgs_identities():
    rng = random.Random(0)
    for trial in range(15):
        pt = sample_phase_point(5 + trial % 3, 100 + trial)
        t = hecke_transform(pt)
        rq = reduced_tr_phi_squared(pt)
        pd = pt.pencil.vanishing_poly()
        assert (t.spectral() + pd * rq.h).is_zero()
        shifted = gauge_shift(pt, gr(rng.randint(-5, 5), rng.randint(-5, 5)))
        ts = hecke_transform(shifted)
        assert ts.c == t.c  # c depends on x only
        assert ts.spectral() == t.spectral()  # b^2 + ac is gauge invariant
        assert hamiltonians(shifted) == hamiltonians(pt)
        # residue sum identity in its scaled form
        phi0, _ = infinity_expansion(pt)
        assert phi0[0][0].is_zero() and phi0[0][1].is_zero() and phi0[1][1].is_zero()


def test_spectral_squarefree_generically():
    from quadric_gaudin.unipoly import resultant

    hits = 0
    for trial in range(20):
        pt = sample_phase_point(5, 500 + trial)
        s = spectral_polynomial(pt)
        if s.degree >= 1 and not resultant(s, s.derivative()).is_zero():
            hits += 1
    assert hits >= 18


def test_float_hecke_keeps_small_leading_coefficients():
    # N = 10: the leading coefficient of a, -sum y_i^2 = -0.88, is below
    # 1e-9 times a's coefficient scale (1.1e9, which grows like prod |mu|),
    # yet it is no cancellation dust: a keeps its degree n + 2
    import argparse

    from quadric_gaudin.cli import _trial_point

    args = argparse.Namespace(seed=482133599175, mu=None, mode="float", n=10, tol=1e-9)
    pt = _trial_point(args, 0)
    triple = hecke_transform(pt)
    assert triple.a.degree == pt.pencil.n + 2
    lead = -sum(v * v for v in pt.y)
    assert abs(triple.a.lead() - lead) <= 1e-9 * abs(lead)
    assert abs(lead) < 1e-9 * triple.a.coeff_scale()
