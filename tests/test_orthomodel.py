import random

import pytest

from quadric_gaudin.higgs import hecke_transform, off_pole_samples
from quadric_gaudin.orthomodel import (
    PencilForm,
    build_A,
    lift_vz,
    rank_and_kernel_of_A,
    skew_adjoint_defect,
    trivial_subbundle_probe,
    verify_equivalence,
)
from quadric_gaudin.phase import PhasePoint, sample_phase_point
from quadric_gaudin.scalars import gr


def test_pencil_form_degeneracy(pencil01234):
    form = PencilForm(pencil01234)
    assert form.degenerate_at(gr(2))
    assert not form.degenerate_at(gr(5))
    assert form.weights(gr(5))[0] == gr(5)


def test_build_A_pole_rejected(fix_c):
    with pytest.raises(ValueError, match="pole"):
        build_A(fix_c, gr(3))


def test_skew_adjointness_exact_identity(fix_c):
    # D^T A + A^T D = 0 holds with no constraints used
    for z in off_pole_samples(fix_c.pencil, 3):
        defect = skew_adjoint_defect(fix_c, z)
        assert all(v.is_zero() for row in defect.rows for v in row)
    form = PencilForm(fix_c.pencil)
    rng = random.Random(4)
    z = gr(5)
    A = build_A(fix_c, z)
    for _ in range(10):
        u = [gr(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(5)]
        w = [gr(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(5)]
        lhs = form.apply(z, A.matvec(u), w) + form.apply(z, u, A.matvec(w))
        assert lhs.is_zero()


def test_A_annihilates_x_and_rank(fix_c):
    z = gr(5)
    A = build_A(fix_c, z)
    assert all(v.is_zero() for v in A.matvec(list(fix_c.x)))
    rank, kernel = rank_and_kernel_of_A(fix_c, z)
    assert rank == 2
    assert len(kernel) == fix_c.pencil.N - 2


def test_A_vanishes_for_gauge_direction(pencil01234, fix_a):
    pt = PhasePoint(pencil01234, fix_a, fix_a)
    A = build_A(pt, gr(5))
    assert all(v.is_zero() for row in A.rows for v in row)


def test_lift_vz(fix_c):
    z = gr(5)
    form = PencilForm(fix_c.pencil)
    for v in (list(fix_c.x), list(fix_c.y)):
        vz = lift_vz(v, fix_c, z)
        assert form.apply(z, vz, list(fix_c.x)).is_zero()
    with pytest.raises(ValueError, match="sum v_i x_i"):
        lift_vz([gr(1), gr(0), gr(0), gr(0), gr(0)], fix_c, z)


def test_equivalence_with_higgs_fixture(fix_c):
    zs = [gr(5), gr(6), gr(-1)]
    rep = verify_equivalence(fix_c, zs)
    assert rep.passed and rep.checked == 3
    # coefficient of x_z in A(x_z) equals b(z)/p_D(z)
    triple = hecke_transform(fix_c)
    pd = fix_c.pencil.vanishing_poly()
    for sample in rep.samples:
        alpha = sample.coefficients[0]
        assert (alpha * pd(sample.z) - triple.b(sample.z)).is_zero()


def test_equivalence_skips_dependent_frame(pencil01234, fix_a):
    pt = PhasePoint(pencil01234, fix_a, fix_a)  # y = x: frames collapse
    rep = verify_equivalence(pt, [gr(5)])
    assert rep.samples[0].skipped
    assert rep.passed and rep.checked == 0


def test_subbundle_probe(fix_c, pencil01234, fix_b):
    assert trivial_subbundle_probe(fix_c).both_vanish
    ptb = PhasePoint(pencil01234, fix_b, fix_b)
    assert trivial_subbundle_probe(ptb).both_vanish
    # unconstrained x: the 1/z^2 coefficient is sum mu x^2 != 0 generically
    rng = random.Random(6)
    hits = 0
    for _ in range(10):
        x = [gr(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(5)]
        if all(v.is_zero() for v in x):
            continue
        pt = PhasePoint(pencil01234, x, [gr(0)] * 5, check=False)
        probe = trivial_subbundle_probe(pt)
        hits += not probe.both_vanish
    assert hits >= 8


def test_equivalence_on_sampled_points():
    for seed in range(6):
        pt = sample_phase_point(5 + seed % 3, 8000 + seed)
        zs = off_pole_samples(pt.pencil, 3)
        rep = verify_equivalence(pt, zs)
        assert rep.passed
        for z in zs:
            rank, _ = rank_and_kernel_of_A(pt, z)
            assert rank <= 2
            defect = skew_adjoint_defect(pt, z)
            assert all(v.is_zero() for row in defect.rows for v in row)


def test_rank_bound_at_twenty_samples(fix_c):
    for z in off_pole_samples(fix_c.pencil, 20):
        rank, _ = rank_and_kernel_of_A(fix_c, z)
        assert rank == 2  # generic: y outside span(x)


def test_equivalence_coefficients_are_hecke_polynomials(fix_c):
    # alpha, beta, gamma, delta times p_D match (b, -c, -a, -b) at n + 3
    # exact samples, enough to pin polynomials of degree <= n + 2
    n = fix_c.pencil.n
    zs = off_pole_samples(fix_c.pencil, n + 3)
    rep = verify_equivalence(fix_c, zs)
    assert rep.passed and rep.checked == n + 3
    triple = hecke_transform(fix_c)
    pd = fix_c.pencil.vanishing_poly()
    for s in rep.samples:
        alpha, beta, gamma, delta = s.coefficients
        assert (alpha * pd(s.z) - triple.b(s.z)).is_zero()
        assert (beta * pd(s.z) + triple.c(s.z)).is_zero()
        assert (gamma * pd(s.z) + triple.a(s.z)).is_zero()
        assert (delta * pd(s.z) + triple.b(s.z)).is_zero()


def test_nearly_proportional_exact_point_is_checked_not_skipped():
    # y = x + 10^-12 y0 is constrained and every x_i y_j - x_j y_i is
    # 10^-12 w0_ij: tiny but nonzero, so the exact samples are all checked
    from fractions import Fraction

    from quadric_gaudin.scalars import GaussianRational

    pt0 = sample_phase_point(5, 7)
    eps = GaussianRational(Fraction(1, 10**12))
    pt = PhasePoint(pt0.pencil, pt0.x, [xi + eps * yi for xi, yi in zip(pt0.x, pt0.y)])
    assert all(v == eps * v0 for row, row0 in zip(pt.pair_invariants, pt0.pair_invariants)
               for v, v0 in zip(row, row0))
    zs = off_pole_samples(pt.pencil, 3)
    rep = verify_equivalence(pt, zs)
    assert rep.checked == 3 and rep.passed
