import itertools
import math
import random
from fractions import Fraction

import pytest

from quadric_gaudin.phase import (
    DegeneratePointError,
    Pencil,
    PhasePoint,
    gauge_shift,
    pair_invariant,
    poisson_bracket,
    sample_pencil_point,
    sample_phase_point,
    sample_point_x,
    sample_point_y,
)
from quadric_gaudin.higgs import hamiltonians
from quadric_gaudin.scalars import dot, gr


def test_pencil_invariants():
    with pytest.raises(ValueError):
        Pencil([gr(0), gr(1), gr(2), gr(3)])  # N < 5
    with pytest.raises(ValueError):
        Pencil([gr(0), gr(1), gr(1), gr(3), gr(4)])  # repeated point
    p = Pencil([gr(k) for k in range(6)])
    assert p.N == 6 and p.n == 3


def test_fixture_constraints(pencil01234, fix_a, fix_b, fix_c):
    assert all(r.is_zero() for r in fix_c.constraint_residuals())
    ptb = PhasePoint(pencil01234, fix_b, fix_b)  # y = x is always valid
    assert all(r.is_zero() for r in ptb.constraint_residuals())
    zero_cov = PhasePoint(pencil01234, fix_a, [gr(0)] * 5)
    assert all(r.is_zero() for r in zero_cov.constraint_residuals())


def test_point_validation_rejects_unconstrained(pencil01234):
    with pytest.raises(ValueError):
        PhasePoint(pencil01234, [gr(1)] * 5, [gr(0)] * 5)
    with pytest.raises(ValueError):
        PhasePoint(pencil01234, [gr(0)] * 5, [gr(0)] * 5)  # x = 0


def test_pair_invariant_values(fix_c):
    assert pair_invariant(fix_c, 0, 1) == gr(-7)
    assert pair_invariant(fix_c, 1, 0) == gr(7)
    for i in range(5):
        assert pair_invariant(fix_c, i, i).is_zero()


def test_gauge_shift(fix_c, pencil01234):
    assert gauge_shift(fix_c, gr(0)).y == fix_c.y
    shifted = gauge_shift(fix_c, gr(1))
    assert shifted.y == (gr(4), gr(-3), gr(0, 2), gr(1), gr(2))
    assert all(r.is_zero() for r in shifted.constraint_residuals())
    # double shift composes additively
    s, t = gr(2, 1), gr(-1, 3)
    a = gauge_shift(gauge_shift(fix_c, s), t)
    b = gauge_shift(fix_c, s + t)
    assert a.y == b.y


def test_gauge_invariance_of_invariants_and_hamiltonians():
    rng = random.Random(12)
    for trial in range(50):
        pt = sample_phase_point(5 + trial % 3, trial)
        t = gr(rng.randint(-9, 9), rng.randint(-9, 9))
        shifted = gauge_shift(pt, t)
        n = pt.pencil.N
        for i, j in itertools.combinations(range(n), 2):
            assert pair_invariant(pt, i, j) == pair_invariant(shifted, i, j)
        assert hamiltonians(pt) == hamiltonians(shifted)


def test_poisson_bracket_on_shell_and_trivial(fix_c, pencil01234, fix_a):
    for i, j in itertools.combinations(range(5), 2):
        assert poisson_bracket(fix_c, i, j).is_zero()
    assert poisson_bracket(fix_c, 2, 2).is_zero()
    zero_cov = PhasePoint(pencil01234, fix_a, [gr(0)] * 5)
    assert poisson_bracket(zero_cov, 0, 3).is_zero()


def test_poisson_bracket_off_shell_observation():
    # also zero at unconstrained pairs: the commutation is an identity on
    # C^{2N}, recorded here as an observation rather than a contract
    pencil = Pencil([gr(k) for k in range(5)])
    rng = random.Random(3)
    for _ in range(10):
        x = [gr(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(5)]
        y = [gr(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(5)]
        if all(v.is_zero() for v in x):
            continue
        pt = PhasePoint(pencil, x, y, check=False)
        vals = [poisson_bracket(pt, i, j) for i, j in itertools.combinations(range(5), 2)]
        assert all(v.is_zero() for v in vals)


def test_sampler_x_explicit_pencil(pencil01234):
    for seed in range(5):
        x = sample_point_x(pencil01234, seed)
        s0 = sum((v * v for v in x[1:]), x[0] * x[0])
        s1 = sum((m * v * v for m, v in zip(pencil01234.mu[1:], x[1:])),
                 pencil01234.mu[0] * x[0] * x[0])
        assert s0.is_zero() and s1.is_zero()


def _explicit_pencils():
    yield from (Pencil([gr(k) for k in range(N)]) for N in (5, 6, 7))
    for seed in range(3):
        yield Pencil([gr(m) for m in random.Random(seed).sample(range(-12, 13), 6)])
    # rational marked points: the chord has denominators to divide out
    yield Pencil([gr(Fraction(m, 3)) for m in (-7, -2, 1, 4, 11)])


@pytest.mark.parametrize("pencil", list(_explicit_pencils()),
                         ids=lambda p: ",".join(str(m.re) for m in p.mu))
def test_chord_samples_on_explicit_pencils(pencil):
    P = pencil.seed_point
    assert P is not None and sum(1 for v in P if v) >= 3
    seen = set()
    for seed in range(10):
        x = sample_point_x(pencil, seed)
        assert not dot(x, x) and not dot([m * v for m, v in zip(pencil.mu, x)], x)
        # not proportional to the seed point: a new point of X
        assert any(P[i] * x[j] != P[j] * x[i] for i, j in itertools.combinations(range(pencil.N), 2))
        # one chord step stays in the tangent hyperplane of {q = 0} at P
        assert not dot(P, x)
        # content divided out: Gaussian integers whose parts share no factor
        parts = [c for v in x for c in (v.re, v.im)]
        assert all(c.denominator == 1 for c in parts)
        assert math.gcd(*(c.numerator for c in parts)) == 1
        seen.add(tuple(x))
    assert len(seen) == 10


def test_sampler_x_float(pencil01234):
    fp = pencil01234.to_float()
    for seed in range(5):
        x = sample_point_x(fp, seed)
        s0 = sum(v * v for v in x)
        s1 = sum(m * v * v for m, v in zip(fp.mu, x))
        scale = max(abs(v) for v in x) ** 2
        assert abs(s0) <= 1e-12 * scale and abs(s1) <= 1e-12 * scale * 5


def test_sampler_y(pencil01234, fix_a):
    for seed in range(5):
        y = sample_point_y(pencil01234, fix_a, seed)
        pt = PhasePoint(pencil01234, fix_a, y)
        assert all(r.is_zero() for r in pt.constraint_residuals())


def test_sampler_y_repivots_past_zero_coordinates(pencil01234, fix_b):
    # fix_b has x_5 = 0; the pivot pair must move to usable indices
    y = sample_point_y(pencil01234, fix_b, 3)
    pt = PhasePoint(pencil01234, fix_b, y)
    assert all(r.is_zero() for r in pt.constraint_residuals())
    with pytest.raises(DegeneratePointError):
        sample_point_y(pencil01234, [gr(1), gr(0), gr(0), gr(0), gr(0)], 0)


def test_pencil_point_cosampler_determinism():
    a1, x1 = sample_pencil_point(6, 123)
    a2, x2 = sample_pencil_point(6, 123)
    assert [str(m) for m in a1.mu] == [str(m) for m in a2.mu]
    assert x1 == x2
    b, _ = sample_pencil_point(6, 124)
    assert [str(m) for m in a1.mu] != [str(m) for m in b.mu]


def test_sample_phase_point_constraints():
    for n in (5, 6, 7):
        for seed in range(5):
            pt = sample_phase_point(n, seed)
            assert pt.exact
            assert all(r.is_zero() for r in pt.constraint_residuals())
