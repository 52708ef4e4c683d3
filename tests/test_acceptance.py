"""Acceptance suite: one test per criterion, one printed pass line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; exact means exact.
"""

import itertools
import time

import pytest

from quadric_gaudin.higgs import (
    build_phi,
    hamiltonians,
    hecke_transform,
    off_pole_samples,
)
from quadric_gaudin.linalg import rank_kernel
from quadric_gaudin.phase import (
    Pencil,
    PhasePoint,
    poisson_bracket,
    sample_phase_point,
    sample_point_x,
    sample_point_y,
)
from quadric_gaudin.scalars import gr
from quadric_gaudin.sov import (
    auxiliary_poly,
    minor_identity_check,
    separate,
    sov_matrix,
)
from quadric_gaudin.unipoly import Polynomial, lagrange_interpolate, roots
from quadric_gaudin.verystable import (
    DEGENERATE,
    VERY_STABLE,
    WOBBLY,
    classify,
    is_gauge_trivial,
    nilpotent_witness,
)

from conftest import exact_wobbly_point


def _pass(cid: str, text: str) -> None:
    print(f"\nACCEPTANCE {cid}: PASS  {text}")


@pytest.fixture(scope="module")
def exact_corpus():
    """100 seeded exact constrained points for each N in {5, 6, 7}."""
    corpus = {}
    for N in (5, 6, 7):
        corpus[N] = [sample_phase_point(N, 10_000 * N + s) for s in range(100)]
    return corpus


def test_c1_poisson_commutativity(exact_corpus):
    t0 = time.time()
    checked = 0
    for N, points in exact_corpus.items():
        for pt in points:
            for i, j in itertools.combinations(range(N), 2):
                assert poisson_bracket(pt, i, j).is_zero()
                checked += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds the 60s target"
    _pass("C1", f"{{f_i, f_j}} = 0 exactly at 300 points ({checked} brackets, {elapsed:.1f}s)")


def test_c2_hamiltonian_relations(exact_corpus):
    for N, points in exact_corpus.items():
        for pt in points:
            f = hamiltonians(pt)
            mu = pt.pencil.mu
            s0 = sum(f[1:], f[0])
            s1 = sum((mu[i] * f[i] for i in range(1, N)), mu[0] * f[0])
            s2 = sum((mu[i] * mu[i] * f[i] for i in range(1, N)), mu[0] * mu[0] * f[0])
            assert s0.is_zero() and s1.is_zero() and s2.is_zero()
    _pass("C2", "sum f = sum mu f = sum mu^2 f = 0 exactly at all 300 points")


def test_c3_fixture_a():
    pencil = Pencil([gr(k) for k in range(5)])
    x = [gr(1), gr(1), gr(0, 2), gr(1), gr(1)]
    y = [gr(3), gr(-4), gr(0), gr(0), gr(1)]

    # independent expansion oracle: interpolate the defining sum at 5 nodes
    nodes = [gr(9 + k, 2) for k in range(5)]
    vals = []
    for z in nodes:
        acc = gr(0)
        for i in range(5):
            term = x[i] * x[i]
            for j in range(5):
                if j != i:
                    term = term * (z - pencil.mu[j])
            acc = acc + term
        vals.append(acc)
    oracle_p = lagrange_interpolate(nodes, vals)
    golden = Polynomial([gr(24), gr(-40), gr(10)])
    assert oracle_p == golden

    assert auxiliary_poly(x, pencil) == golden
    assert classify(x, pencil).tag == VERY_STABLE

    pt = PhasePoint(pencil, x, y)
    sep = separate(pt)
    M = sov_matrix(
        [complex(v) for v in x], list(sep.simple_finite_roots), pencil.to_float()
    )
    rank, kernel = rank_kernel(M, tol=1e-9)
    assert rank == 4 and len(kernel) == 1
    # exact certificate that the kernel is the gauge line span(x)
    res = nilpotent_witness(x, pencil)
    assert res.witness is None and res.kernel_is_gauge_line

    # hand oracle for f_1: (-7)^2/(0-1) + (-6i)^2/(0-2) + (-3)^2/(0-3) + (-2)^2/(0-4)
    w = [x[0] * y[j] - x[j] * y[0] for j in range(5)]
    oracle_f1 = sum(
        (w[j] * w[j] / (pencil.mu[0] - pencil.mu[j]) for j in range(2, 5)),
        w[1] * w[1] / (pencil.mu[0] - pencil.mu[1]),
    )
    assert oracle_f1 == gr(-35)
    assert hamiltonians(pt)[0] == gr(-35)
    _pass("C3", "FIX-A: p = 10z^2-40z+24, very stable, rank 4 kernel = span(x), f_1 = -35")


def test_c4_fixture_b():
    pencil = Pencil([gr(k) for k in range(5)])
    x = [gr(0, 1), gr(1), gr(1), gr(0, 1), gr(0)]
    golden = Polynomial([gr(-24), gr(22), gr(-4)])
    assert auxiliary_poly(x, pencil) == golden
    v = classify(x, pencil)
    assert v.tag == DEGENERATE
    assert v.zero_indices == (4,)
    assert any(abs(r - 4.0) < 1e-12 and m == 1 for r, m in v.finite_roots)
    assert len(v.reduced_mu) == 4
    assert v.reduced is not None
    _pass("C4", "FIX-B: p = -4z^2+22z-24, degenerate at x_5 = 0 with root 4 = mu_5, recursed to N = 4")


def _very_stable_float_point(seed: int):
    """Well-conditioned float point on a seeded integer pencil, or None."""
    import random

    rng = random.Random(seed)
    mu = rng.sample(range(-18, 19), 6)
    pencil = Pencil([complex(m) for m in mu])
    x = sample_point_x(pencil, seed)
    y = sample_point_y(pencil, x, seed + 1)
    pt = PhasePoint(pencil, x, y)
    p = auxiliary_poly(x, pencil)
    if p.degree != pencil.n:
        return None
    rs = roots(p)
    # conditioning guards: simple well-separated roots away from the poles
    for a, b in itertools.combinations(rs, 2):
        if abs(a - b) < 0.05:
            return None
    for a in rs:
        if any(abs(a - m) < 0.05 for m in pencil.mu):
            return None
    return pt


def test_c5_sov_duality_float():
    from quadric_gaudin.sov import hamiltonians_via_sov

    done = 0
    seed = 0
    worst = 0.0
    while done < 50:
        seed += 1
        pt = _very_stable_float_point(20_000 + seed)
        if pt is None:
            continue
        rep = hamiltonians_via_sov(pt)
        assert rep.max_rel_coeff_error <= 1e-9, rep.max_rel_coeff_error
        worst = max(worst, rep.max_rel_coeff_error)
        done += 1
    _pass("C5", f"h reconstructed from (a_k, -p_D(a_k) lambda_k^2) on 50 float points, worst rel err {worst:.2e}")


@pytest.fixture(scope="module")
def dichotomy_corpus():
    wobbly = []
    seed = 0
    while len(wobbly) < 50:
        pencil, x, target = exact_wobbly_point(seed)
        seed += 1
        wobbly.append((pencil, x))
    stable = []
    seed = 0
    while len(stable) < 50:
        pt = sample_phase_point(5 + seed % 3, 30_000 + seed)
        seed += 1
        if any(v.is_zero() for v in pt.x):
            continue
        if classify(list(pt.x), pt.pencil).tag != VERY_STABLE:
            continue
        stable.append((pt.pencil, list(pt.x)))
    return wobbly, stable


def test_c6_very_stable_dichotomy(dichotomy_corpus):
    wobbly, stable = dichotomy_corpus
    for pencil, x in wobbly:
        assert classify(x, pencil).tag == WOBBLY
        res = nilpotent_witness(x, pencil)
        assert res.witness is not None
        y = list(res.witness)
        assert not is_gauge_trivial(x, y)
        pt = PhasePoint(pencil, x, y)
        assert all(f.is_zero() for f in hamiltonians(pt))  # exact certificate 1
        t = hecke_transform(pt)
        assert t.spectral().is_zero()  # exact certificate 2: b^2 + ac = 0
    for pencil, x in stable:
        res = nilpotent_witness(x, pencil)
        assert res.witness is None
        assert res.kernel_dim == 1 and res.kernel_is_gauge_line
    _pass("C6", "50 wobbly points all yield doubly-verified witnesses; 50 very stable kernels equal span(x)")


@pytest.fixture(scope="module")
def hecke_corpus():
    pts = []
    for N in (5, 6, 7):
        for s in range(20):
            pts.append(sample_phase_point(N, 40_000 * N + s))
    return pts


def test_c7_hecke_identity(hecke_corpus):
    deg_c_full = 0
    for pt in hecke_corpus:
        n = pt.pencil.n
        t = hecke_transform(pt)
        assert t.c.degree <= n and t.b.degree <= n + 1 and t.a.degree <= n + 2
        # 2(b^2+ac) and p_D^2 tr Phi^2 are polynomials of degree <= 2n + 2;
        # exact agreement at 2N - 3 > 2n + 2 points is a polynomial identity
        phi = build_phi(pt)
        pd = pt.pencil.vanishing_poly()
        spectral = t.spectral()
        for z in off_pole_samples(pt.pencil, 2 * pt.pencil.N - 3):
            lhs = spectral(z) + spectral(z)
            rhs = pd(z) * pd(z) * phi.trace_squared_at(z)
            assert (lhs - rhs).is_zero()
        if t.c.degree == n:
            deg_c_full += 1
    share = deg_c_full / len(hecke_corpus)
    assert share >= 0.9
    _pass("C7", f"2(b^2+ac) = p_D^2 tr Phi^2 exactly on {len(hecke_corpus)} points; deg c = n on {share:.0%}")


def test_c8_operator_suite():
    from quadric_gaudin.diffops import (
        apply_Delta,
        monomials_up_to,
        verify_commutation,
        verify_delta_q1,
        verify_descent_suite,
        verify_kohno_drinfeld,
    )
    from quadric_gaudin.multipoly import quadric

    t0 = time.time()
    for N, mu in ((5, [gr(k) for k in range(5)]), (6, [gr(2 * k - 3) for k in range(6)])):
        pencil = Pencil(mu)
        for rep in verify_kohno_drinfeld(N, 3):
            assert rep.passed, (N, rep.name, rep.first_counterexample)
        rep = verify_commutation(N, pencil, 3)
        assert rep.passed, rep.first_counterexample
        rep = verify_descent_suite(N, pencil, 3)
        assert rep.passed, rep.first_counterexample
        rep = verify_delta_q1(pencil)
        assert rep.passed, rep.first_counterexample
        # Delta_i(f q) = Delta_i(f) q exactly over the full basis
        q = quadric(N)
        for i in range(N):
            for m in monomials_up_to(N, 3):
                lhs = apply_Delta(i, m * q, pencil)
                rhs = apply_Delta(i, m, pencil) * q
                assert (lhs - rhs).is_zero()
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds the 120s target"
    _pass("C8", f"operator suite exact for N = 5, 6 at degree <= 3 ({elapsed:.1f}s)")


def test_c9_orthomodel():
    from quadric_gaudin.orthomodel import (
        build_A,
        rank_and_kernel_of_A,
        skew_adjoint_defect,
        verify_equivalence,
    )

    pts = [sample_phase_point(5 + s % 3, 50_000 + s) for s in range(20)]
    for pt in pts:
        zs = off_pole_samples(pt.pencil, 3)
        for z in zs:
            defect = skew_adjoint_defect(pt, z)
            assert all(v.is_zero() for row in defect.rows for v in row)
            A = build_A(pt, z)
            assert all(v.is_zero() for v in A.matvec(list(pt.x)))
            rank, _ = rank_and_kernel_of_A(pt, z)
            assert rank <= 2
        rep = verify_equivalence(pt, zs)
        assert rep.passed and rep.checked == 3
    _pass("C9", "skew-adjointness, A x = 0, rank <= 2, and Phi equivalence exact on 20 points x 3 samples")


def test_c10_minor_identity():
    checked = 0
    signs = set()
    seed = 0
    while checked < 20:
        pt = sample_phase_point(5, 60_000 + seed)
        seed += 1
        if any(v.is_zero() for v in pt.x):
            continue
        sep = separate(pt)
        if len(sep.simple_finite_roots) != pt.pencil.n:
            continue
        rep = minor_identity_check(
            list(pt.x), list(sep.simple_finite_roots), pt.pencil, tol=1e-9
        )
        assert rep.match, rep.rel_error
        signs.add(rep.sign)
        checked += 1
    # frozen after the first run: the normalized ratio is exactly +1 at N = 5
    assert signs == {1}
    _pass("C10", "cofactors = lead(p)^(N-1) * x_j * closed form with global sign +1 on 20 points")
