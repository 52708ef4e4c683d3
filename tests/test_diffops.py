import random
from fractions import Fraction

import pytest

from quadric_gaudin.diffops import (
    apply_Delta,
    apply_X,
    canonical_twist,
    monomials_up_to,
    symbol_quadratic_form,
    verify_commutation,
    verify_delta_q1,
    verify_descent,
    verify_descent_suite,
    verify_kohno_drinfeld,
    verify_symbol_pairing,
)
from quadric_gaudin.higgs import hamiltonians
from quadric_gaudin.multipoly import MultiPoly, quadric, reduce_mod_quadrics, weighted_quadric
from quadric_gaudin.phase import Pencil, sample_phase_point
from quadric_gaudin.scalars import gr


@pytest.fixture(scope="module")
def pencil5():
    return Pencil([gr(k) for k in range(5)])


def test_apply_X_examples(pencil5):
    f = MultiPoly.monomial(5, (1, 1, 0, 0, 0))
    got = apply_X(0, 1, f)
    expect = MultiPoly(5, {(2, 0, 0, 0, 0): gr(1), (0, 2, 0, 0, 0): gr(-1)})
    assert got == expect
    assert apply_X(0, 1, quadric(5)).is_zero()
    assert apply_X(0, 1, MultiPoly.monomial(5, (0, 0, 3, 0, 0))).is_zero()
    with pytest.raises(ValueError):
        apply_X(2, 2, f)


def test_X_preserves_homogeneous_degree(pencil5):
    rng = random.Random(1)
    for m in monomials_up_to(5, 3):
        if m.is_zero() or m.total_degree() < 1:
            continue
        d = m.total_degree()
        i, j = rng.sample(range(5), 2)
        out = apply_X(i, j, m)
        if not out.is_zero():
            assert out.is_homogeneous() and out.total_degree() == d


def test_delta_q1(pencil5):
    rep = verify_delta_q1(pencil5)
    assert rep.passed, rep.first_counterexample
    # spot value: Delta_1(q1) reduces to -2N x_1^2 mod q
    q1 = weighted_quadric(pencil5.mu)
    got = apply_Delta(0, q1, pencil5)
    target = MultiPoly.monomial(5, (2, 0, 0, 0, 0), gr(-10))
    assert reduce_mod_quadrics(got - target, pencil5, "q-only").is_zero()


def test_delta_of_q_and_constants(pencil5):
    q = quadric(5)
    for i in range(5):
        assert apply_Delta(i, q, pencil5).is_zero()
        assert apply_Delta(i, MultiPoly.constant(5, gr(3, 1)), pencil5).is_zero()


def test_kohno_drinfeld_n5(pencil5):
    reports = verify_kohno_drinfeld(5, 3)
    for rep in reports:
        assert rep.passed, (rep.name, rep.first_counterexample)
    assert sum(r.cases_checked for r in reports) > 1000


def test_kohno_drinfeld_minimum_size():
    with pytest.raises(ValueError):
        verify_kohno_drinfeld(3)


def test_orthogonal_plane_example():
    # [Om_12, Om_34] kills x1 x2 x3 x4: rotations in orthogonal planes
    m = MultiPoly.monomial(5, (1, 1, 1, 1, 0))

    def omega(i, j, f):
        return apply_X(i, j, apply_X(i, j, f))

    assert omega(0, 1, omega(2, 3, m)) == omega(2, 3, omega(0, 1, m))


def test_so3_bracket_sign():
    # frozen by direct expansion: [X_12, X_13] = -X_23
    for m in monomials_up_to(4, 3):
        lhs = apply_X(0, 1, apply_X(0, 2, m)) - apply_X(0, 2, apply_X(0, 1, m))
        assert (lhs + apply_X(1, 2, m)).is_zero()


def test_commutation_rational_pencils():
    p5 = Pencil([gr(k) for k in range(5)])
    rep = verify_commutation(5, p5, 3)
    assert rep.passed and rep.cases_checked == 560
    rng = random.Random(3)
    mu = []
    while len(mu) < 6:
        c = Fraction(rng.randint(-20, 20), rng.randint(1, 7))
        if c not in mu:
            mu.append(c)
    p6 = Pencil([gr(c) for c in mu])
    rep6 = verify_commutation(6, p6, 2)
    assert rep6.passed
    assert verify_commutation(5, p5, 0).passed  # trivial at dmax 0


def test_descent_identities(pencil5):
    one = MultiPoly.constant(5, gr(1))
    rep = verify_descent(0, one, pencil5)
    assert rep.passed
    x3 = MultiPoly.variable(5, 2)
    assert verify_descent(0, x3, pencil5).passed
    q = quadric(5)
    assert verify_descent(1, q, pencil5).passed
    with pytest.raises(ValueError):
        verify_descent(0, one + x3, pencil5)  # not homogeneous


def test_descent_suite(pencil5):
    rep = verify_descent_suite(5, pencil5, 2)
    assert rep.passed, rep.first_counterexample


def test_symbol_pairing(pencil5):
    rep = verify_symbol_pairing(pencil5, 2)
    assert rep.passed, rep.first_counterexample


def test_symbol_matches_hamiltonians():
    for seed in (0, 5, 9):
        pt = sample_phase_point(5, seed)
        f = hamiltonians(pt)
        for i in range(pt.pencil.N):
            assert (symbol_quadratic_form(i, pt) - f[i]).is_zero()


def test_canonical_twist_values():
    t6 = canonical_twist(6)
    assert t6.k == Fraction(-1) and t6.integral and t6.remainder_coefficient_is_zero
    t8 = canonical_twist(8)
    assert t8.k == Fraction(-2) and t8.integral
    t5 = canonical_twist(5)
    assert t5.k == Fraction(-1, 2) and not t5.integral
    assert t5.remainder_coefficient_is_zero


# -- the sparse-column kernel -----------------------------------------------


def _X_reference(i, j, f):
    """X_ij from its definition, x_i d_j - x_j d_i, on MultiPoly arithmetic."""
    n = f.nvars
    ei = tuple(1 if k == i else 0 for k in range(n))
    ej = tuple(1 if k == j else 0 for k in range(n))
    return f.diff(j).mul_monomial(ei) - f.diff(i).mul_monomial(ej)


def test_kernel_columns_match_the_definition():
    from quadric_gaudin.diffops import _cleared, _Operators

    N = 5
    pencil = Pencil([gr(v) for v in (Fraction(0), Fraction(1, 2), Fraction(-3), Fraction(5, 3), Fraction(2))])
    mu = pencil.mu
    weights, _, scales = _cleared(pencil)
    ops = _Operators(weights)
    # the cleared columns are Delta_i scaled by prod_{k != i} (mu_i - mu_k) with
    # mu scaled by its common denominator L = 6: that is scales[i] / L
    L = 6
    for m in monomials_up_to(N, 3):
        (e,) = m.terms
        for i in range(N):
            for j in range(N):
                if j != i:
                    assert apply_X(i, j, m) == _X_reference(i, j, m)
            ref = MultiPoly.zero(N)
            for j in range(N):
                if j != i:
                    ref = ref + _X_reference(i, j, _X_reference(i, j, m)).scale(gr(1) / (mu[i] - mu[j]))
            assert apply_Delta(i, m, pencil) == ref
            assert MultiPoly(N, ops.delta(i)[e]) == ref.scale(scales[i] / L)


def test_planted_delta_weight_fault_is_caught(monkeypatch):
    from quadric_gaudin import diffops

    clear = diffops._cleared

    def flipped(pencil):
        weights, mu, scales = clear(pencil)
        weights[0][2] = -weights[0][2]
        return weights, mu, scales

    monkeypatch.setattr(diffops, "_cleared", flipped)
    pencil = Pencil([gr(k) for k in (0, 1, 3, -2, 5)])
    # on degree <= 1 every Delta_i is diagonal, so the flipped weight commutes
    assert verify_commutation(5, pencil, 1).passed
    rep = verify_commutation(5, pencil, 2)
    assert not rep.passed and rep.cases_checked == 10 * 21
    m = MultiPoly.monomial(5, (2, 0, 0, 0, 0))
    assert rep.first_counterexample == f"[Delta0,Delta1] on {m!r}"


def test_suites_at_scale_n10():
    import math
    import time

    N = 10
    pencil = Pencil([gr(k) for k in range(N)])
    t0 = time.time()
    B4, B3 = math.comb(N + 4, 4), math.comb(N + 3, 3)
    kd = verify_kohno_drinfeld(N, 4)
    assert [r.cases_checked for r in kd] == [3 * math.comb(N, 4) * B4] + [math.comb(N, 3) * B4] * 3
    assert all(r.passed for r in kd), [r.first_counterexample for r in kd]
    comm = verify_commutation(N, pencil, 4)
    assert comm.passed and comm.cases_checked == math.comb(N, 2) * B4
    descent = verify_descent_suite(N, pencil, 3)
    assert descent.passed and descent.cases_checked == 2 * N * B3
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds the 120s bound of C8"


# -- the order bounds are tight ------------------------------------------------


def test_commutator_suites_are_tight_at_degree_3(monkeypatch):
    from quadric_gaudin import diffops

    def planted(e):
        """x_0^3 d_1^3 x^e: an order-3 term, zero on every monomial of degree < 3."""
        if e[1] < 3:
            return {}
        g = list(e)
        g[0] += 3
        g[1] -= 3
        return {tuple(g): e[1] * (e[1] - 1) * (e[1] - 2)}

    def commutes_with_plant(a, b, e):
        pairs = ((1, diffops._apply(a, b[e])), (-1, diffops._apply(b, a[e])), (1, planted(e)))
        return not diffops._combine(pairs)

    monkeypatch.setattr(diffops, "_commutes", commutes_with_plant)
    pencil = Pencil([gr(k) for k in range(5)])

    def reports(dmax):
        # the three [Om, Om] relations and [Delta_i, Delta_j]; so(3) compares no commutator
        return verify_kohno_drinfeld(5, dmax)[:3] + [verify_commutation(5, pencil, dmax)]

    assert all(rep.passed for rep in reports(2))
    x1_cubed = MultiPoly.monomial(5, (0, 3, 0, 0, 0))
    for rep in reports(3):
        assert not rep.passed and rep.complete
        assert rep.first_counterexample.endswith(f"on {x1_cubed!r}")


def test_symbol_pairing_is_tight_at_degree_1(monkeypatch):
    from quadric_gaudin import diffops

    column = diffops._x_column

    def planted(i, j, e):
        """The column of X_01 gains x_0 d_1 x^e, zero on constants."""
        col = column(i, j, e)
        if (i, j) == (0, 1) and e[1]:
            g = list(e)
            g[0] += 1
            g[1] -= 1
            col = diffops._combine(((1, col), (e[1], {tuple(g): 1})))
        return col

    monkeypatch.setattr(diffops, "_x_column", planted)
    pencil = Pencil([gr(k) for k in range(5)])
    assert verify_symbol_pairing(pencil, 0).passed
    rep = verify_symbol_pairing(pencil, 1)
    assert not rep.passed and rep.complete
    assert rep.first_counterexample == f"exact form i=0 on {MultiPoly.variable(5, 1)!r}"


def test_default_degrees_are_the_order_bounds(pencil5):
    from quadric_gaudin.diffops import COMMUTATOR_DEGREE, FIRST_ORDER_DEGREE

    assert (COMMUTATOR_DEGREE, FIRST_ORDER_DEGREE) == (3, 1)
    descent = verify_descent_suite(5, pencil5)
    assert descent.complete and descent.cases_checked == 2 * 5 * 6
    assert not verify_descent_suite(5, pencil5, 0).complete
    assert verify_symbol_pairing(pencil5).cases_checked == 2 * 5 * 6
    assert verify_commutation(5, pencil5).cases_checked == 560
    assert all(rep.complete for rep in verify_kohno_drinfeld(5))
    assert not any(rep.complete for rep in verify_kohno_drinfeld(5, 2))
