import random

import pytest

from quadric_gaudin.multipoly import (
    MultiPoly,
    quadric,
    reduce_mod_quadrics,
    weighted_quadric,
)
from quadric_gaudin.phase import Pencil
from quadric_gaudin.scalars import gr


@pytest.fixture
def pencil():
    return Pencil([gr(k) for k in range(5)])


def _random_poly(rng, nvars=5, terms=6, dmax=4):
    out = MultiPoly.zero(nvars)
    for _ in range(terms):
        e = [0] * nvars
        for _ in range(rng.randint(0, dmax)):
            e[rng.randrange(nvars)] += 1
        out = out + MultiPoly.monomial(
            nvars, tuple(e), gr(rng.randint(-5, 5), rng.randint(-2, 2))
        )
    return out


def test_no_zero_terms_stored():
    p = MultiPoly(3, {(1, 0, 0): gr(1)}) - MultiPoly(3, {(1, 0, 0): gr(1)})
    assert p.is_zero() and p.terms == {}


def test_exact_ring_axioms():
    rng = random.Random(2)
    for _ in range(30):
        a, b, c = (_random_poly(rng) for _ in range(3))
        assert (a + b) - b == a
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_homogeneity_and_degree():
    q = quadric(4)
    assert q.is_homogeneous() and q.total_degree() == 2
    mixed = q + MultiPoly.variable(4, 0)
    assert not mixed.is_homogeneous()


def test_evaluate():
    q = quadric(5)
    x = [gr(1), gr(1), gr(0, 2), gr(1), gr(1)]
    assert q.evaluate(x).is_zero()
    q1 = weighted_quadric([gr(k) for k in range(5)])
    assert q1.evaluate(x).is_zero()


def test_reduce_generators(pencil):
    q = quadric(5)
    q1 = weighted_quadric(pencil.mu)
    assert reduce_mod_quadrics(q, pencil, "q-only").is_zero()
    assert reduce_mod_quadrics(q, pencil, "q-and-q1").is_zero()
    assert reduce_mod_quadrics(q1, pencil, "q-and-q1").is_zero()
    x3q1 = MultiPoly.variable(5, 2) * q1
    assert reduce_mod_quadrics(x3q1, pencil, "q-and-q1").is_zero()


def test_reduce_rewrite_rule(pencil):
    got = reduce_mod_quadrics(MultiPoly.monomial(5, (2, 0, 0, 0, 0)), pencil, "q-only")
    expect = MultiPoly(
        5,
        {
            (0, 2, 0, 0, 0): gr(-1),
            (0, 0, 2, 0, 0): gr(-1),
            (0, 0, 0, 2, 0): gr(-1),
            (0, 0, 0, 0, 2): gr(-1),
        },
    )
    assert got == expect


def test_reduce_ideal_membership(pencil):
    rng = random.Random(9)
    q = quadric(5)
    q1 = weighted_quadric(pencil.mu)
    for _ in range(20):
        f = _random_poly(rng)
        g = _random_poly(rng)
        member = f * q + g * q1
        assert reduce_mod_quadrics(member, pencil, "q-and-q1").is_zero()
        # q-only mode knows only the first quadric
        assert reduce_mod_quadrics(f * q, pencil, "q-only").is_zero()


def test_reduce_idempotent_and_linear(pencil):
    rng = random.Random(4)
    for mode in ("q-only", "q-and-q1"):
        for _ in range(15):
            f = _random_poly(rng)
            g = _random_poly(rng)
            rf = reduce_mod_quadrics(f, pencil, mode)
            assert reduce_mod_quadrics(rf, pencil, mode) == rf
            c = gr(rng.randint(-4, 4), rng.randint(-2, 2))
            lhs = reduce_mod_quadrics(f.scale(c) + g, pencil, mode)
            rhs = rf.scale(c) + reduce_mod_quadrics(g, pencil, mode)
            assert lhs == rhs


def test_degenerate_pencil_rejected():
    with pytest.raises(ValueError, match="degenerate pencil"):
        bad = Pencil.__new__(Pencil)
        bad.mu = (gr(1), gr(1), gr(2), gr(3), gr(4))
        bad.N = 5
        bad.n = 2
        reduce_mod_quadrics(quadric(5), bad, "q-and-q1")


def _reduce_by_rescanning(f, pencil, mode):
    """Reference normal form: rewrite the first reducible term, rescan, repeat."""
    mu, n = pencil.mu, f.nvars

    def sq(i):
        return tuple(2 if k == i else 0 for k in range(n))

    if mode == "q-only":
        rules = {0: MultiPoly(n, {sq(i): gr(-1) for i in range(1, n)})}
    else:
        d = mu[0] - mu[1]
        rules = {
            0: MultiPoly(n, {sq(i): (mu[1] - mu[i]) / d for i in range(2, n)}),
            1: MultiPoly(n, {sq(i): (mu[i] - mu[0]) / d for i in range(2, n)}),
        }
    work = f
    while True:
        target = next(((e, v) for e in work.terms for v in rules if e[v] >= 2), None)
        if target is None:
            return work
        e, v = target
        c = work.terms[e]
        rest = list(e)
        rest[v] -= 2
        work = work - MultiPoly(n, {e: c}) + rules[v].mul_monomial(tuple(rest), c)


def test_reduce_matches_rescanning_reference():
    rng = random.Random(11)
    pencil = Pencil([gr(3), gr(-1), gr(1, 2), gr(7), gr(-4)])
    for mode in ("q-only", "q-and-q1"):
        for _ in range(25):
            f = _random_poly(rng, terms=8, dmax=6)
            assert reduce_mod_quadrics(f, pencil, mode) == _reduce_by_rescanning(f, pencil, mode)
