"""Property tests of GaussianRational against a pair-of-Fraction oracle.

Every result is compared with (re, im) arithmetic on ``fractions.Fraction``
written out below, and every stored triple (a + b i)/d is checked to be the
canonical one: d > 0 and gcd(a, b, d) == 1.
"""

import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from quadric_gaudin.scalars import GaussianRational, format_scalar, gr, parse_scalar  # noqa: E402

settings.register_profile("scalars", max_examples=200, deadline=None)
settings.load_profile("scalars")

ints = st.integers(-10**6, 10**6) | st.integers(-10**40, 10**40)
fractions = st.builds(Fraction, ints, st.integers(1, 10**6) | st.integers(1, 10**30))
small_fractions = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
rationals = ints | fractions
exact = (st.builds(gr, fractions, fractions) | st.builds(gr, small_fractions, small_fractions)
         | st.builds(gr, rationals) | st.builds(gr, st.just(0), rationals))


# -- the oracle: Gaussian rationals as (re, im) pairs of Fractions -------------

def pair(z):
    if isinstance(z, GaussianRational):
        return (z.re, z.im)
    return (Fraction(z), Fraction(0))


def o_add(u, v):
    return (u[0] + v[0], u[1] + v[1])


def o_sub(u, v):
    return (u[0] - v[0], u[1] - v[1])


def o_mul(u, v):
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def o_div(u, v):
    n = v[0] * v[0] + v[1] * v[1]
    return ((u[0] * v[0] + u[1] * v[1]) / n, (u[1] * v[0] - u[0] * v[1]) / n)


def o_qsqrt(q):
    if q < 0:
        return None
    n, d = math.isqrt(q.numerator), math.isqrt(q.denominator)
    return Fraction(n, d) if n * n == q.numerator and d * d == q.denominator else None


def o_sqrt(u):
    re, im = u
    if not (re or im):
        return (Fraction(0), Fraction(0))
    r = o_qsqrt(re * re + im * im)
    if r is None:
        return None
    if not im:
        s = o_qsqrt(abs(re))
        if s is None:
            return None
        return (s, Fraction(0)) if re > 0 else (Fraction(0), s)
    c = o_qsqrt((re + r) / 2)
    if not c:
        return None
    return (c, im / (2 * c))


def canonical(z):
    assert isinstance(z, GaussianRational)
    assert z._d > 0 and math.gcd(z._a, z._b, z._d) == 1
    return z


# -- properties ----------------------------------------------------------------

@given(exact, exact)
def test_field_operations_match_the_oracle(u, v):
    assert pair(canonical(u + v)) == o_add(pair(u), pair(v))
    assert pair(canonical(u - v)) == o_sub(pair(u), pair(v))
    assert pair(canonical(u * v)) == o_mul(pair(u), pair(v))
    if v:
        assert pair(canonical(u / v)) == o_div(pair(u), pair(v))
    else:
        with pytest.raises(ZeroDivisionError):
            u / v


@given(exact, rationals)
def test_mixed_operands_match_the_oracle(u, q):
    p = pair(q)
    assert pair(canonical(u + q)) == pair(canonical(q + u)) == o_add(pair(u), p)
    assert pair(canonical(u - q)) == o_sub(pair(u), p)
    assert pair(canonical(q - u)) == o_sub(p, pair(u))
    assert pair(canonical(u * q)) == pair(canonical(q * u)) == o_mul(pair(u), p)
    if q:
        assert pair(canonical(u / q)) == o_div(pair(u), p)
    if u:
        assert pair(canonical(q / u)) == o_div(p, pair(u))


@given(exact, st.integers(0, 7))
def test_unary_operations_match_the_oracle(u, k):
    re, im = pair(u)
    assert pair(canonical(-u)) == (-re, -im)
    assert pair(canonical(u.conjugate())) == (re, -im)
    assert u.norm2() == re * re + im * im
    acc = (Fraction(1), Fraction(0))
    for _ in range(k):
        acc = o_mul(acc, (re, im))
    assert pair(canonical(u ** k)) == acc
    assert complex(u) == complex(float(re), float(im))
    assert bool(u) == (not u.is_zero()) == bool(re or im)


@given(exact)
def test_sqrt_matches_the_oracle(u):
    r = u.sqrt()
    want = o_sqrt(pair(u))
    if want is None:
        assert r is None
    else:
        assert pair(canonical(r)) == want
    w = (u * u).sqrt()
    assert w is not None and (w == u or w == -u)


@given(rationals)
def test_rationals_embed_with_their_hash(q):
    z = canonical(gr(q))
    assert z == q and q == z
    assert hash(z) == hash(q)
    assert canonical(gr(Fraction(q), 0)) == z


@given(exact)
def test_stored_form_is_canonical_and_hash_is_the_pair_hash(u):
    canonical(u)
    re, im = pair(u)
    assert u == gr(re, im)
    assert hash(u) == (hash(re) if not im else hash((re, im)))


@given(exact)
def test_format_parse_roundtrip(u):
    assert canonical(parse_scalar(format_scalar(u))) == u
