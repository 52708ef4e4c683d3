import random
from fractions import Fraction

import pytest

from quadric_gaudin.scalars import (
    ONE,
    ZERO,
    as_complex,
    close,
    dot,
    ensure_finite,
    format_scalar,
    gr,
    negligible,
    one_like,
    parse_scalar,
    total,
    zero_like,
)


def test_exact_arithmetic_roundtrip():
    rng = random.Random(1)
    for _ in range(200):
        a = gr(Fraction(rng.randint(-50, 50), rng.randint(1, 20)),
               Fraction(rng.randint(-50, 50), rng.randint(1, 20)))
        b = gr(Fraction(rng.randint(-50, 50), rng.randint(1, 20)),
               Fraction(rng.randint(-50, 50), rng.randint(1, 20)))
        assert (a + b) - b == a
        if not b.is_zero():
            assert (a / b) * b == a
        assert a * b == b * a


def test_lowest_terms_positive_denominator():
    v = gr(Fraction(4, 8), Fraction(-6, -9))
    assert v.re.numerator == 1 and v.re.denominator == 2
    assert v.im.numerator == 2 and v.im.denominator == 3


def test_int_fraction_mixing():
    v = gr(1, 2)
    assert v + 1 == gr(2, 2)
    assert 2 * v == gr(2, 4)
    assert v - Fraction(1, 2) == gr(Fraction(1, 2), 2)
    assert (1 / gr(0, 1)) == gr(0, -1)


def test_power():
    assert gr(0, 1) ** 2 == gr(-1)
    assert gr(2, 1) ** 0 == gr(1)
    with pytest.raises(ValueError):
        gr(2) ** -1


def test_serialization_format():
    assert format_scalar(gr(Fraction(3, 2), Fraction(-4, 7))) == "3/2-4/7 i"
    assert format_scalar(gr(1)) == "1/1+0/1 i"
    assert parse_scalar("3/2-4/7 i") == gr(Fraction(3, 2), Fraction(-4, 7))
    assert parse_scalar("-5/3+1/2 i") == gr(Fraction(-5, 3), Fraction(1, 2))
    rng = random.Random(3)
    for _ in range(100):
        v = gr(Fraction(rng.randint(-99, 99), rng.randint(1, 30)),
               Fraction(rng.randint(-99, 99), rng.randint(1, 30)))
        assert parse_scalar(format_scalar(v)) == v


def test_exact_sqrt():
    assert gr(0, 2).sqrt() == gr(1, 1)       # (1+i)^2 = 2i
    assert gr(-4).sqrt() == gr(0, 2)
    assert gr(Fraction(9, 4)).sqrt() == gr(Fraction(3, 2))
    assert gr(5).sqrt() is None
    assert gr(0, 1).sqrt() is None           # i is not a Gaussian-rational square
    assert gr(-3, 4).sqrt() == gr(1, 2)      # (1+2i)^2 = -3+4i
    rng = random.Random(7)
    for _ in range(100):
        w = gr(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
               Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        sq = w * w
        r = sq.sqrt()
        assert r is not None and r * r == sq


def test_float_helpers():
    assert as_complex(gr(1, -2)) == 1 - 2j
    with pytest.raises(ValueError):
        ensure_finite(complex(float("nan"), 0.0))
    with pytest.raises(ValueError):
        ensure_finite(complex(0.0, float("inf")))


def test_immutability_and_hash():
    v = gr(1, 2)
    with pytest.raises(AttributeError):
        v.re = Fraction(3)
    assert hash(gr(3)) == hash(Fraction(3))
    assert len({gr(1, 2), gr(1, 2), gr(2, 1)}) == 2


def _draw(domain, rng):
    if domain == "exact":
        return gr(Fraction(rng.randint(-99, 99), rng.randint(1, 30)),
                  Fraction(rng.randint(-99, 99), rng.randint(1, 30)))
    return complex(rng.uniform(-1e3, 1e3), rng.uniform(-1e-3, 1e-3))


def _same(a, b):
    """Exact equality, or bit-for-bit equality of both float parts."""
    if isinstance(a, complex):
        return (a.real.hex(), a.imag.hex()) == (b.real.hex(), b.imag.hex())
    return a == b


@pytest.mark.parametrize("domain", ["exact", "float"])
def test_total_and_dot_are_left_to_right(domain):
    rng = random.Random(11)
    for size in (1, 2, 7, 30):
        u = [_draw(domain, rng) for _ in range(size)]
        v = [_draw(domain, rng) for _ in range(size)]
        acc = u[0]
        for t in u[1:]:
            acc = acc + t
        assert _same(total(u), acc)
        acc = u[0] * v[0]
        for a, b in zip(u[1:], v[1:]):
            acc = acc + a * b
        assert _same(dot(u, v), acc)


@pytest.mark.parametrize("domain", ["exact", "float"])
def test_zero_and_one_like(domain):
    v = _draw(domain, random.Random(2))
    assert type(zero_like(v)) is type(v) and not zero_like(v)
    assert type(one_like(v)) is type(v) and one_like(v) * v == v


def test_negligible_ignores_tol_on_exact_input():
    tiny = gr(Fraction(1, 10**30))
    assert not negligible(tiny, 1.0, 1e6)
    assert negligible(ZERO, 0.0)
    assert negligible(1e-31 + 0j, 1e-30)
    assert not negligible(2e-30 + 0j, 1e-30)
    assert negligible(2e-30 + 0j, 1e-30, 2.0)


def test_close_exact_against_float_compares_as_complex():
    assert close(gr(1, 2), 1 + 2j, 0.0)
    assert close(gr(Fraction(1, 3)), 1 / 3 + 0j, 1e-15)
    assert not close(gr(1, 2), 1 + 2.1j, 0.05)
    assert close(gr(1, 2), 1 + 2.1j, 0.05, 3.0)
    # exact on both sides: equality, whatever the tolerance
    assert not close(gr(1), gr(1, Fraction(1, 10**30)), 1.0, 1e6)
    assert close(gr(Fraction(2, 4)), gr(Fraction(1, 2)), 0.0)


def test_truthiness_is_the_exact_zero_test():
    assert not ZERO and not gr(0) and not gr(Fraction(0, 7), Fraction(0, 3))
    for v in (ONE, gr(0, 1), gr(Fraction(1, 10**40)), gr(0, Fraction(-1, 3)), gr(-2, 5)):
        assert v and not v.is_zero()
    assert ZERO.is_zero() and not (gr(3, 4) - gr(3, 4))
