"""Differential test of the exact square root against sympy over Q(i).

``GaussianRational.sqrt`` must return a root whose square is its input, and
must return None exactly when sympy's square root of the input is not an
element of ``QQ_I``.  sympy is a test-only oracle; the package never
imports it.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.polyerrors import CoercionFailed  # noqa: E402

from quadric_gaudin.scalars import gr  # noqa: E402


def _to_sympy(v):
    return sympy.Rational(v.re.numerator, v.re.denominator) \
        + sympy.I * sympy.Rational(v.im.numerator, v.im.denominator)


def _sympy_root_in_qq_i(v) -> bool:
    try:
        sympy.QQ_I.convert(sympy.expand(sympy.sqrt(_to_sympy(v))))
    except CoercionFailed:
        return False
    return True


def _random_scalar(rng):
    big = rng.choice((10, 1000, 10**12))
    return gr(Fraction(rng.randint(-big, big), rng.randint(1, big)),
              Fraction(rng.randint(-big, big), rng.randint(1, big)))


@pytest.mark.parametrize("seed", range(4))
def test_sqrt_agrees_with_sympy(seed):
    rng = random.Random(seed)
    roots = 0
    for k in range(60):
        w = _random_scalar(rng)
        if k % 3 == 0:
            v = w * w
        elif k % 3 == 1:
            # a square times a unit or small prime that may or may not be a square
            v = w * w * gr(rng.choice((-1, 2, 3, 5)), rng.choice((0, 1, 2)))
        else:
            v = w  # almost never a square
        r = v.sqrt()
        assert (r is not None) == _sympy_root_in_qq_i(v), v
        if r is not None:
            assert r * r == v
            roots += 1
    assert 20 <= roots < 60  # both outcomes are exercised
