"""Property tests of the fused sum kernel behind ``total`` and ``dot``.

An exact ``total`` or ``dot`` keeps integer numerators over a running common
denominator and reduces once; it must equal the left fold of canonical ``+``
and ``*`` and return the canonical triple.  Float sums, ``Polynomial``
products and ``Polynomial.from_roots`` must stay bit-identical to the
schoolbook left-to-right loops written out below, so float rounding does not
move.
"""

import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from quadric_gaudin import scalars  # noqa: E402
from quadric_gaudin.scalars import GaussianRational, ONE, dot, gr, total  # noqa: E402
from quadric_gaudin.unipoly import Polynomial  # noqa: E402

settings.register_profile("kernel", max_examples=100, deadline=None)
settings.load_profile("kernel")

ints = st.integers(-10**6, 10**6) | st.integers(-10**30, 10**30)
fractions = st.builds(Fraction, ints, st.integers(1, 10**4) | st.integers(1, 10**20))
small = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
exact = st.builds(gr, fractions, fractions) | st.builds(gr, small, small) | st.builds(gr, ints)
operand = exact | st.integers(-50, 50) | small
floats = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
complexes = st.builds(complex, floats, floats)


def canonical(z):
    assert isinstance(z, GaussianRational)
    assert z._d > 0 and math.gcd(z._a, z._b, z._d) == 1
    return z


def fold_sum(terms):
    acc = terms[0]
    for t in terms[1:]:
        acc = acc + t
    return acc


def bits(z):
    return (z.real.hex(), z.imag.hex())


def schoolbook_mul(a, b):
    """The double loop: out[i + j] accumulates a_i b_j in ascending i."""
    out = [None] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] = u * v if out[i + j] is None else out[i + j] + u * v
    return out


# -- exact --------------------------------------------------------------------

@given(exact, st.lists(operand, max_size=12))
def test_exact_total_is_the_canonical_left_fold(first, rest):
    terms = [first, *rest]
    got = total(terms)
    assert canonical(got) == fold_sum(terms)
    assert total(iter(terms)) == got


@given(st.lists(st.tuples(operand, operand), min_size=1, max_size=12), exact)
def test_exact_dot_is_the_canonical_left_fold(pairs, lead):
    # an exact scalar in the first pair selects the fused kernel
    pairs = [(lead, pairs[0][1]), *pairs[1:]]
    u, v = zip(*pairs)
    got = dot(u, v)
    assert canonical(got) == fold_sum([a * b for a, b in pairs])
    assert dot(v, u) == got


@given(st.lists(operand, min_size=1, max_size=8), st.lists(operand, min_size=1, max_size=8))
def test_sums_led_by_plain_rationals_are_the_left_fold(u, v):
    # no exact scalar first: the left fold itself, types and all
    terms = u + v
    want = fold_sum(terms)
    got = total(terms)
    assert got == want and type(got) is type(want)
    assert dot(u, v) == fold_sum([a * b for a, b in zip(u, v)])


@given(st.lists(exact, min_size=1, max_size=10), st.lists(exact, min_size=1, max_size=10))
def test_one_reduction_per_exact_total_or_dot(u, v):
    calls = []
    canon = scalars._canon

    def counted(*args):
        calls.append(args)
        return canon(*args)

    scalars._canon = counted
    try:
        total(u)
        dot(u, v)
    finally:
        scalars._canon = canon
    assert len(calls) == 2


def to_sympy(p):
    z = sympy.symbols("z")
    return sympy.Poly([sympy.Rational(c.re.numerator, c.re.denominator)
                       + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator)
                       for c in reversed(p.coeffs)], z, domain=sympy.QQ_I)


@given(st.lists(exact, max_size=7).map(Polynomial), st.lists(exact, max_size=7).map(Polynomial))
def test_exact_mul_agrees_with_sympy_over_qq_i(a, b):
    prod = a * b
    for c in prod.coeffs:
        canonical(c)
    assert to_sympy(prod) == to_sympy(a) * to_sympy(b)


# -- float --------------------------------------------------------------------

@given(st.lists(complexes, min_size=1, max_size=12), st.lists(complexes, min_size=1, max_size=12))
def test_float_total_and_dot_are_bitwise_left_to_right(u, v):
    assert bits(total(u)) == bits(fold_sum(u))
    assert bits(dot(u, v)) == bits(fold_sum([a * b for a, b in zip(u, v)]))


@given(st.lists(complexes, min_size=1, max_size=8), st.lists(complexes, min_size=1, max_size=8))
def test_float_polynomial_mul_is_the_schoolbook_loop(a, b):
    want = Polynomial(schoolbook_mul(a, b))
    got = Polynomial(a) * Polynomial(b)
    assert [bits(c) for c in got.coeffs] == [bits(c) for c in want.coeffs]


@given(st.lists(complexes, max_size=8))
def test_float_from_roots_is_the_repeated_product(roots):
    want = [1.0 + 0j]
    for r in roots:
        want = schoolbook_mul(want, [-r, 1.0 + 0j])
    got = Polynomial.from_roots(roots)
    assert [bits(c) for c in got.coeffs] == [bits(c) for c in Polynomial(want).coeffs]


@given(st.lists(exact, min_size=1, max_size=6))
def test_exact_from_roots_is_the_repeated_product(roots):
    want = [ONE]
    for r in roots:
        want = schoolbook_mul(want, [-r, ONE])
    got = Polynomial.from_roots(roots)
    assert got == Polynomial(want)
    for c in got.coeffs:
        canonical(c)


@pytest.mark.parametrize("empty", [[], iter(()), (t for t in ())])
def test_empty_sums_raise_type_error(empty):
    with pytest.raises(TypeError):
        total(empty)
    with pytest.raises(TypeError):
        dot([], [])


@pytest.mark.parametrize("stray", [1.5, 1j, "x"])
def test_exact_sum_rejects_float_terms(stray):
    # as GaussianRational + float does
    with pytest.raises(TypeError):
        total([gr(1), stray])
    with pytest.raises(TypeError):
        dot([gr(1), stray], [ONE, ONE])
