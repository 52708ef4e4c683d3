"""Differential tests of the exact polynomial machinery against sympy over Q(i).

Each case plants repeated factors, so the gcds and squarefree parts are
nontrivial.  The float labels ``classify`` gives the exact divisor's points
are checked against ``Poly.nroots`` of their own squarefree factor.  sympy is
a test-only oracle; the package never imports it.
The resultant oracle is the norm formula, not ``Poly.resultant``: sympy 1.14
returns -res(p, q) for some pairs with deg p * deg q odd (p = 3z^3 + 2z^2 + 4,
deg q = 7, for one), where the Sylvester determinant and the product of q
over the roots of p agree with each other.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from quadric_gaudin.phase import sample_pencil_point  # noqa: E402
from quadric_gaudin.scalars import gr  # noqa: E402
from quadric_gaudin.unipoly import (  # noqa: E402
    Polynomial,
    poly_gcd,
    resultant,
    squarefree_factorization,
)
from quadric_gaudin.verystable import classify  # noqa: E402

Z = sympy.symbols("z")


def to_sympy(p: Polynomial):
    coeffs = [sympy.Rational(c.re.numerator, c.re.denominator)
              + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator)
              for c in reversed(p.coeffs)]
    return sympy.Poly(coeffs, Z, domain=sympy.QQ_I)


def from_sympy_scalar(c):
    re, im = sympy.Rational(sympy.re(c)), sympy.Rational(sympy.im(c))
    return gr(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))


def from_sympy(q) -> Polynomial:
    return Polynomial([from_sympy_scalar(c) for c in reversed(q.all_coeffs())])


def _scalar(rng):
    re, im = (Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(2))
    return gr(re, im)


def planted(rng) -> Polynomial:
    """A product of random linear and quadratic factors, some repeated."""
    p = Polynomial([gr(rng.randint(1, 5), rng.randint(-2, 2))])
    for _ in range(rng.randint(1, 3)):
        factor = Polynomial([_scalar(rng) for _ in range(rng.randint(2, 3))])
        if factor.degree < 1:
            continue
        for _ in range(rng.randint(1, 3)):
            p = p * factor
    return p


CASES = [planted(random.Random(seed)) for seed in range(30)]


@pytest.mark.parametrize("seed", range(30))
def test_gcd_matches_sympy(seed):
    p, q = CASES[seed], CASES[(seed * 7 + 3) % 30]
    q = q * Polynomial.identity_shift(gr(seed % 5, 1))
    shared = p * q
    for a, b in ((p, p.derivative()), (shared, p * p)):
        want = to_sympy(a).gcd(to_sympy(b)).monic()
        assert poly_gcd(a, b) == from_sympy(want)


@pytest.mark.parametrize("seed", range(30))
def test_squarefree_factorization_matches_sympy(seed):
    p = CASES[seed]
    _, factors = to_sympy(p).sqf_list()
    want = {k: from_sympy(f.monic()) for f, k in factors}
    assert dict((k, f) for f, k in squarefree_factorization(p)) == want


def norm_resultant(p: Polynomial, q: Polynomial):
    """res(p, q) = lc(p)^deg q * det(multiplication by q on Q(i)[z]/(p))."""
    P, Q = to_sympy(p), to_sympy(q)
    m = p.degree
    cols = []
    for k in range(m):
        r = (sympy.Poly(Z**k, Z, domain=sympy.QQ_I) * Q).rem(P).all_coeffs()[::-1]
        cols.append([sympy.QQ_I.from_sympy(c) for c in r] + [sympy.QQ_I.zero] * (m - len(r)))
    rows = [list(row) for row in zip(*cols)]
    det = sympy.QQ_I.to_sympy(DomainMatrix(rows, (m, m), sympy.QQ_I).det())
    return from_sympy_scalar(det) * p.lead() ** q.degree


def test_norm_resultant_oracle_by_hand():
    # res(z^2 - 1, z - 2) = (1 - 2)(-1 - 2) = 3
    assert norm_resultant(Polynomial([gr(-1), gr(0), gr(1)]), Polynomial([gr(-2), gr(1)])) == gr(3)


@pytest.mark.parametrize("seed", range(30))
def test_resultant_matches_sympy(seed):
    p, q = CASES[seed], CASES[(seed + 1) % 30]
    for a, b in ((p, p.derivative()), (p, q), (q, p)):
        if a.degree < 1 or b.degree < 1:
            continue
        assert resultant(a, b) == norm_resultant(a, b)


@pytest.mark.parametrize("N", range(6, 13))
def test_classify_labels_match_sympy_nroots(N):
    # every label lies on a root of the squarefree factor of its multiplicity
    for seed in range(3):
        pencil, x = sample_pencil_point(N, seed)
        verdict = classify(x, pencil)
        want = {k: [complex(w) for w in to_sympy(f).nroots(n=30)] for f, k in verdict.factors}
        for r, k in verdict.finite_roots:
            assert min(abs(r - w) for w in want[k]) <= 1e-12 * (1 + abs(r))
