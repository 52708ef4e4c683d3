import itertools
import random

import pytest

from quadric_gaudin.scalars import gr
from quadric_gaudin.unipoly import (
    NEG_INF,
    Polynomial,
    RootFindingError,
    clustered_roots,
    lagrange_interpolate,
    poly_gcd,
    resultant,
    roots,
    squarefree_factorization,
    sylvester_matrix,
)


def _brute_force_det(rows):
    """Permutation-expansion determinant: the independent oracle."""
    n = len(rows)
    total = None
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = rows[0][perm[0]]
        for i in range(1, n):
            term = term * rows[i][perm[i]]
        term = term if sign > 0 else -term
        total = term if total is None else total + term
    return total


def test_degree_and_trimming():
    assert Polynomial([gr(0), gr(0)]).degree == NEG_INF
    assert Polynomial([gr(1), gr(0)]).degree == 0
    p = Polynomial([gr(1), gr(2), gr(0)])
    assert p.degree == 1 and len(p.coeffs) == 2


def test_zero_polynomial_coefficient_is_exact_in_both_domains():
    # the zero polynomial has no domain; its coefficients must not turn
    # exact arithmetic into complex
    z = Polynomial.zero().coeff(3)
    exact = z + gr(1)
    assert exact == gr(1) and type(exact) is type(gr(1))
    assert z + 1.5j == 1.5j


def test_arithmetic_and_eval():
    p = Polynomial([gr(-1), gr(0), gr(1)])  # z^2 - 1
    q = Polynomial([gr(1), gr(1)])  # z + 1
    assert (p + q)(gr(2)) == gr(6)
    assert (p * q)(gr(3)) == gr(32)
    quo, rem = p.divmod(q)
    assert rem.is_zero() and quo == Polynomial([gr(-1), gr(1)])


def test_resultant_hand_oracles():
    # res(z^2 - 1, 2z) expanded by hand from the 3x3 Sylvester determinant
    p = Polynomial([gr(-1), gr(0), gr(1)])
    q = Polynomial([gr(0), gr(2)])
    assert resultant(p, q) == gr(-4)
    assert _brute_force_det(sylvester_matrix(p, q)) == gr(-4)

    # shared root z = c annihilates the resultant
    for c in (gr(3), gr(-1, 2), gr(0)):
        lin = Polynomial.identity_shift(c)
        assert resultant(lin, lin).is_zero()

    # the 10z^2-40z+24 fixture polynomial is squarefree
    fixture = Polynomial([gr(24), gr(-40), gr(10)])
    r = resultant(fixture, fixture.derivative())
    assert not r.is_zero()
    assert r == _brute_force_det(sylvester_matrix(fixture, fixture.derivative()))


def test_resultant_rejects_zero():
    with pytest.raises(ValueError, match="undefined resultant"):
        resultant(Polynomial.zero(), Polynomial([gr(1), gr(1)]))


@pytest.mark.parametrize("p, q", [
    (Polynomial([-1.0 + 0j, 0j, 1.0 + 0j]), Polynomial([0j, 2.0 + 0j])),
    (Polynomial([gr(-1), gr(0), gr(1)]), Polynomial([0j, 2.0 + 0j])),
    (Polynomial([2.0 + 0j]), Polynomial([gr(-1), gr(1)])),
])
def test_resultant_rejects_float_polynomials(p, q):
    # floats never decide whether two polynomials share a root
    with pytest.raises(ValueError, match="exact"):
        resultant(p, q)


def test_resultant_gcd_property():
    rng = random.Random(11)
    degenerate = 0
    for _ in range(80):
        deg = rng.randint(1, 6)
        root_pool = [gr(rng.randint(-3, 3), rng.randint(-1, 1)) for _ in range(4)]
        rs = [root_pool[rng.randrange(len(root_pool))] for _ in range(deg)]
        p = Polynomial.from_roots(rs, lead=gr(rng.randint(1, 5)))
        res_zero = resultant(p, p.derivative()).is_zero()
        gcd_nonconst = poly_gcd(p, p.derivative()).degree > 0
        assert res_zero == gcd_nonconst
        degenerate += res_zero
    assert degenerate > 5  # the pool forces repeated roots often enough


def test_gcd_of_a_repeated_factor():
    lin1 = Polynomial.identity_shift(gr(1))
    lin2 = Polynomial.identity_shift(gr(-2, 1))
    p = lin1 * lin1 * lin2
    g = poly_gcd(p, p.derivative())
    assert g == lin1


def test_squarefree_factorization():
    lin1 = Polynomial.identity_shift(gr(1))
    lin2 = Polynomial.identity_shift(gr(-3))
    lin3 = Polynomial.identity_shift(gr(0, 1))
    p = lin1 * lin2 * lin2 * lin3 * lin3 * lin3
    fac = squarefree_factorization(p.scale(gr(7)))
    assert [(f, k) for f, k in fac] == [(lin1, 1), (lin2, 2), (lin3, 3)]


def test_roots_examples():
    rs = roots(Polynomial([1.0 + 0j, 0j, 1.0 + 0j]))
    assert sorted(r.imag for r in rs) == pytest.approx([-1.0, 1.0])

    # quadratic-formula oracle: 2 -/+ (2/5) sqrt(10)
    rs = sorted(roots(Polynomial([24.0, -40.0, 10.0])), key=lambda z: z.real)
    s10 = 10 ** 0.5
    assert rs[0].real == pytest.approx(2 - 2 * s10 / 5, abs=1e-12)
    assert rs[1].real == pytest.approx(2 + 2 * s10 / 5, abs=1e-12)

    rs = roots(Polynomial([1.0, -2.0, 1.0]))
    assert rs == [1.0 + 0j, 1.0 + 0j]
    assert clustered_roots(Polynomial([1.0, -2.0, 1.0])) == [(1.0 + 0j, 2)]


def test_roots_validation():
    with pytest.raises(ValueError):
        roots(Polynomial.zero())
    with pytest.raises(ValueError):
        roots(Polynomial([1.0, 1.0]), tol=0.0)


def test_roots_reconstruction_well_conditioned():
    rng = random.Random(5)
    for _ in range(25):
        deg = rng.randint(3, 8)
        rs = []
        while len(rs) < deg:
            cand = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if all(abs(cand - r) > 0.35 for r in rs):
                rs.append(cand)
        p = Polynomial.from_roots(rs)
        got = roots(p)
        rebuilt = Polynomial.from_roots(got)
        for k in range(deg + 1):
            assert abs(rebuilt.coeff(k) - p.coeff(k)) <= 1e-8 * max(1.0, p.coeff_scale())


def test_roots_of_large_modulus_are_finite():
    # z^21 - 10^21: the old start radius 1 + 10^21 overflowed Horner's rule
    # and every root came back NaN; Fujiwara's bound starts at radius 20
    p = Polynomial([-1e21 + 0j] + [0j] * 20 + [1.0 + 0j])
    rs = roots(p)
    assert len(rs) == 21
    assert all(abs(abs(r) - 10) <= 1e-12 * 10 for r in rs)
    assert len(clustered_roots(p)) == 21


def test_roots_of_n24_auxiliary_polynomials_are_finite():
    # the squarefree auxiliary polynomials behind classify --n 24 --seed 0, 1
    from quadric_gaudin.phase import sample_pencil_point
    from quadric_gaudin.sov import auxiliary_poly

    for seed in (0, 1):
        pencil, x = sample_pencil_point(24, seed)
        p = auxiliary_poly(x, pencil).monic().to_float()
        rs = roots(p)
        assert len(rs) == p.degree == 21
        assert all(abs(p(r)) <= 1e-8 * p.mass(r) for r in rs)


def test_roots_nonfinite_iterate_is_a_root_finding_error():
    # a coefficient ratio that overflows makes the start radius infinite
    p = Polynomial([1e300 + 0j, 0j, 0j, 1e-300 + 0j])
    with pytest.raises(RootFindingError):
        roots(p)


def test_roots_nonconvergence_carries_best_iterate():
    p = Polynomial.from_roots([complex(k % 3, k // 3) for k in range(9)])
    with pytest.raises(RootFindingError) as exc:
        roots(p, tol=1e-14, max_iter=1)
    assert len(exc.value.best) == 9


def test_lagrange_interpolation():
    nodes = [gr(0), gr(1), gr(2)]
    values = [gr(1), gr(2), gr(5)]  # z^2 + 1
    p = lagrange_interpolate(nodes, values)
    assert p == Polynomial([gr(1), gr(0), gr(1)])
