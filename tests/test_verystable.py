import cmath
import math
import random

import numpy as np
import pytest

from quadric_gaudin.higgs import hamiltonians, hecke_transform, is_nilpotent
from quadric_gaudin.linalg import Matrix, rank_kernel
from quadric_gaudin.phase import Pencil, PhasePoint, sample_phase_point
from quadric_gaudin.scalars import ZERO, as_complex, dot, gr
from quadric_gaudin.sov import auxiliary_poly, point_from_polynomial
from quadric_gaudin.unipoly import Polynomial, roots
from quadric_gaudin.verystable import (
    DEGENERATE,
    VERY_STABLE,
    WOBBLY,
    classify,
    is_gauge_trivial,
    nilpotent_witness,
    properness_probe,
    witness_system,
)

from conftest import exact_wobbly_point


def test_classify_fix_a(pencil01234, fix_a):
    v = classify(fix_a, pencil01234)
    assert v.tag == VERY_STABLE and v.resolved_tag == VERY_STABLE
    assert v.infinity_multiplicity == 0
    assert all(m == 1 for _, m in v.finite_roots)
    assert len(v.finite_roots) == 2


def test_classify_fix_b_degenerate_chain(pencil01234, fix_b):
    v = classify(fix_b, pencil01234)
    assert v.tag == DEGENERATE
    assert v.zero_indices == (4,)
    assert len(v.reduced_mu) == 4  # recursed to N = 4
    # root 4 = mu_5 visible in the divisor
    assert any(abs(r - 4.0) < 1e-9 and m == 1 for r, m in v.finite_roots)
    assert v.chain() == [DEGENERATE, VERY_STABLE]
    assert v.resolved_tag == VERY_STABLE


def test_classify_wobbly_construction():
    pencil, x, target = exact_wobbly_point(3)
    v = classify(x, pencil)
    assert v.tag == WOBBLY
    assert any(m == 2 for _, m in v.finite_roots)


def test_classify_rejects_bad_inputs(pencil01234):
    with pytest.raises(ValueError):
        classify([gr(0)] * 5, pencil01234)


def test_symmetric_product_image(pencil01234, fix_a):
    img = classify(fix_a, pencil01234)
    assert len(img.points()) == pencil01234.n
    assert img.distinct
    pencil, x, _ = exact_wobbly_point(5)
    img2 = classify(x, pencil)
    assert not img2.distinct
    assert img2.points()[0] == img2.points()[1]


def test_symmetric_product_image_infinity_bookkeeping():
    # constant auxiliary polynomial: the whole divisor sits at infinity
    pw = Pencil([gr(-3), gr(-1), gr(0), gr(1), gr(3)])
    xinf = [gr(1), gr(0, 3), gr(4), gr(0, 3), gr(1)]
    p = auxiliary_poly(xinf, pw)
    assert p.degree == 0
    img = classify(xinf, pw)
    assert img.infinity_multiplicity == 2 and img.points() == ["inf", "inf"]
    assert not img.distinct
    # deg p = n - 1 (float, descriptive): one point lands at infinity
    big = Pencil([gr(v) for v in (-9, -7, 0, 7, 9, 1)])  # N=6, n=3
    target = Polynomial([gr(4), gr(-4), gr(1)])
    x = point_from_polynomial(target, big, mode="float")
    img_p = auxiliary_poly(x, big.to_float())
    assert img_p.degree == 2  # trailing dust trimmed, infinity multiplicity 1


def test_wobbly_at_infinity_witness():
    pw = Pencil([gr(-3), gr(-1), gr(0), gr(1), gr(3)])
    xinf = [gr(1), gr(0, 3), gr(4), gr(0, 3), gr(1)]
    v = classify(xinf, pw)
    assert v.tag == WOBBLY and v.infinity_multiplicity == 2 and not v.finite_roots
    res = nilpotent_witness(xinf, pw)
    assert res.witness is not None and res.kernel_dim == 2
    pt = PhasePoint(pw, xinf, list(res.witness))
    assert all(f.is_zero() for f in hamiltonians(pt))
    assert is_nilpotent(hecke_transform(pt))


def test_witness_system_contains_gauge_line(pencil01234, fix_a):
    m = witness_system(fix_a, pencil01234)
    resid = m.matvec(fix_a)
    assert all(v.is_zero() for v in resid)
    rank, kernel = rank_kernel(m)
    assert rank == 4 and len(kernel) == 1


def test_nilpotent_witness_very_stable(pencil01234, fix_a):
    res = nilpotent_witness(fix_a, pencil01234)
    assert res.witness is None
    assert res.kernel_dim == 1 and res.kernel_is_gauge_line


def test_nilpotent_witness_wobbly_verified():
    for seed in (1, 2, 3, 4, 5):
        pencil, x, _ = exact_wobbly_point(seed)
        res = nilpotent_witness(x, pencil)
        assert res.witness is not None
        y = list(res.witness)
        assert not is_gauge_trivial(x, y)
        pt = PhasePoint(pencil, x, y)
        # two independent exact certificates
        assert all(f.is_zero() for f in hamiltonians(pt))
        assert is_nilpotent(hecke_transform(pt))
        assert pt.constraint_residuals()[2].is_zero()


def test_nilpotent_witness_degenerate_padding(pencil01234, fix_b):
    res = nilpotent_witness(fix_b, pencil01234)
    assert res.witness is None  # FIX-B resolves very stable


def test_degenerate_wobbly_witness_is_padded():
    # embed a wobbly 5-point configuration into N = 6 with one zero coordinate
    base, x5, _ = exact_wobbly_point(9)
    extra = gr(17)
    assert all(not (extra - m).is_zero() for m in base.mu)
    pencil6 = Pencil(list(base.mu) + [extra])
    x6 = list(x5) + [gr(0)]
    v = classify(x6, pencil6)
    assert v.tag == DEGENERATE and v.resolved_tag == WOBBLY
    res = nilpotent_witness(x6, pencil6)
    assert res.witness is not None
    assert res.witness[5].is_zero()
    pt = PhasePoint(pencil6, x6, list(res.witness))
    assert all(f.is_zero() for f in hamiltonians(pt))
    assert is_nilpotent(hecke_transform(pt))


def test_marked_double_root_corner_case():
    # repeated root at a deleted marked point: full divisor wobbly even
    # though the reduced chain looks very stable
    pw = Pencil([gr(-3), gr(-1), gr(0), gr(1), gr(3)])
    t = Polynomial([gr(9), gr(-6), gr(1)])  # (z-3)^2, root at mu_5
    x = point_from_polynomial(t, pw, mode="exact")
    assert x[4].is_zero()
    v = classify(x, pw)
    assert v.tag == DEGENERATE
    assert v.reduced is not None and v.reduced.tag == VERY_STABLE
    assert v.resolved_tag == WOBBLY  # the full divisor has a double point
    res = nilpotent_witness(x, pw)
    assert res.witness is not None
    pt = PhasePoint(pw, x, list(res.witness))
    assert all(f.is_zero() for f in hamiltonians(pt))
    assert is_nilpotent(hecke_transform(pt))


def marked_double_root_point(seed: int):
    """N = 5 with x_k = 0 and mu_k at the rational root of the reduced p.

    The reduced point has four real or imaginary Gaussian-integer
    coordinates on a rational pencil, so its p has degree at most 1.
    """
    rng = random.Random(seed)
    while True:
        signs = [rng.choice((1, -1)) for _ in range(4)]
        a = [rng.randint(1, 12) for _ in range(3)]
        last = -signs[3] * sum(sg * v * v for sg, v in zip(signs, a))
        if last <= 0 or math.isqrt(last) ** 2 != last:
            continue
        xr = [gr(v) if sg > 0 else gr(0, v) for sg, v in zip(signs, a + [math.isqrt(last)])]
        squares = [v * v for v in xr]
        tail = [gr(m) for m in rng.sample(range(-9, 10), 3)]
        mu = [-dot(tail, squares[1:]) / squares[0]] + tail
        if len(set(mu)) < 4:
            continue
        p = auxiliary_poly(xr, Pencil(mu, allow_small=True))
        if p.degree != 1:
            continue
        k = rng.randrange(5)
        root = -p.coeffs[0] / p.coeffs[1]
        return Pencil(mu[:k] + [root] + mu[k:]), xr[:k] + [ZERO] + xr[k:]


def _assert_witness(x, pencil, y):
    assert not is_gauge_trivial(x, y)
    pt = PhasePoint(pencil, x, list(y))
    assert all(f.is_zero() for f in hamiltonians(pt))
    assert is_nilpotent(hecke_transform(pt))


def test_marked_double_root_sweep():
    # a witness exactly when some sigma_j is a square, else the non-squares
    squares = 0
    for seed in range(100):
        pencil, x = marked_double_root_point(seed)
        v = classify(x, pencil)
        assert v.tag == DEGENERATE and v.resolved_tag == WOBBLY
        res = nilpotent_witness(x, pencil)
        if res.witness is not None:
            squares += 1
            assert res.radicands == ()
            _assert_witness(x, pencil, res.witness)
        else:
            (sigma,) = res.radicands
            assert sigma.sqrt() is None
    assert 0 < squares < 100


def test_marked_double_roots_one_square_of_two():
    # mu = (0, +-11, +-13, +-14): the six nonzero node weights are 2 times a
    # square, the one at 0 is minus a square.  With p = 2 z^2 (z - 14)^2, J is
    # {0, 14}: sigma at 14 is a square and sigma at 0 is not
    pencil = Pencil([gr(m) for m in (-14, -13, -11, 0, 11, 13, 14)])
    target = Polynomial([gr(0), gr(0), gr(2)]) * Polynomial([gr(196), gr(-28), gr(1)])
    x = point_from_polynomial(target, pencil)
    v = classify(x, pencil)
    assert v.zero_indices == (3, 6) and v.reduced.tag == VERY_STABLE
    res = nilpotent_witness(x, pencil)
    assert res.witness is not None and res.radicands == ()
    _assert_witness(x, pencil, res.witness)
    # lambda_0 = 0 is forced, so y_0 = 0; y at 14 carries the square root
    assert res.witness[3].is_zero() and not res.witness[6].is_zero()


def _float_marked_witness(pencil, x, j, others, root_sign=1j):
    """The closed-form y over C, in floats: y_Z = 0, the constraints and
    lambda_l = 0 (l in others) on the rest, then y_j = i lambda_j / sqrt(sigma_j).
    Every root of the reduced p here lies in J and none at infinity, so the
    relaxed witness system is the two constraints."""
    mu = [as_complex(m) for m in pencil.mu]
    xf = np.array([as_complex(v) for v in x])
    keep = [i for i in range(pencil.N) if x[i]]

    def u(l):
        return np.array([xf[i] / (mu[l] - mu[i]) for i in keep])

    rows = [xf[keep], np.array([mu[i] for i in keep]) * xf[keep]] + [u(l) for l in others]
    null = np.linalg.svd(np.array(rows))[2][len(rows):].conj()
    assert null.shape[0] == 2  # the gauge line and one more direction
    gauge = xf[keep] / np.linalg.norm(xf[keep])
    v = max((n - np.vdot(gauge, n) * gauge for n in null), key=np.linalg.norm)
    y = np.zeros(pencil.N, dtype=complex)
    y[keep] = v / np.linalg.norm(v)
    y[j] = root_sign * np.dot(u(j), y[keep]) / cmath.sqrt(np.dot(u(j), u(j)))
    return PhasePoint(pencil.to_float(), list(xf / np.abs(xf).max()), list(y), check=False)


def _marked_cases():
    # twelve sweep points (|J| = 1) and two N = 7 points with |J| = 2
    cases = [marked_double_root_point(seed) for seed in range(12)]
    for mu, x in [((-9, -1, 2, 3, 7, 11, 13), (176, 0, 704, 880j, 528, 176j, 0)),
                  ((-7, -6, -4, -1, 0, 2, 14), (252, 315j, 189, 0, 63, 63j, 0))]:
        cases.append((Pencil([gr(m) for m in mu]),
                      [gr(int(c.real), int(c.imag)) for c in map(complex, x)]))
    return cases


def test_forced_square_holds_over_c_where_sigma_is_no_square():
    # the closed form with a complex sqrt(sigma_j) gives Hamiltonians that
    # vanish to rounding, so y_j^2 = -lambda_j^2 / sigma_j is the whole story
    checked = 0
    for pencil, x in _marked_cases():
        res = nilpotent_witness(x, pencil)
        if res.witness is not None:
            continue
        v = classify(x, pencil)
        J = [j for j in v.zero_indices if not v.reduced.p(pencil.mu[j])]
        for j in J:
            others = [l for l in J if l != j]
            pt = _float_marked_witness(pencil, x, j, others)
            assert max(abs(f) for f in hamiltonians(pt)) < 1e-9
            assert is_nilpotent(hecke_transform(pt))
            # control: dropping the factor i leaves nonzero Hamiltonians
            wrong = _float_marked_witness(pencil, x, j, others, root_sign=1)
            assert max(abs(f) for f in hamiltonians(wrong)) > 1e-3
            checked += 1
    assert checked >= 10


def test_dichotomy_over_mixed_corpus():
    # exactly one of: verified witness, or kernel = gauge line
    for seed in range(12):
        if seed % 2 == 0:
            pt = sample_phase_point(5 + seed % 3, 3000 + seed)
            pencil, x = pt.pencil, list(pt.x)
        else:
            pencil, x, _ = exact_wobbly_point(40 + seed)
        res = nilpotent_witness(x, pencil)
        has_witness = res.witness is not None
        assert has_witness != res.kernel_is_gauge_line


def test_discriminant_consistency():
    from quadric_gaudin.unipoly import resultant

    for seed in range(8):
        pencil, x, _ = exact_wobbly_point(60 + seed)
        p = auxiliary_poly(x, pencil)
        assert resultant(p, p.derivative()).is_zero()
        img = classify(x, pencil)
        assert not img.distinct
        assert classify(x, pencil).tag == WOBBLY
    for seed in range(8):
        pt = sample_phase_point(5, 4000 + seed)
        p = auxiliary_poly(list(pt.x), pt.pencil)
        v = classify(list(pt.x), pt.pencil)
        if v.tag == VERY_STABLE and v.infinity_multiplicity == 0:
            assert not resultant(p, p.derivative()).is_zero()
            assert classify(list(pt.x), pt.pencil).distinct


def test_mobius_cross_validation_simple_infinity():
    # rank of the separation system is invariant under column scaling, so a
    # float check of the Mobius-moved problem validates the infinity row
    big = Pencil([gr(v) for v in (-9, -7, 0, 7, 9, 4)])  # N=6, n=3
    target = Polynomial([gr(3), gr(-5), gr(1)])  # degree 2 = n-1: simple infinity
    x = point_from_polynomial(target, big, mode="float")
    ws_rank_expected = big.N - 1
    # witness-style system in float: 2 constraints + evaluations + top row
    muf = [as_complex(m) for m in big.mu]
    rs = roots(auxiliary_poly(x, big.to_float()))
    rows = [list(x), [m * v for m, v in zip(muf, x)]]
    for a in rs:
        rows.append([x[j] / (a - muf[j]) for j in range(6)])
    rows.append([m * m * v for m, v in zip(muf, x)])  # infinity evaluation row
    rank, kernel = rank_kernel(Matrix(rows), tol=1e-9)
    assert rank == ws_rank_expected and len(kernel) == 1
    # Mobius move w = 1/(z - c): all roots become finite; rank must agree
    c = -1.0
    mu_m = [1.0 / (as_complex(m) - c) for m in big.mu]
    roots_m = [1.0 / (a - c) for a in rs] + [0.0]  # infinity lands at w = 0
    tf = target.to_float()
    weights = []
    for i, w in enumerate(mu_m):
        d = 1.0
        for j, w2 in enumerate(mu_m):
            if j != i:
                d *= w - w2
        weights.append(d)
    # transformed squares: evaluate the moved auxiliary polynomial
    pm = 1.0
    x_m = []
    for i, w in enumerate(mu_m):
        val = 1.0
        for r in roots_m:
            val *= w - r
        x_m.append((val / weights[i]) ** 0.5)
    rows_m = [list(x_m), [w * v for w, v in zip(mu_m, x_m)]]
    for r in roots_m:
        rows_m.append([x_m[j] / (r - mu_m[j]) for j in range(6)])
    rank_m, kernel_m = rank_kernel(Matrix(rows_m), tol=1e-9)
    assert rank_m == ws_rank_expected and len(kernel_m) == 1


def test_properness_probe(pencil01234, fix_a):
    rep = properness_probe(fix_a, pencil01234, radii=(1.0, 10.0, 100.0), samples=4, seed=2)
    assert rep.growth_exponent == pytest.approx(1.0, abs=1e-6)
    assert rep.min_abs_lambda[1] == pytest.approx(10 * rep.min_abs_lambda[0], rel=1e-9)


def test_properness_witness_ray_stays_flat():
    pencil, x, _ = exact_wobbly_point(2)
    res = nilpotent_witness(x, pencil)
    y = [as_complex(v) for v in res.witness]
    fp = pencil.to_float()
    xf = [as_complex(v) for v in x]
    from quadric_gaudin.sov import eigenvalues, separate

    for R in (1.0, 10.0, 100.0):
        pt = PhasePoint(fp, xf, [R * v for v in y], check=False)
        sep = separate(PhasePoint(fp, xf, [0j] * 5, check=False))
        simple = [r for r, m in sep.finite_roots if m == 1]
        lams = eigenvalues(pt, simple) if simple else []
        assert all(abs(as_complex(l)) < 1e-7 * R for l in lams)
