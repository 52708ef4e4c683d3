"""Property test: every public quantity of a phase point is gauge invariant.

For an exact sampled point p and a Gaussian integer t, the shifted point
gauge_shift(p, t) = (x, y + t x) must give the same Hamiltonians, Poisson
brackets, pair invariants and spectral polynomial.  p's per-point caches are
filled first, so a shifted point that reused them would also be caught by
the comparison with a fresh, uncached copy of itself.
"""

import itertools

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from quadric_gaudin.higgs import hamiltonians, spectral_polynomial  # noqa: E402
from quadric_gaudin.phase import (  # noqa: E402
    PhasePoint,
    gauge_shift,
    pair_invariant,
    poisson_bracket,
    sample_phase_point,
)
from quadric_gaudin.scalars import gr  # noqa: E402

gaussian_ints = st.builds(gr, st.integers(-20, 20), st.integers(-20, 20))


def _public(p):
    pairs = list(itertools.combinations(range(p.pencil.N), 2))
    return (hamiltonians(p), [poisson_bracket(p, i, j) for i, j in pairs],
            [pair_invariant(p, i, j) for i, j in pairs], spectral_polynomial(p).coeffs)


@settings(max_examples=50, deadline=None)
@given(st.integers(5, 7), st.integers(0, 10**6), gaussian_ints)
def test_gauge_shift_leaves_public_quantities_unchanged(N, seed, t):
    p = sample_phase_point(N, seed)
    before = _public(p)
    shifted = gauge_shift(p, t)
    assert _public(shifted) == before
    fresh = PhasePoint(shifted.pencil, shifted.x, shifted.y, check=False)
    assert shifted.bracket_grads == fresh.bracket_grads
    assert shifted.pair_invariants == fresh.pair_invariants
