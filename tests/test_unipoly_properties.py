"""Property tests of exact polynomial division with remainder.

For exact a and nonzero b, ``a.divmod(b)`` must return (q, r) with
a == q*b + r and deg r < deg b; the zero remainder has degree -inf.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from quadric_gaudin.scalars import gr  # noqa: E402
from quadric_gaudin.unipoly import Polynomial  # noqa: E402

rationals = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**4))
scalars = st.builds(gr, rationals, rationals) | st.builds(gr, st.integers(-3, 3))
polys = st.lists(scalars, max_size=9).map(Polynomial)


@settings(max_examples=200, deadline=None)
@given(polys, polys.filter(lambda b: not b.is_zero()))
def test_divmod_identity(a, b):
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.degree < b.degree
