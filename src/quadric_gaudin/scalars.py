"""Exact Gaussian-rational scalars, float-complex helpers, and the one place
the exact/float split is decided.

All identity-style verification in this package runs on ``GaussianRational``:
a complex number stored as three Python ints ``(a + b i)/d`` with ``d > 0``
and ``gcd(a, b, d) == 1``, so every value has exactly one stored form and
each operation ends in a single gcd.  Floats appear only where genuinely
needed: root extraction and the float-mode samplers.

Zero tests are ``not v`` in both domains.  ``negligible`` and ``close`` are
the only tolerance-aware comparisons: on exact scalars they decide exactly
and ignore the tolerance.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from numbers import Rational

_gcd = math.gcd


def _to_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, Rational):
        return Fraction(v)
    raise TypeError(f"cannot build an exact scalar from {type(v).__name__}")


class GaussianRational:
    """A complex number (a + b i)/d with integers a, b, d and exact arithmetic.

    The stored triple is canonical: d > 0 and gcd(a, b, d) == 1 (zero is
    (0, 0, 1)), so equality compares triples.  ``re`` and ``im`` are the
    lowest-terms Fractions a/d and b/d.  Instances are immutable: ``re`` and
    ``im`` are read-only and the triple is private.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        re, im = _to_fraction(re), _to_fraction(im)
        p, q = re.numerator, re.denominator
        r, s = im.numerator, im.denominator
        if q == s:
            self._a, self._b, self._d = p, r, q
            return
        # over the lcm of two lowest-terms denominators the triple is canonical
        d = q // _gcd(q, s) * s
        self._a, self._b, self._d = p * (d // q), r * (d // s), d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, GaussianRational):
            a, b, d = other._a, other._b, other._d
        elif isinstance(other, int):
            # gcd(a + n d, b, d) == gcd(a, b, d) == 1: already canonical
            d = self._d
            return _make(self._a + other * d, self._b, d)
        else:
            t = _triple(other)
            if t is None:
                return NotImplemented
            a, b, d = t
        e = self._d
        if d == e:
            return _canon(self._a + a, self._b + b, d)
        return _canon(self._a * d + a * e, self._b * d + b * e, e * d)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self._a, -self._b, self._d)

    def __sub__(self, other):
        if isinstance(other, GaussianRational):
            a, b, d = other._a, other._b, other._d
        elif isinstance(other, int):
            d = self._d
            return _make(self._a - other * d, self._b, d)
        else:
            t = _triple(other)
            if t is None:
                return NotImplemented
            a, b, d = t
        e = self._d
        if d == e:
            return _canon(self._a - a, self._b - b, d)
        return _canon(self._a * d - a * e, self._b * d - b * e, e * d)

    def __rsub__(self, other):
        t = _triple(other)
        if t is None:
            return NotImplemented
        return _make(*t) - self

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            a, b, d = other._a, other._b, other._d
        elif isinstance(other, int):
            return _canon(self._a * other, self._b * other, self._d)
        else:
            t = _triple(other)
            if t is None:
                return NotImplemented
            a, b, d = t
        p, q = self._a, self._b
        if not b:
            return _canon(p * a, q * a, self._d * d)
        if not q:
            return _canon(p * a, p * b, self._d * d)
        return _canon(p * a - q * b, p * b + q * a, self._d * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, GaussianRational):
            a, b, d = other._a, other._b, other._d
        elif isinstance(other, int):
            if not other:
                raise ZeroDivisionError("division by zero GaussianRational")
            return _canon(self._a, self._b, self._d * other)
        else:
            t = _triple(other)
            if t is None:
                return NotImplemented
            a, b, d = t
        p, q = self._a, self._b
        # (p + q i)/e / ((a + b i)/d) = (p + q i)(a - b i) d / (e (a^2 + b^2))
        if not b:
            if not a:
                raise ZeroDivisionError("division by zero GaussianRational")
            return _canon(p * d, q * d, self._d * a)
        return _canon((p * a + q * b) * d, (q * a - p * b) * d, self._d * (a * a + b * b))

    def __rtruediv__(self, other):
        t = _triple(other)
        if t is None:
            return NotImplemented
        return _make(*t) / self

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only non-negative integer powers")
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- structure --------------------------------------------------------

    def conjugate(self) -> "GaussianRational":
        return _make(self._a, -self._b, self._d)

    def norm2(self) -> Fraction:
        """Exact |z|^2 as a Fraction."""
        a, b, d = self._a, self._b, self._d
        return Fraction(a * a + b * b, d * d)

    def is_zero(self) -> bool:
        return not (self._a or self._b)

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self._a == other._a and self._b == other._b and self._d == other._d
        t = _triple(other)
        if t is None:
            return NotImplemented
        return (self._a, self._b, self._d) == t

    def __hash__(self):
        if self._b:
            return hash((self.re, self.im))
        if self._d == 1:
            return hash(self._a)
        return hash(Fraction(self._a, self._d))

    def __complex__(self) -> complex:
        d = self._d
        return complex(self._a / d, self._b / d)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)

    def sqrt(self) -> "GaussianRational | None":
        """Exact square root within the Gaussian rationals, or None.

        z = a + bi is a square iff |z| is rational and (a + |z|)/2 is a
        rational square; both reduce to integer square-root checks.
        """
        if not self:
            return ZERO
        r2 = self.norm2()
        r = _fraction_sqrt(r2)
        if r is None:
            return None
        re, im = self.re, self.im
        if not im:
            if re > 0:
                s = _fraction_sqrt(re)
                return None if s is None else GaussianRational(s)
            s = _fraction_sqrt(-re)
            return None if s is None else GaussianRational(0, s)
        c2 = (re + r) / 2
        c = _fraction_sqrt(c2)
        if c is None or c == 0:
            return None
        root = GaussianRational(c, im / (2 * c))
        if root * root != self:
            raise AssertionError(f"square root of {self} failed its check")
        return root


_new = object.__new__


def _make(a: int, b: int, d: int) -> GaussianRational:
    """Wrap a triple that is already canonical."""
    z = _new(GaussianRational)
    z._a = a
    z._b = b
    z._d = d
    return z


def _canon(a: int, b: int, d: int) -> GaussianRational:
    """(a + b i)/d for any d != 0, brought to canonical form by one gcd."""
    if d != 1:
        g = _gcd(a, b, d)
        if d < 0:
            g = -g
        if g != 1:
            a //= g
            b //= g
            d //= g
    # _make inlined: this runs once per arithmetic operation
    z = _new(GaussianRational)
    z._a = a
    z._b = b
    z._d = d
    return z


def _triple(v):
    """Canonical (a, b, d) of an int or Rational operand, else None."""
    if isinstance(v, int):
        return v, 0, 1
    if isinstance(v, Rational):
        v = _to_fraction(v)
        return v.numerator, 0, v.denominator
    return None


def _fraction_sqrt(q: Fraction) -> Fraction | None:
    """Rational square root of a non-negative Fraction, if one exists."""
    if q < 0:
        return None
    if q == 0:
        return Fraction(0)
    ns = math.isqrt(q.numerator)
    ds = math.isqrt(q.denominator)
    if ns * ns == q.numerator and ds * ds == q.denominator:
        return Fraction(ns, ds)
    return None


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def gr(re=0, im=0) -> GaussianRational:
    """Shorthand constructor."""
    return GaussianRational(re, im)


def is_exact(v) -> bool:
    return isinstance(v, GaussianRational)


def format_scalar(z: GaussianRational) -> str:
    """Serialize as "a/b+c/d i" (lowest terms, explicit sign on the i part)."""
    re, im = z.re, z.im
    sign = "+" if im >= 0 else "-"
    return f"{re.numerator}/{re.denominator}{sign}{abs(im.numerator)}/{im.denominator} i"


def parse_scalar(s: str) -> GaussianRational:
    """Inverse of :func:`format_scalar`."""
    body = s.strip()
    if not body.endswith("i"):
        raise ValueError(f"malformed exact scalar {s!r}")
    body = body[:-1].strip()
    # the i-part sign is the last +/- that is not a numerator sign
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1] not in "+-/":
            re_s, sign, im_s = body[:k], body[k], body[k + 1 :]
            break
    else:
        raise ValueError(f"malformed exact scalar {s!r}")
    re = Fraction(re_s)
    im = Fraction(im_s)
    return GaussianRational(re, -im if sign == "-" else im)


# -- float-complex helpers -------------------------------------------------

class NonFiniteError(ValueError):
    """A float scalar is NaN or infinite: a computation broke down, not its input."""


def ensure_finite(z: complex) -> complex:
    """Reject NaN/inf on construction of float scalars."""
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise NonFiniteError(f"non-finite float scalar {z!r}")
    return complex(z)


def as_complex(v) -> complex:
    if isinstance(v, GaussianRational):
        return complex(v)
    return ensure_finite(complex(v))


# -- the exact/float split ---------------------------------------------------

def zero_like(v):
    """The zero of v's scalar domain."""
    return ZERO if isinstance(v, GaussianRational) else 0j


def one_like(v):
    """The one of v's scalar domain."""
    return ONE if isinstance(v, GaussianRational) else 1.0 + 0j


def total(terms):
    """Sum of a non-empty iterable: one fused sum (``_exact_dot``) when led by
    an exact term, else left to right, which fixes the float rounding."""
    it = iter(terms)
    for first in it:
        if isinstance(first, GaussianRational):
            return _exact_dot(zip(itertools.chain((first,), it), itertools.repeat(ONE)))
        return functools.reduce(operator.add, it, first)
    raise TypeError("total() of an empty iterable")


def dot(u, v):
    """sum u_i v_i: one fused sum when the first pair holds an exact scalar,
    else left to right, like ``total``."""
    it = zip(u, v)
    for a, b in it:
        if isinstance(a, GaussianRational) or isinstance(b, GaussianRational):
            return _exact_dot(itertools.chain(((a, b),), it))
        return functools.reduce(operator.add, (p * q for p, q in it), a * b)
    raise TypeError("dot() of empty vectors")


def _exact_dot(pairs) -> GaussianRational:
    """sum u v with unreduced products: integer numerators over a running
    common denominator, extended by a two-argument gcd only where a term's
    differs, and one reduction at the end.  A float has no triple: a
    TypeError, as in *."""
    A, B, D = 0, 0, 1
    for u, v in pairs:
        p, q, e = (u._a, u._b, u._d) if type(u) is GaussianRational else _triple(u)
        a, b, d = (v._a, v._b, v._d) if type(v) is GaussianRational else _triple(v)
        a, b, d = p * a - q * b, p * b + q * a, d * e
        if d == D:
            A += a
            B += b
        else:
            g = _gcd(D, d)
            d //= g
            e = D // g
            A, B, D = A * d + a * e, B * d + b * e, D * d
    return _canon(A, B, D)


def negligible(v, tol: float, scale: float = 1.0) -> bool:
    """Exact: v == 0, tol ignored.  Float: |v| <= tol * scale."""
    if isinstance(v, GaussianRational):
        return not v
    return abs(as_complex(v)) <= tol * scale


def close(a, b, tol: float, scale: float = 1.0) -> bool:
    """Exact equality when both sides are exact, else |a - b| <= tol * scale."""
    if isinstance(a, GaussianRational) and isinstance(b, GaussianRational):
        return a == b
    return abs(as_complex(a) - as_complex(b)) <= tol * scale
