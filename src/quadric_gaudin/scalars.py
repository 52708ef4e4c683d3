"""Exact Gaussian-rational scalars, float-complex helpers, and the one place
the exact/float split is decided.

All identity-style verification in this package runs on ``GaussianRational``
(complex numbers with Fraction real and imaginary parts, always in lowest
terms with positive denominators, courtesy of ``fractions.Fraction``).
Floats appear only where genuinely needed: root extraction and the
float-mode samplers.

Zero tests are ``not v`` in both domains.  ``negligible`` and ``close`` are
the only tolerance-aware comparisons: on exact scalars they decide exactly
and ignore the tolerance.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from numbers import Rational


def _to_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, Rational):
        return Fraction(v)
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"cannot build an exact scalar from {type(v).__name__}")


class GaussianRational:
    """A complex number a + b*i with rational a, b and exact arithmetic."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _to_fraction(re))
        object.__setattr__(self, "im", _to_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- arithmetic -------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "GaussianRational | None":
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction, Rational)):
            return GaussianRational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.im == 0 and o.im == 0:
            return GaussianRational(self.re * o.re)
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n2 = o.norm2()
        if n2 == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        if self.im == 0 and o.im == 0:
            return GaussianRational(self.re / o.re)
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / n2,
            (self.im * o.re - self.re * o.im) / n2,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

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
        return GaussianRational(self.re, -self.im)

    def norm2(self) -> Fraction:
        """Exact |z|^2 as a Fraction."""
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return not (self.re.numerator or self.im.numerator)

    def __bool__(self) -> bool:
        return bool(self.re.numerator or self.im.numerator)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

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
        if self.im == 0:
            a = self.re
            if a > 0:
                s = _fraction_sqrt(a)
                return None if s is None else GaussianRational(s)
            s = _fraction_sqrt(-a)
            return None if s is None else GaussianRational(0, s)
        c2 = (self.re + r) / 2
        c = _fraction_sqrt(c2)
        if c is None or c == 0:
            return None
        d = self.im / (2 * c)
        root = GaussianRational(c, d)
        assert root * root == self
        return root


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

def ensure_finite(z: complex) -> complex:
    """Reject NaN/inf on construction of float scalars."""
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"non-finite float scalar {z!r}")
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
    """Left-to-right sum of a non-empty iterable (fixes the float rounding)."""
    return functools.reduce(operator.add, terms)


def dot(u, v):
    """sum u_i v_i, left to right."""
    return total(a * b for a, b in zip(u, v))


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
