"""Exact arithmetic for the benchmark, written apart from the program.

Gaussian rationals are ``(re, im)`` pairs of ``fractions.Fraction``;
polynomials are lists of them, ascending in the power of z.  Input
generation and the correctness checks use only this module, never
``quadric_gaudin`` scalars, so a fault in the program's arithmetic cannot
hide itself from the checks.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

F0 = Fraction(0)
ZERO = (F0, F0)
ONE = (Fraction(1), F0)

_SCALAR = re.compile(r"^(-?\d+/\d+)([+-])(\d+/\d+) i$")


def g(re_=0, im=0):
    return (Fraction(re_), Fraction(im))


def add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def neg(a):
    return (-a[0], -a[1])


def mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def div(a, b):
    n2 = b[0] * b[0] + b[1] * b[1]
    if n2 == 0:
        raise ZeroDivisionError("division by zero")
    return ((a[0] * b[0] + a[1] * b[1]) / n2, (a[1] * b[0] - a[0] * b[1]) / n2)


def is_zero(a) -> bool:
    return a[0] == 0 and a[1] == 0


def total(vals):
    acc = ZERO
    for v in vals:
        acc = add(acc, v)
    return acc


def dot(u, v):
    return total(mul(a, b) for a, b in zip(u, v))


def parse(s: str):
    """Read the documented exact-scalar form ``"a/b+c/d i"``."""
    m = _SCALAR.match(s)
    if m is None:
        raise ValueError(f"malformed exact scalar {s!r}")
    im = Fraction(m.group(3))
    return (Fraction(m.group(1)), -im if m.group(2) == "-" else im)


def fmt(a) -> str:
    re_, im = a
    sign = "+" if im >= 0 else "-"
    return f"{re_.numerator}/{re_.denominator}{sign}{abs(im.numerator)}/{im.denominator} i"


def _rational_sqrt(q: Fraction):
    if q < 0:
        return None
    n, d = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if n * n == q.numerator and d * d == q.denominator:
        return Fraction(n, d)
    return None


def sqrt(a):
    """An exact square root in Q(i), or None when there is none."""
    if is_zero(a):
        return ZERO
    r = _rational_sqrt(a[0] * a[0] + a[1] * a[1])
    if r is None:
        return None
    c = _rational_sqrt((a[0] + r) / 2)
    if c is None:
        return None
    if c == 0:  # a is a negative rational
        d = _rational_sqrt(-a[0])
        return None if d is None else (F0, d)
    return (c, a[1] / (2 * c))


# -- polynomials ---------------------------------------------------------------


def ptrim(p):
    p = list(p)
    while p and is_zero(p[-1]):
        p.pop()
    return p


def padd(p, q):
    out = [ZERO] * max(len(p), len(q))
    for k, c in enumerate(p):
        out[k] = add(out[k], c)
    for k, c in enumerate(q):
        out[k] = add(out[k], c)
    return ptrim(out)


def pmul(p, q):
    if not p or not q:
        return []
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = add(out[i + j], mul(a, b))
    return ptrim(out)


def pderiv(p):
    return ptrim([mul(g(k), c) for k, c in enumerate(p)][1:])


def prem(p, q):
    p = ptrim(p)
    q = ptrim(q)
    if not q:
        raise ZeroDivisionError("remainder by the zero polynomial")
    lead = q[-1]
    while len(p) >= len(q):
        f = div(p[-1], lead)
        shift = len(p) - len(q)
        for j, b in enumerate(q):
            p[shift + j] = sub(p[shift + j], mul(f, b))
        p = ptrim(p[:-1])
    return p


def pgcd_degree(p, q) -> int:
    """Degree of gcd(p, q) by the Euclidean algorithm over Q(i)."""
    a, b = ptrim(p), ptrim(q)
    while b:
        a, b = b, prem(a, b)
    return len(a) - 1


def auxiliary(mu, x):
    """p(z) = sum_i x_i^2 prod_{j != i} (z - mu_j)."""
    p = []
    for i, xi in enumerate(x):
        term = [mul(xi, xi)]
        for j, m in enumerate(mu):
            if j != i:
                term = pmul(term, [neg(m), ONE])
        p = padd(p, term)
    return p


# -- the Gaudin-type Hamiltonians ------------------------------------------------


def constraints(mu, x, y):
    mx = [mul(m, v) for m, v in zip(mu, x)]
    return (dot(x, x), dot(mx, x), dot(x, y), dot(mx, y))


def hamiltonians(mu, x, y):
    """f_i = sum_{j != i} (x_i y_j - x_j y_i)^2 / (mu_i - mu_j)."""
    n = len(mu)
    out = []
    for i in range(n):
        acc = ZERO
        for j in range(n):
            if j != i:
                w = sub(mul(x[i], y[j]), mul(x[j], y[i]))
                acc = add(acc, div(mul(w, w), sub(mu[i], mu[j])))
        out.append(acc)
    return out


def bracket(mu, x, y, a: int, b: int):
    """{f_a, f_b} for the canonical bracket {x_k, y_l} = delta_kl."""
    ga, gb = _gradient(mu, x, y, a), _gradient(mu, x, y, b)
    acc = ZERO
    for k in range(len(mu)):
        acc = add(acc, sub(mul(ga[0][k], gb[1][k]), mul(ga[1][k], gb[0][k])))
    return acc


def _gradient(mu, x, y, i):
    n = len(mu)
    gx = [ZERO] * n
    gy = [ZERO] * n
    for j in range(n):
        if j == i:
            continue
        w = sub(mul(x[i], y[j]), mul(x[j], y[i]))
        c = div(add(w, w), sub(mu[i], mu[j]))
        # dw/dx_i = y_j, dw/dx_j = -y_i, dw/dy_j = x_i, dw/dy_i = -x_j
        gx[i] = add(gx[i], mul(c, y[j]))
        gx[j] = sub(gx[j], mul(c, y[i]))
        gy[j] = add(gy[j], mul(c, x[i]))
        gy[i] = sub(gy[i], mul(c, x[j]))
    return gx, gy


def proportional(x, y) -> bool:
    """y = t x for some t (the covector (x, y) is then zero)."""
    n = len(x)
    return all(
        is_zero(sub(mul(x[i], y[j]), mul(x[j], y[i])))
        for i in range(n)
        for j in range(i + 1, n)
    )
