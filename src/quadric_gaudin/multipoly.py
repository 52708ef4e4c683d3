"""Sparse multivariate polynomials with exact coefficients.

Terms map exponent tuples (length = number of variables) to Gaussian
rationals; zero coefficients are never stored.  This is the substrate for
the rotation operators and for normal forms modulo the two diagonal
quadrics q = sum x_i^2 and q1 = sum mu_i x_i^2.

Such a dict is a sparse vector on the monomial basis, and this module holds
the one kernel that works on them: ``_apply`` (an operator given by its
sparse columns, applied by linearity), ``_combine`` (a linear combination)
and ``_shift`` (times a monomial).  ``MultiPoly`` arithmetic runs on it, and
so do the operator suites in ``diffops``.  ``reduce_mod_quadrics`` keeps its
own rewriting loop.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .scalars import GaussianRational, ZERO, ONE, gr


class MultiPoly:
    """Polynomial in N variables, sparse exponent-vector representation."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple, GaussianRational] | None = None):
        self.nvars = nvars
        clean: dict[tuple, GaussianRational] = {}
        if terms:
            for e, c in terms.items():
                if len(e) != nvars:
                    raise ValueError("exponent vector length mismatch")
                if c:
                    clean[tuple(e)] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "MultiPoly":
        return MultiPoly(nvars)

    @staticmethod
    def constant(nvars: int, c) -> "MultiPoly":
        c = c if isinstance(c, GaussianRational) else gr(c)
        return MultiPoly(nvars, {(0,) * nvars: c})

    @staticmethod
    def variable(nvars: int, i: int) -> "MultiPoly":
        e = [0] * nvars
        e[i] = 1
        return MultiPoly(nvars, {tuple(e): ONE})

    @staticmethod
    def monomial(nvars: int, exps: Iterable[int], c=ONE) -> "MultiPoly":
        c = c if isinstance(c, GaussianRational) else gr(c)
        return MultiPoly(nvars, {tuple(exps): c})

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "MultiPoly(0)"
        bits = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(f"x{i}^{p}" for i, p in enumerate(e) if p)
            bits.append(f"({c}){'*' + mono if mono else ''}")
        return " + ".join(bits)

    # -- arithmetic ----------------------------------------------------------

    def _check_nvars(self, other: "MultiPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_nvars(other)
        return _poly(self.nvars, _combine(((1, self.terms), (1, other.terms))))

    def __neg__(self) -> "MultiPoly":
        return _poly(self.nvars, _combine([(-1, self.terms)]))

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_nvars(other)
        return _poly(self.nvars, _combine(((1, self.terms), (-1, other.terms))))

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_nvars(other)
        terms = other.terms
        return _poly(self.nvars, _combine((c, _shift(terms, e)) for e, c in self.terms.items()))

    def scale(self, c) -> "MultiPoly":
        c = c if isinstance(c, GaussianRational) else gr(c)
        return _poly(self.nvars, _combine([(c, self.terms)]))

    def mul_monomial(self, exps: tuple, c=ONE) -> "MultiPoly":
        return _poly(self.nvars, _combine([(c, _shift(self.terms, exps))]))

    def diff(self, i: int) -> "MultiPoly":
        down = tuple(-(k == i) for k in range(self.nvars))
        return _poly(self.nvars, _combine(
            (e[i], _shift({e: c}, down)) for e, c in self.terms.items() if e[i]
        ))

    def evaluate(self, point: Iterable[GaussianRational]) -> GaussianRational:
        xs = list(point)
        if len(xs) != self.nvars:
            raise ValueError("evaluation point length mismatch")
        acc = ZERO
        for e, c in self.terms.items():
            v = c
            for xi, p in zip(xs, e):
                if p:
                    v = v * xi**p
            acc = acc + v
        return acc



def _poly(nvars: int, terms: dict) -> MultiPoly:
    """A MultiPoly on terms that already have no zero entries, not copied."""
    r = MultiPoly.__new__(MultiPoly)
    r.nvars = nvars
    r.terms = terms
    return r


# -- the kernel: sparse vectors on the monomial basis -------------------------


def _apply(op, vec: dict) -> dict:
    """The operator with columns op[e] applied to vec by linearity; no zero entries."""
    out = {}
    for e, c in vec.items():
        for g, w in op[e].items():
            s = out.get(g)
            s = c * w if s is None else s + c * w
            if s:
                out[g] = s
            else:
                out.pop(g, None)
    return out


def _combine(pairs) -> dict:
    """sum of c * v over (c, v) pairs: the vectors as the columns of an operator,
    applied to the coefficients."""
    pairs = list(pairs)
    return _apply([v for _, v in pairs], {k: c for k, (c, _) in enumerate(pairs)})


def _shift(vec: dict, s: tuple) -> dict:
    """vec times the monomial x^s."""
    return {tuple(a + b for a, b in zip(e, s)): c for e, c in vec.items()}


def quadric(nvars: int) -> MultiPoly:
    """q = x_1^2 + ... + x_N^2."""
    terms = {}
    for i in range(nvars):
        e = [0] * nvars
        e[i] = 2
        terms[tuple(e)] = ONE
    return MultiPoly(nvars, terms)


def weighted_quadric(mu) -> MultiPoly:
    """q1 = mu_1 x_1^2 + ... + mu_N x_N^2."""
    n = len(mu)
    terms = {}
    for i in range(n):
        e = [0] * n
        e[i] = 2
        m = mu[i] if isinstance(mu[i], GaussianRational) else gr(mu[i])
        if m:
            terms[tuple(e)] = m
    return MultiPoly(n, terms)


def reduce_mod_quadrics(f: MultiPoly, pencil, mode: str = "q-and-q1") -> MultiPoly:
    """Normal form of f modulo q = 0 (mode "q-only") or q = q1 = 0.

    Rewrites x_1^2 (and x_2^2 in two-quadric mode) using the relations; the
    leading terms x_1^2, x_2^2 are coprime so the rewriting is confluent and
    the result is zero exactly when f lies in the chosen ideal.  The rules
    bring in only x_2^2 .. x_N^2 (x_3^2 .. in two-quadric mode), so one pass
    per rewritten variable, from its highest power down, reaches the normal
    form.
    """
    if mode not in ("q-only", "q-and-q1"):
        raise ValueError(f"unknown reduction mode {mode!r}")
    mu = pencil.mu
    n = f.nvars
    if len(mu) != n:
        raise ValueError("pencil size does not match variable count")
    if mode == "q-and-q1" and mu[0] == mu[1]:
        raise ValueError("degenerate pencil: mu_1 = mu_2")

    # rewrite rules x_v^2 -> sum_k c_k x_k^2, as (v, [(k, c_k), ...])
    if mode == "q-only":
        rules = [(0, [(k, -ONE) for k in range(1, n)])]  # x1^2 -> -(x2^2+...)
    else:
        d = mu[0] - mu[1]
        # mu2*q - q1 eliminates x2^2:  x1^2 = sum_{i>=3} (mu2-mu_i)/(mu1-mu2) x_i^2
        rules = [
            (0, [(k, (mu[1] - mu[k]) / d) for k in range(2, n)]),
            (1, [(k, (mu[k] - mu[0]) / d) for k in range(2, n)]),
        ]

    work = dict(f.terms)
    for v, rule in rules:
        top = max((e[v] for e in work), default=0)
        for p in range(top, 1, -1):
            for e in [e for e in work if e[v] == p]:
                c = work.pop(e)
                for k, r in rule:
                    g = list(e)
                    g[v] -= 2
                    g[k] += 2
                    g = tuple(g)
                    s = work.get(g)
                    s = c * r if s is None else s + c * r
                    if s:
                        work[g] = s
                    else:
                        work.pop(g, None)
    return MultiPoly(n, work)
