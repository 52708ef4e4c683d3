"""Seeded inputs for the three workloads.

Every item is one ``qgaudin`` call: an argv list, and for ``classify`` a
point document.  Items come in whole rounds; slot k of every round has the
same fixed shape, so each run holds the same mix whatever its length.

A round has 15 slots (5 for ``operators``).  With R rounds sorted by
latency, the median sits at position 7.5R (2.5R) and the p90 at 13.5R
(4.5R).  The slot counts put both inside a block of items of one shape,
away from the edge between two shapes of different cost, where an order
statistic would jump from run to run.  The same seed gives the same items.
No two items in a run share a pencil.

The program sees only the argv lists and the documents; the points in the
documents are built here with ``qarith``, not with the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import qarith as qa

#: (N, trials) per slot of a round, cheapest first: the CLI's default of
#: 3 trials, and the 5 of the README's ``verify`` example
VERIFY_EXACT_MIX = [(5, 3)] * 6 + [(6, 3)] * 4 + [(5, 5), (7, 3)] + [(8, 3)] * 3
#: (point class, N) per slot, cheapest first
CLASSIFY_MIX = [("wobbly-infinity", 5)] * 2 + [("wobbly-finite", 5)] * 2 + [("stable", 5)] \
    + [("degenerate", 6)] * 5 + [("stable", 6), ("degenerate", 7)] \
    + [("stable", 7)] * 2 + [("stable", 8)]
#: (N, --dmax) per slot, cheapest first
OPERATORS_MIX = [(5, 1), (5, 1), (5, 1), (7, 1), (7, 1)]

#: (a, b) with a^2 - b^2 = 2 s^2: mu = lam*(-a, -b, 0, b, a) + shift then has
#: node weights prod_{j != i} (mu_i - mu_j) that are squares in Q(i), so any
#: square target polynomial pulls back to an exact point.
SQUARE_FRIENDLY_AB = [(3, 1), (9, 7), (11, 7), (19, 17), (33, 31)]


@dataclass
class Item:
    index: int
    argv: list  # with "{out}" (and "{doc}") placeholders
    kind: str
    shape: tuple
    doc: dict | None = None
    expect: dict = field(default_factory=dict)


class Workload:
    """Sequential item source; ``next_round`` must be called in order."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.pencils: set = set()
        self.count = 0

    def warmup(self) -> Item:
        return self._item(-1, self.mix[0])

    def next_round(self) -> list[Item]:
        out = [self._item(self.count + k, shape) for k, shape in enumerate(self.mix)]
        self.count += len(self.mix)
        return out

    def _item(self, index: int, shape) -> Item:
        raise NotImplementedError

    def _claim(self, key) -> bool:
        # pencils are remembered by their hash (the same in every process for
        # numbers), so memory barely grows with the length of the run
        if hash(key) in self.pencils:
            return False
        self.pencils.add(hash(key))
        return True


class VerifyExact(Workload):
    name = "verify-exact"
    mix = VERIFY_EXACT_MIX

    def _item(self, index, shape):
        n, trials = shape
        # trial t of an item samples with seed + t, so blocks of 8 never overlap
        seed = (self.seed + 1) * 10_000_000 + (index + 1) * 8
        args = ["--n", str(n), "--trials", str(trials), "--seed", str(seed)]
        argv = ["verify", *args, "--skip-operators", "--out", "{out}"]
        return Item(index, argv, self.name, (n, trials), expect={"sample": ["sample", *args]})


class Operators(Workload):
    name = "operators"
    mix = OPERATORS_MIX

    def _item(self, index, shape):
        n, dmax = shape
        while True:
            # distinct integers, or distinct rationals over a common denominator
            den = self.rng.choice((1, 1, 2, 3, 5, 7))
            nums = self.rng.sample(range(-12 * den, 12 * den + 1), n)
            mu = [Fraction(v, den) for v in nums]
            if self._claim(frozenset(mu)):
                break
        text = ",".join(str(m) for m in mu)
        argv = ["diffops-verify", "--n", str(n), "--dmax", str(dmax), f"--mu={text}",
                "--out", "{out}"]
        return Item(index, argv, self.name, (n, dmax))


class ClassifyWitness(Workload):
    name = "classify-witness"
    mix = CLASSIFY_MIX

    def _item(self, index, shape):
        kind, n = shape
        if kind == "stable":
            mu, x, y = self._very_stable(n)
            expect = {"verdict": "very_stable"}
        elif kind.startswith("wobbly"):
            mu, x, y = self._wobbly(at_infinity=kind == "wobbly-infinity")
            expect = {"verdict": "wobbly"}
        else:
            mu, x, y, zeros = self._degenerate(n - 5)
            expect = {"verdict": "degenerate", "resolved": "wobbly", "zero_indices": zeros}
        doc = {"N": len(mu), "mode": "exact", "mu": [qa.fmt(m) for m in mu],
               "x": [qa.fmt(v) for v in x], "y": [qa.fmt(v) for v in y]}
        argv = ["classify", "--point", "{doc}", "--out", "{out}"]
        return Item(index, argv, self.name, shape, doc=doc, expect=expect)

    def _gint(self, bound):
        return qa.g(self.rng.randint(-bound, bound), self.rng.randint(-bound, bound))

    def _solve_y(self, mu, x):
        """y with sum x y = sum mu x y = 0: draw y_3.., solve for y_1, y_2."""
        n = len(mu)
        while True:
            y = [qa.ZERO, qa.ZERO] + [self._gint(9) for _ in range(n - 2)]
            s0 = qa.neg(qa.dot(x[2:], y[2:]))
            s1 = qa.neg(qa.total(qa.mul(qa.mul(mu[i], x[i]), y[i]) for i in range(2, n)))
            det = qa.mul(qa.mul(x[0], x[1]), qa.sub(mu[1], mu[0]))
            if qa.is_zero(det):
                raise ValueError("pivot pair has a zero coordinate")
            y[0] = qa.div(qa.sub(qa.mul(s0, qa.mul(mu[1], x[1])), qa.mul(x[1], s1)), det)
            y[1] = qa.div(qa.sub(qa.mul(x[0], s1), qa.mul(qa.mul(mu[0], x[0]), s0)), det)
            if not qa.proportional(x, y):
                return y

    def _very_stable(self, n):
        """Reflect the isotropic (1, i, 0, ...) through a random chord of q = 0,
        then solve sum mu x^2 = 0 for the two leading mu.  Keep only points
        with no zero x_i whose p is squarefree of degree >= N - 4 (at most a
        simple root at infinity): these are very stable."""
        seed_vec = [qa.ONE, qa.g(0, 1)] + [qa.ZERO] * (n - 2)
        while True:
            d = [self._gint(6) for _ in range(n)]
            qd = qa.dot(d, d)
            qpd = qa.add(d[0], qa.mul(qa.g(0, 1), d[1]))
            if qa.is_zero(qd) or qa.is_zero(qpd):
                continue
            x = [qa.sub(qa.mul(qd, p), qa.mul(qa.mul(qa.g(2), qpd), di))
                 for p, di in zip(seed_vec, d)]
            if any(qa.is_zero(v) for v in x):
                continue
            s = [qa.mul(v, v) for v in x]
            det = s[0][0] * s[1][1] - s[1][0] * s[0][1]
            if det == 0:
                continue
            tail = self.rng.sample(range(-12, 13), n - 2)
            r_re = -sum((m * s[i + 2][0] for i, m in enumerate(tail)), qa.F0)
            r_im = -sum((m * s[i + 2][1] for i, m in enumerate(tail)), qa.F0)
            mu1 = (r_re * s[1][1] - s[1][0] * r_im) / det
            mu2 = (s[0][0] * r_im - r_re * s[0][1]) / det
            mu = [qa.g(mu1), qa.g(mu2)] + [qa.g(m) for m in tail]
            if len(set(mu)) != n or hash(frozenset(mu)) in self.pencils:
                continue
            p = qa.auxiliary(mu, x)
            if len(p) - 1 < n - 4 or qa.pgcd_degree(p, qa.pderiv(p)) != 0:
                continue
            self._claim(frozenset(mu))
            return mu, x, self._solve_y(mu, x)

    def _square_friendly_pencil(self):
        while True:
            a, b = self.rng.choice(SQUARE_FRIENDLY_AB)
            lam = Fraction(self.rng.randint(1, 9), self.rng.choice((1, 1, 2, 3)))
            shift = Fraction(self.rng.randint(-30, 30), self.rng.choice((1, 2)))
            mu = [qa.g(lam * v + shift) for v in (-a, -b, 0, b, a)]
            if self._claim(frozenset(mu)):
                return mu

    def _wobbly(self, at_infinity: bool):
        """x with auxiliary polynomial k^2 (v1 z + v0)^2 (a finite double
        root) or the constant k^2 (a double root at infinity), N = 5."""
        while True:
            mu = self._square_friendly_pencil()
            k = qa.g(self.rng.randint(1, 4)) if self.rng.random() < 0.5 else qa.g(0, self.rng.randint(1, 4))
            if at_infinity:
                target = [qa.mul(k, k)]
            else:
                v1, v0 = self.rng.randint(1, 9), self.rng.randint(-9, 9)
                root = qa.g(Fraction(-v0, v1))
                if root in mu:
                    self.pencils.discard(hash(frozenset(mu)))
                    continue
                lin = [qa.mul(k, qa.g(v0)), qa.mul(k, qa.g(v1))]
                target = qa.pmul(lin, lin)
            x = []
            for i, m in enumerate(mu):
                weight = qa.ONE
                for j, other in enumerate(mu):
                    if j != i:
                        weight = qa.mul(weight, qa.sub(m, other))
                val = qa.ZERO
                for c in reversed(target):
                    val = qa.add(qa.mul(val, m), c)
                root_i = qa.sqrt(qa.div(val, weight))
                if root_i is None:
                    raise ValueError("pencil is not square-friendly")
                x.append(root_i)
            return mu, x, self._solve_y(mu, x)

    def _degenerate(self, extra: int):
        """A wobbly N = 5 point padded with `extra` zero coordinates at new
        marked points, so classify reduces it (verdict degenerate, resolved
        wobbly)."""
        mu, x, y = self._wobbly(at_infinity=self.rng.random() < 0.3)
        self.pencils.discard(hash(frozenset(mu)))
        while True:
            new = [qa.g(Fraction(self.rng.randint(-60, 60), 2)) for _ in range(extra)]
            full = set(mu) | set(new)
            p = qa.auxiliary(mu, x)
            double = [qa.div(qa.neg(p[1]), qa.mul(qa.g(2), p[2]))] if len(p) == 3 else []
            if len(full) == 5 + extra and not set(new) & set(double) and self._claim(frozenset(full)):
                break
        n = 5 + extra
        slots = sorted(self.rng.sample(range(n), extra))
        it_mu, it_new = iter(zip(mu, x, y)), iter(new)
        out_mu, out_x, out_y = [], [], []
        for i in range(n):
            if i in slots:
                out_mu.append(next(it_new))
                out_x.append(qa.ZERO)
                out_y.append(self._gint(9))
            else:
                m, xi, yi = next(it_mu)
                out_mu.append(m)
                out_x.append(xi)
                out_y.append(yi)
        return out_mu, out_x, out_y, slots


WORKLOADS = {
    "verify-exact": VerifyExact,
    "classify-witness": ClassifyWitness,
    "operators": Operators,
}
