"""Dense matrices over exact or float scalars with rank / kernel support.

Exact matrices use plain Gauss-Jordan elimination over the Gaussian
rationals (exact, deterministic first-nonzero pivoting).  Float matrices use
partial pivoting with a relative threshold.  Kernel bases come from the
reduced row echelon form, so each basis vector carries a 1 in "its" free
column and zeros in the other free columns: a reduced column-echelon,
reproducible normal form.
"""

from __future__ import annotations

from .scalars import GaussianRational, as_complex, dot, one_like, zero_like


class Matrix:
    """Rectangular matrix; rows of equal length, exact or float entries."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows):
        rs = [list(r) for r in rows]
        if not rs or not rs[0]:
            raise ValueError("matrix must be nonempty")
        w = len(rs[0])
        if any(len(r) != w for r in rs):
            raise ValueError("ragged rows")
        self.rows = rs
        self.nrows = len(rs)
        self.ncols = w

    @property
    def exact(self) -> bool:
        return isinstance(self.rows[0][0], GaussianRational)

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def transpose(self) -> "Matrix":
        return Matrix([[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)])

    def matvec(self, v):
        if len(v) != self.ncols:
            raise ValueError("dimension mismatch")
        return [dot(row, v) for row in self.rows]

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        cols = list(zip(*other.rows))
        return Matrix([[dot(r, c) for c in cols] for r in self.rows])

    def to_float(self) -> "Matrix":
        return Matrix([[as_complex(v) for v in r] for r in self.rows])

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols})"


def _float_scale(rows) -> float:
    return max((abs(v) for r in rows for v in r), default=0.0)


def rref(m: Matrix, tol: float = 0.0) -> tuple[list[list], list[int]]:
    """Reduced row echelon form and pivot columns.

    tol is ignored for exact matrices; for float matrices an entry counts as
    a pivot only if its magnitude exceeds tol * max|entry|.
    """
    rows = [list(r) for r in m.rows]
    exact = m.exact
    threshold = 0.0 if exact else tol * max(_float_scale(rows), 1e-300)
    nr, nc = len(rows), len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        if r >= nr:
            break
        if exact:
            pivot_row = next((i for i in range(r, nr) if rows[i][c]), None)
        else:
            best, best_val = None, threshold
            for i in range(r, nr):
                if abs(rows[i][c]) > best_val:
                    best, best_val = i, abs(rows[i][c])
            pivot_row = best
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [inv * v for v in rows[r]]
        for i in range(nr):
            if i == r:
                continue
            f = rows[i][c]
            if not f:
                continue
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def rank_kernel(m: Matrix, tol: float = 1e-10) -> tuple[int, list[list]]:
    """Rank and kernel basis; rank + len(kernel) == ncols.

    Exact matrices: every kernel vector v satisfies Mv = 0 exactly.
    Float matrices: residuals are bounded by tol * ||M|| * ||v|| in practice.
    """
    rows, pivots = rref(m, tol=tol)
    rank = len(pivots)
    zero, one = zero_like(m.rows[0][0]), one_like(m.rows[0][0])
    free = [c for c in range(m.ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [zero] * m.ncols
        v[fc] = one
        for r_i, pc in enumerate(pivots):
            v[pc] = -rows[r_i][fc]
        basis.append(v)
    return rank, basis


def solve(m: Matrix, rhs) -> list | None:
    """One exact solution of M v = rhs, or None if inconsistent."""
    aug = Matrix([list(r) + [b] for r, b in zip(m.rows, rhs)])
    rows, pivots = rref(aug)
    if aug.ncols - 1 in pivots:
        return None
    v = [zero_like(m.rows[0][0])] * m.ncols
    for r_i, pc in enumerate(pivots):
        v[pc] = rows[r_i][-1]
    return v
