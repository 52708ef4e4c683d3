import random

import pytest

from quadric_gaudin.linalg import Matrix, rank_kernel
from quadric_gaudin.scalars import gr


def test_identity_full_rank():
    m = Matrix([[gr(1 if i == j else 0) for j in range(3)] for i in range(3)])
    rank, kernel = rank_kernel(m)
    assert rank == 3 and kernel == []


def test_single_row_kernel():
    m = Matrix([[gr(1), gr(1), gr(1)]])
    rank, kernel = rank_kernel(m)
    assert rank == 1 and len(kernel) == 2
    for v in kernel:
        assert all(val.is_zero() for val in m.matvec(v))


def test_kernel_reduced_echelon_normal_form():
    # kernel vectors carry a 1 in their own free column and 0 in the others
    m = Matrix([[gr(1), gr(2), gr(3), gr(4)]])
    _, kernel = rank_kernel(m)
    assert len(kernel) == 3
    free_cols = [1, 2, 3]
    for v, fc in zip(kernel, free_cols):
        assert v[fc] == gr(1)
        for other in free_cols:
            if other != fc:
                assert v[other].is_zero()


def test_rank_plus_kernel_dim():
    rng = random.Random(6)
    for _ in range(25):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = Matrix(
            [[gr(rng.randint(-3, 3), rng.randint(-2, 2)) for _ in range(cols)] for _ in range(rows)]
        )
        rank, kernel = rank_kernel(m)
        assert rank + len(kernel) == cols
        for v in kernel:
            assert all(val.is_zero() for val in m.matvec(v))


def test_float_rank_with_tolerance():
    m = Matrix([[1.0, 2.0], [1.0, 2.0 + 1e-13]])
    rank, kernel = rank_kernel(m, tol=1e-10)
    assert rank == 1 and len(kernel) == 1
    v = kernel[0]
    resid = m.matvec(v)
    norm = max(abs(val) for val in v)
    assert all(abs(r) <= 1e-9 * 3 * norm for r in resid)


def test_matrix_validation():
    with pytest.raises(ValueError):
        Matrix([])
    with pytest.raises(ValueError):
        Matrix([[gr(1)], [gr(1), gr(2)]])
