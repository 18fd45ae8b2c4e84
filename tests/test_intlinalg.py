import random

import pytest

import latmod.intlinalg as intlinalg
from latmod.characters import (
    character_data,
    kernel_is_torus_check,
    quotient_by_subtorus_check,
)
from latmod.intlinalg import (
    IntMatrix,
    SnfResult,
    cokernel_invariants,
    lattice_membership,
    saturated_kernel,
    snf,
    solve_integer,
)

from snfcheck import det, snf_holds


def dense_snf(A: IntMatrix) -> SnfResult:
    """Reference for ``snf``: the classical dense Smith normal form.

    Classical reduction: repeatedly move a minimal nonzero entry to the
    pivot, clear its row and column with exact integer row/column
    operations, and restart the pivot whenever a non-divisible remainder
    shows up.  All operations are mirrored on U (rows) and V (columns),
    so ``U*A*V == D`` holds exactly at every step.
    """
    rows, cols = A.rows, A.cols
    m = A.to_rows()
    U = IntMatrix.identity(rows).to_rows()
    V = IntMatrix.identity(cols).to_rows()

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in m:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def add_row(src, dst, c):
        # row[dst] += c * row[src]
        mr, ms = m[dst], m[src]
        for k in range(cols):
            mr[k] += c * ms[k]
        ur, us = U[dst], U[src]
        for k in range(rows):
            ur[k] += c * us[k]

    def add_col(src, dst, c):
        for r in m:
            r[dst] += c * r[src]
        for r in V:
            r[dst] += c * r[src]

    def negate_row(i):
        m[i] = [-x for x in m[i]]
        U[i] = [-x for x in U[i]]

    n = min(rows, cols)
    for k in range(n):
        # Find a pivot: smallest nonzero |entry| in the remaining block.
        pivot = None
        best = None
        for i in range(k, rows):
            for j in range(k, cols):
                v = m[i][j]
                if v != 0 and (best is None or abs(v) < best):
                    best = abs(v)
                    pivot = (i, j)
        if pivot is None:
            break
        while True:
            i, j = pivot
            if i != k:
                swap_rows(k, i)
            if j != k:
                swap_cols(k, j)
            if m[k][k] < 0:
                negate_row(k)
            # Clear column k below the pivot.
            dirty = False
            for i in range(k + 1, rows):
                if m[i][k] != 0:
                    q = m[i][k] // m[k][k]
                    add_row(k, i, -q)
                    if m[i][k] != 0:
                        dirty = True
            # Clear row k right of the pivot.
            for j in range(k + 1, cols):
                if m[k][j] != 0:
                    q = m[k][j] // m[k][k]
                    add_col(k, j, -q)
                    if m[k][j] != 0:
                        dirty = True
            if not dirty:
                # Pivot must divide the whole remaining block for the
                # divisibility chain; if not, fold an offender in.
                offender = None
                for i in range(k + 1, rows):
                    for j in range(k + 1, cols):
                        if m[i][j] % m[k][k] != 0:
                            offender = (i, j)
                            break
                    if offender:
                        break
                if offender is None:
                    break
                add_row(offender[0], k, 1)
                pivot = (k, k)
                continue
            # Re-pick the smallest entry and loop.
            pivot = None
            best = None
            for i in range(k, rows):
                for j in range(k, cols):
                    v = m[i][j]
                    if v != 0 and (best is None or abs(v) < best):
                        best = abs(v)
                        pivot = (i, j)

    D = IntMatrix.from_rows(m) if rows else IntMatrix.zero(rows, cols)
    invariants = tuple(m[i][i] for i in range(n)) if n else ()
    result = SnfResult(
        U=IntMatrix.from_rows(U) if rows else IntMatrix.identity(0),
        D=D,
        V=IntMatrix.from_rows(V) if cols else IntMatrix.identity(0),
        invariants=invariants,
    )
    assert result.U * A * result.V == result.D
    return result


def _assert_matches_reference(A: IntMatrix) -> None:
    res = snf(A)
    assert res.invariants == dense_snf(A).invariants, A
    assert snf_holds(res, A), A


def test_snf_identity():
    res = snf(IntMatrix.identity(2))
    assert res.invariants == (1, 1)
    assert snf_holds(res, IntMatrix.identity(2))


def test_snf_diag_2_3():
    A = IntMatrix.from_rows([[2, 0], [0, 3]])
    res = snf(A)
    assert res.invariants == (1, 6)
    assert res.U * A * res.V == res.D


def test_snf_zero():
    res = snf(IntMatrix.from_rows([[0]]))
    assert res.invariants == (0,)


def test_snf_random_witnesses():
    rng = random.Random(20117)
    for _ in range(200):
        rows = rng.randrange(1, 9)
        cols = rng.randrange(1, 9)
        A = IntMatrix(
            rows, cols, [rng.randrange(-9, 10) for _ in range(rows * cols)]
        )
        res = snf(A)
        assert snf_holds(res, A), A
        assert res.invariants == dense_snf(A).invariants, A
        nonzero = [d for d in res.invariants if d]
        assert all(d > 0 for d in nonzero)
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0


def test_cokernel_column_2_m1_m1():
    inv = cokernel_invariants(IntMatrix.from_rows([[2], [-1], [-1]]))
    assert [d for d in inv if d] == [1]
    assert inv.count(0) == 2  # corank-2 free part


def test_cokernel_column_2_4():
    inv = cokernel_invariants(IntMatrix.from_rows([[2], [4]]))
    assert [d for d in inv if d] == [2]  # torsion present


def test_cokernel_empty_matrix():
    inv = cokernel_invariants(IntMatrix.zero(3, 0))
    assert inv == [0, 0, 0]  # free of rank 3


def test_kernel_row_1_1():
    K = saturated_kernel(IntMatrix.from_rows([[1, 1]]))
    assert K.rows == 1
    assert lattice_membership(K, (1, -1)) is not None


def test_kernel_identity_empty():
    K = saturated_kernel(IntMatrix.identity(2))
    assert K.rows == 0


def test_kernel_2_4_primitive():
    A = IntMatrix.from_rows([[2, 4]])
    K = saturated_kernel(A)
    assert K.rows == 1
    v = K.row(0)
    assert 2 * v[0] + 4 * v[1] == 0
    # primitive and spanning the same lattice as (2, -1)
    assert lattice_membership(K, (2, -1)) is not None
    inv = cokernel_invariants(K.transpose())
    assert all(d in (0, 1) for d in inv)


def test_kernel_saturated_random():
    rng = random.Random(7511)
    for _ in range(50):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 6)
        A = IntMatrix(
            rows, cols, [rng.randrange(-6, 7) for _ in range(rows * cols)]
        )
        K = saturated_kernel(A)
        for i in range(K.rows):
            v = K.row(i)
            assert all(
                sum(A[a, b] * v[b] for b in range(cols)) == 0 for a in range(rows)
            )
        if K.rows:
            # saturation: quotient of Z^cols by the kernel lattice is torsion-free
            inv = cokernel_invariants(K.transpose())
            assert all(d in (0, 1) for d in inv)


def test_solve_integer():
    A = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert solve_integer(A, [4, 9]) == [2, 3]
    assert solve_integer(A, [1, 0]) is None


def test_det_bareiss():
    A = IntMatrix.from_rows([[2, 3], [1, 4]])
    assert det(A) == 5
    B = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert det(B) == 0


def test_snf_matches_dense_reference_on_random_sparse():
    # About 5% nonzeros drawn from {+-1, +-2, +-3, +-6}: once the units are
    # used up the pivots are 2 or 3 with the other one still active, so the
    # non-unit re-pick and the offender fold both run.
    rng = random.Random(9029)
    values = (1, -1, 2, -2, 3, -3, 6, -6)
    for _ in range(40):
        rows, cols = rng.randrange(1, 41), rng.randrange(1, 41)
        A = IntMatrix(
            rows,
            cols,
            [rng.choice(values) if rng.random() < 0.05 else 0 for _ in range(rows * cols)],
        )
        _assert_matches_reference(A)


@pytest.mark.parametrize(
    "rows",
    [
        [[0, 0, 0], [0, 2, 0], [0, 0, 3]],
        [[0, 4, 0], [0, 0, 0], [6, 0, 0], [0, 0, 0]],
        [[0, 0], [0, 0]],
        [[2, 0, 0, 3]],
        [[0], [6], [0], [4]],
    ],
)
def test_snf_zero_rows_and_columns(rows):
    _assert_matches_reference(IntMatrix.from_rows(rows))


# Pivot (0, 0) = 4, then (1, 0) = 2; the fold of the offender row leaves
# the entry 1 < 2 in the pivot row, whose quotient by the pivot is 0.
_FOLD_BELOW_PIVOT = [[4, -4], [6, -4], [10, -7], [0, 8]]


@pytest.mark.parametrize("transpose", [False, True])
def test_snf_fold_leaves_entry_below_pivot(transpose):
    A = IntMatrix.from_rows(_FOLD_BELOW_PIVOT)
    _assert_matches_reference(A.transpose() if transpose else A)


def test_constructors_reject_negative_dimensions():
    for rows, cols in [(-1, 3), (3, -1)]:
        with pytest.raises(ValueError):
            IntMatrix.zero(rows, cols)
    with pytest.raises(ValueError):
        IntMatrix.identity(-1)


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
def test_snf_empty_shapes(shape):
    A = IntMatrix.zero(*shape)
    res = snf(A)
    assert res.invariants == ()
    assert (res.U.rows, res.U.cols) == (shape[0], shape[0])
    assert (res.D.rows, res.D.cols) == shape
    assert (res.V.rows, res.V.cols) == (shape[1], shape[1])
    assert snf_holds(res, A)


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("N", [1, 2])
def test_snf_verifies_on_n4_character_inputs(monkeypatch, r, N):
    inputs = []

    def recording_snf(A):
        inputs.append(A)
        return snf(A)

    monkeypatch.setattr(intlinalg, "snf", recording_snf)
    data = character_data(4, r, N)
    assert kernel_is_torus_check(data).verdict
    assert quotient_by_subtorus_check(data).verdict
    monkeypatch.undo()
    assert inputs
    for A in inputs:
        assert snf_holds(snf(A), A), (A.rows, A.cols)


def test_snf_witness_check_raises_on_wrong_product(monkeypatch):
    monkeypatch.setattr(
        IntMatrix, "__mul__", lambda self, other: IntMatrix.zero(self.rows, other.cols)
    )
    with pytest.raises(AssertionError, match="witness"):
        snf(IntMatrix.from_rows([[2, 0], [0, 3]]))
