"""Dense linear algebra in gfq against a generic reference.

The reference routines below are the straightforward versions written
with Field.add/Field.mul per entry and one rank computation per greedy
candidate; gfq's versions must agree with them entry for entry.
"""

import random
from fractions import Fraction

import pytest

from latmod.gfq import column_space_complement, mat_identity, mat_inv, mat_mul, mat_rank, rref
from latmod.poly import GF, QQ, Field


def ref_mat_mul(A, B, field: Field):
    n, m, k = len(A), len(B[0]), len(B)
    out = [[field.zero] * m for _ in range(n)]
    for i in range(n):
        for l in range(k):
            a = A[i][l]
            if not a:
                continue
            for j in range(m):
                out[i][j] = field.add(out[i][j], field.mul(a, B[l][j]))
    return out


def ref_rref(A, field: Field):
    R = [list(row) for row in A]
    rows = len(R)
    cols = len(R[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if R[i][c]), None)
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        inv = field.div(field.one, R[r][c])
        R[r] = [field.mul(x, inv) for x in R[r]]
        for i in range(rows):
            if i != r and R[i][c]:
                f = R[i][c]
                R[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return R, pivots


def ref_rank(A, field: Field) -> int:
    return len(ref_rref(A, field)[1]) if A else 0


def ref_complement(A, field: Field):
    n = len(A)
    current = []
    if A and A[0]:
        current = [[A[i][j] for i in range(n)] for j in range(len(A[0]))]
    rank = ref_rank(current, field)
    chosen = []
    for j in range(n):
        if rank == n:
            break
        e = [field.one if i == j else field.zero for i in range(n)]
        r2 = ref_rank(current + [e], field)
        if r2 > rank:
            current.append(e)
            chosen.append(e)
            rank = r2
    return chosen


FIELDS = [GF(2), GF(3), GF(7), QQ]


def rand_entry(rng, field: Field):
    if field.p:
        return rng.randrange(field.p) if rng.random() < 0.7 else 0
    if rng.random() < 0.3:
        return Fraction(0)
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def rand_matrix(rng, rows, cols, field: Field):
    return [[rand_entry(rng, field) for _ in range(cols)] for _ in range(rows)]


def rand_low_rank(rng, rows, cols, rank, field: Field):
    return mat_mul(rand_matrix(rng, rows, rank, field), rand_matrix(rng, rank, cols, field), field)


def shapes(rng, field: Field):
    """Square, rectangular, 1x1 and rank-deficient matrices."""
    out = [[[rand_entry(rng, field)]], [[field.zero]], [[field.one]]]
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        out.append(rand_matrix(rng, rows, cols, field))
    for _ in range(20):
        n = rng.randint(2, 5)
        out.append(rand_low_rank(rng, n, n, rng.randint(1, n - 1), field))
    return out


def unreduced(rng, A, p):
    """A with every entry shifted by a random multiple of p."""
    return [[x + p * rng.randint(-3, 3) for x in row] for row in A]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_mat_mul_matches_reference(field):
    rng = random.Random(11 + field.p)
    for _ in range(150):
        n, k, m = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        A, B = rand_matrix(rng, n, k, field), rand_matrix(rng, k, m, field)
        expected = ref_mat_mul(A, B, field)
        assert mat_mul(A, B, field) == expected
        if field.p:
            assert mat_mul(unreduced(rng, A, field.p), unreduced(rng, B, field.p), field) == expected
        else:
            assert all(isinstance(x, Fraction) for row in mat_mul(A, B, field) for x in row)
    assert mat_mul([], [[field.one]], field) == []


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_rref_and_rank_match_reference(field):
    rng = random.Random(23 + field.p)
    for A in shapes(rng, field):
        expected = ref_rref(A, field)
        assert rref(A, field) == expected
        assert mat_rank(A, field) == ref_rank(A, field)
        if field.p:
            B = unreduced(rng, A, field.p)
            assert rref(B, field) == expected
            assert mat_rank(B, field) == len(expected[1])
    assert rref([], field) == ([], [])
    assert mat_rank([], field) == 0


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_mat_inv_none_exactly_when_singular(field):
    rng = random.Random(37 + field.p)
    singular = invertible = 0
    for A in shapes(rng, field):
        n = len(A)
        if len(A[0]) != n:
            continue
        inv = mat_inv(A, field)
        if ref_rank(A, field) < n:
            assert inv is None
            singular += 1
            continue
        invertible += 1
        assert inv is not None
        assert ref_mat_mul(A, inv, field) == mat_identity(n, field)
        if field.p:
            assert mat_inv(unreduced(rng, A, field.p), field) == inv
    assert singular and invertible
    assert mat_inv([], field) == []


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_column_space_complement_matches_reference(field):
    rng = random.Random(41 + field.p)
    for A in shapes(rng, field):
        chosen = column_space_complement(A, field)
        assert chosen == ref_complement(A, field)
        n = len(A)
        span = [list(col) for col in zip(*A)] + chosen
        assert ref_rank(span, field) == n
    assert column_space_complement([], field) == []
    assert column_space_complement([[], []], field) == ref_complement([[], []], field)
