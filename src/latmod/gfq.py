"""Finite-field scalars and dense exact matrices.

Prime fields are plain ints mod p (see poly.Field); this module adds the
dense matrix routines used by the chain normal-form algorithm and the
point-counting oracles, working generically over any poly.Field (ints
mod p, or Fractions for QQ), plus small extension fields F_{p^k} with
precomputed tables for the dimension-growth oracle.
"""

from __future__ import annotations

from operator import mul
from typing import List, Sequence

from .poly import Field


# -- generic dense matrices ----------------------------------------------------

def mat_identity(n: int, field: Field) -> List[List[object]]:
    return [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]


def mat_mul(A, B, field: Field):
    # plain products summed per entry, reduced once (nothing to do over QQ)
    p, zero = field.p, field.zero
    cols = list(zip(*B))
    out = []
    for Ai in A:
        row = []
        for col in cols:
            acc = sum(map(mul, Ai, col), zero)
            row.append(acc % p if p else acc)
        out.append(row)
    return out


def mat_vec(A, v, field: Field):
    return [row[0] for row in mat_mul(A, [[x] for x in v], field)]


def mat_scale(A, c, field: Field):
    p = field.p
    return [[x * c % p if p else x * c for x in row] for row in A]


def mat_sub(A, B, field: Field):
    return [
        [field.sub(a, b) for a, b in zip(ra, rb)]
        for ra, rb in zip(A, B)
    ]


def rref(A, field: Field):
    """Reduced row echelon form; returns (R, pivot column list).  Entries are
    reduced once per row operation (% p over GF(p), so int input may be
    unreduced; nothing over QQ)."""
    p = field.p
    R = [[x % p for x in row] if p else list(row) for row in A]
    rows = len(R)
    cols = len(R[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pr = None
        for i in range(r, rows):
            if R[i][c]:
                pr = i
                break
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        inv = field.div(field.one, R[r][c])
        Rr = R[r] = [x * inv % p if p else x * inv for x in R[r]]
        for i in range(rows):
            f = R[i][c]
            if f and i != r:
                R[i] = [(x - f * y) % p if p else x - f * y for x, y in zip(R[i], Rr)]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return R, pivots


def mat_rank(A, field: Field) -> int:
    if not A:
        return 0
    return len(rref(A, field)[1])


def mat_inv(A, field: Field):
    """Inverse, or None when singular."""
    n = len(A)
    unit = mat_identity(n, field)
    R, pivots = rref([list(A[i]) + unit[i] for i in range(n)], field)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in R]


def mat_det(A, field: Field):
    n = len(A)
    M = [list(row) for row in A]
    det = field.one
    for c in range(n):
        pr = None
        for i in range(c, n):
            if M[i][c]:
                pr = i
                break
        if pr is None:
            return field.zero
        if pr != c:
            M[c], M[pr] = M[pr], M[c]
            det = field.neg(det)
        det = field.mul(det, M[c][c])
        inv = field.div(field.one, M[c][c])
        for i in range(c + 1, n):
            if M[i][c]:
                f = field.mul(M[i][c], inv)
                M[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(M[i], M[c])]
    return det


def column_space_complement(A, field: Field) -> List[List[object]]:
    """Standard basis vectors extending col(A) to the full space.

    Greedy over e_1, e_2, ...: keep each unit vector that enlarges the
    span, i.e. the pivot columns of rref([A | Id]) past A.  Deterministic,
    which keeps normal-form runs reproducible.  Returns the chosen unit
    vectors (as column vectors).
    """
    n = len(A)
    m = len(A[0]) if n else 0
    unit = mat_identity(n, field)
    _, pivots = rref([list(A[i]) + unit[i] for i in range(n)], field)
    return [unit[c - m] for c in pivots if c >= m]


# -- extension fields ----------------------------------------------------------

class SmallField:
    """F_{p^k} with full add/mul tables; elements are ints in [0, p^k)."""

    def __init__(self, p: int, k: int):
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = _find_irreducible(p, k)
        self._build_tables()

    def _build_tables(self):
        p, k, q = self.p, self.k, self.q

        def to_vec(x: int) -> List[int]:
            v = []
            for _ in range(k):
                v.append(x % p)
                x //= p
            return v

        def from_vec(v: Sequence[int]) -> int:
            x = 0
            for c in reversed(v):
                x = x * p + c
            return x

        self.add_t = [[0] * q for _ in range(q)]
        self.mul_t = [[0] * q for _ in range(q)]
        vecs = [to_vec(x) for x in range(q)]
        for a in range(q):
            for b in range(a, q):
                s = from_vec([(x + y) % p for x, y in zip(vecs[a], vecs[b])])
                self.add_t[a][b] = s
                self.add_t[b][a] = s
        for a in range(q):
            for b in range(a, q):
                prod = [0] * (2 * k - 1)
                va, vb = vecs[a], vecs[b]
                for i, x in enumerate(va):
                    if not x:
                        continue
                    for j, y in enumerate(vb):
                        prod[i + j] = (prod[i + j] + x * y) % p
                # reduce modulo the irreducible polynomial
                for d in range(2 * k - 2, k - 1, -1):
                    c = prod[d]
                    if c:
                        prod[d] = 0
                        for i, mc in enumerate(self.modulus[:-1]):
                            prod[d - k + i] = (prod[d - k + i] - c * mc) % p
                m = from_vec(prod[:k])
                self.mul_t[a][b] = m
                self.mul_t[b][a] = m

    def add(self, a: int, b: int) -> int:
        return self.add_t[a][b]

    def mul(self, a: int, b: int) -> int:
        return self.mul_t[a][b]

    def pow(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self.mul_t[r][a]
            a = self.mul_t[a][a]
            e >>= 1
        return r

    def embed_prime(self, c: int) -> int:
        return c % self.p

    def elements(self):
        return range(self.q)


def _find_irreducible(p: int, k: int) -> List[int]:
    """Monic irreducible of degree k over F_p, as coefficient list (low->high)."""
    if k == 1:
        return [0, 1]

    def is_irreducible(coeffs: List[int]) -> bool:
        # no roots and no factor of degree <= k//2, by trial division over
        # all monic polys of small degree (k <= 3 keeps this tiny)
        for d in range(1, k // 2 + 1):
            for tail in range(p**d):
                g = []
                x = tail
                for _ in range(d):
                    g.append(x % p)
                    x //= p
                g.append(1)
                if _poly_divides(g, coeffs, p):
                    return False
        return True

    for tail in range(p**k):
        c = []
        x = tail
        for _ in range(k):
            c.append(x % p)
            x //= p
        c.append(1)
        if is_irreducible(c):
            return c
    raise RuntimeError("no irreducible polynomial found")


def _poly_divides(g: List[int], f: List[int], p: int) -> bool:
    r = list(f)
    dg = len(g) - 1
    while len(r) - 1 >= dg:
        if r[-1] == 0:
            r.pop()
            continue
        c = r[-1]  # g monic
        off = len(r) - 1 - dg
        for i, gc in enumerate(g):
            r[off + i] = (r[off + i] - c * gc) % p
        r.pop()
    return all(x == 0 for x in r)
