"""Combinatorial chain data, the shift matrix, and the parabolic shape.

The shift matrix T has the identity in its upper-right (n-1)-block and t
in the lower-left corner; T^n = t * Id.  Lattice bases are always chosen
as columns of powers of T, so every inclusion map in the chain is a
power of T; the wrap-around map uses d_{N+1} through the identification
of the full twist with multiplication by t.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .poly import Field, PolyRing
from . import polymat


@dataclass(frozen=True)
class ChainSpec:
    """Input data (n, r, N, (d_i), symplectic flag) for a chain scheme."""

    n: int
    r: int
    N: int
    d: Tuple[int, ...]
    symplectic: bool = False

    def __post_init__(self):
        if not 1 <= self.r <= self.n - 1:
            raise ValueError("need 1 <= r <= n-1")
        if self.N < 0:
            raise ValueError("need N >= 0")
        d = tuple(int(x) for x in self.d)
        object.__setattr__(self, "d", d)
        if len(d) != self.N + 1:
            raise ValueError(f"d must have N+1 = {self.N + 1} entries")
        if any(x <= 0 for x in d):
            raise ValueError("chain steps must be strictly positive")
        if self.symplectic:
            if self.n % 2 or self.r != self.n // 2:
                raise ValueError("symplectic case needs n = 2g, r = g")
            g = self.n // 2
            if sum(d[:-1]) != g or d[-1] != g:
                raise ValueError(
                    "symplectic case needs d_1..d_N summing to g and d_{N+1} = g"
                )
        else:
            if sum(d) != self.n:
                raise ValueError("chain steps must sum to n")

    @property
    def g(self) -> Optional[int]:
        return self.n // 2 if self.symplectic else None

    def step(self, i: int) -> int:
        """d for the inclusion into slot i-1; slot 0 wraps to d_{N+1}."""
        i = i % (self.N + 1)
        return self.d[-1] if i == 0 else self.d[i - 1]


def shift_matrix_power(n: int, m: int, ring: PolyRing):
    """Exact m-th power of the shift matrix, entries monomials in t.

    T e_j = e_{j-1} for j >= 2 and T e_1 = t e_n, so T^m (for m = q*n + s)
    is t^q times the block matrix with Id_{n-s} upper right and t*Id_s
    lower left.
    """
    if m < 0:
        raise ValueError("power must be nonnegative")
    t = ring.var("t")
    q, s = divmod(m, n)
    tq = t**q
    out = polymat.zeros(ring, n, n)
    for j in range(n):
        if j < s:
            out[n - s + j][j] = tq * t
        else:
            out[j - s][j] = tq
    return out


class ParabolicShape:
    """Block upper-triangular n x n shape with diagonal blocks r, n-r.

    Owns the coordinate layout: ``positions()`` lists the entries outside
    the zero block, row-major, and ``matrix`` fills them in that order.
    The cyclic-product coordinates are Pi{i}_{row}_{col} (1-indexed).
    """

    def __init__(self, n: int, r: int):
        if not 1 <= r <= n - 1:
            raise ValueError("need 1 <= r <= n-1")
        self.n = n
        self.r = r
        self._positions = tuple(
            (i, j) for i in range(n) for j in range(n) if not (i >= r and j < r)
        )

    def positions(self) -> Tuple[Tuple[int, int], ...]:
        """Row-major coordinates of the (possibly) nonzero entries."""
        return self._positions

    def var_names(self, i: int) -> List[str]:
        return [f"Pi{i}_{a + 1}_{b + 1}" for a, b in self.positions()]

    def matrix(self, entries, zero):
        """The n x n matrix holding ``entries`` at ``positions()``, in order,
        and ``zero`` in the zero block."""
        m = [[zero] * self.n for _ in range(self.n)]
        for (a, b), x in zip(self.positions(), entries):
            m[a][b] = x
        return m

    def symbolic_matrix(self, ring: PolyRing, i: int):
        return self.matrix(map(ring.var, self.var_names(i)), ring.zero)

    def in_shape(self, mat) -> bool:
        """Whether the zero block of ``mat`` is zero; the entries may be
        polynomials or field values."""
        return all(mat[i][j] == 0 for i in range(self.r, self.n) for j in range(self.r))

    def blocks(self, mat):
        """(A, B, C) blocks of a matrix in this shape."""
        r, n = self.r, self.n
        A = [row[:r] for row in mat[:r]]
        B = [row[r:] for row in mat[:r]]
        C = [row[r:] for row in mat[r:]]
        return A, B, C


def shift_matrix_value(n: int, m: int, tau, field: Field):
    """T^m with t specialized to a field element."""
    q, s = divmod(m, n)
    tq = field.one
    for _ in range(q):
        tq = field.mul(tq, field.coerce(tau))
    out = [[field.zero] * n for _ in range(n)]
    for j in range(n):
        if j < s:
            out[n - s + j][j] = field.mul(tq, field.coerce(tau))
        else:
            out[j - s][j] = tq
    return out
