"""The bi-degree index set, its partial order, and the distinguished elements.

An index element is an (N+1)-tuple of pairs (i_{a,1}, i_{a,2}) of
nonnegative integers subject to: total mass n, and first-coordinate mass
at least r.  The distinguished pairs pi_i / delta_i put (1, 0), (n-1, 0)
respectively (0, 0), (n, 0) at the cyclically consecutive slots i, i+1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple


@dataclass(frozen=True, order=True)
class IndexElem:
    pairs: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        for a, b in self.pairs:
            if a < 0 or b < 0:
                raise ValueError("index entries must be nonnegative")

    @property
    def slots(self) -> int:
        return len(self.pairs)

    def mass(self, alpha: int) -> int:
        a, b = self.pairs[alpha]
        return a + b

    def flat(self) -> Tuple[int, ...]:
        return tuple(x for p in self.pairs for x in p)

    def __str__(self) -> str:
        return "(" + ",".join(f"({a},{b})" for a, b in self.pairs) + ")"


def _check_nrN(n: int, r: int, N: int) -> None:
    if not 1 <= r <= n - 1:
        raise ValueError(f"r must satisfy 1 <= r <= n-1, got r={r}, n={n}")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")


def enumerate_index_set(n: int, r: int, N: int) -> List[IndexElem]:
    """All index elements for (n, r, N), in lexicographic order on the
    flattened 2(N+1)-tuples."""
    _check_nrN(n, r, N)
    slots = 2 * (N + 1)
    out: List[IndexElem] = []
    comp = [0] * slots

    def rec(pos: int, left: int):
        if pos == slots - 1:
            comp[pos] = left
            elem = tuple(
                (comp[2 * a], comp[2 * a + 1]) for a in range(N + 1)
            )
            if sum(comp[0::2]) >= r:
                out.append(IndexElem(elem))
            return
        for v in range(left + 1):
            comp[pos] = v
            rec(pos + 1, left - v)
        comp[pos] = 0

    rec(0, n)
    out.sort(key=lambda e: e.flat())
    return out


def leq(a: IndexElem, b: IndexElem) -> bool:
    """Partial order: equal slot masses and slotwise first coordinates <=."""
    if a.slots != b.slots:
        raise ValueError("elements live over different N")
    for (a1, a2), (b1, b2) in zip(a.pairs, b.pairs):
        if a1 + a2 != b1 + b2:
            return False
        if a1 > b1:
            return False
    return True


def pi_delta(n: int, N: int, i: int) -> Tuple[IndexElem, IndexElem]:
    """The pair (pi_i, delta_i); slots i and i+1 are taken mod N+1."""
    i = i % (N + 1)
    j = (i + 1) % (N + 1)
    base = [(0, 0)] * (N + 1)
    pi = list(base)
    pi[i] = (1, 0)
    pi[j] = (n - 1, 0) if i != j else (n, 0)
    de = list(base)
    de[j] = (n, 0)
    return IndexElem(tuple(pi)), IndexElem(tuple(de))
