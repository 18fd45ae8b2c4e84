"""Polynomial ideals: Groebner bases, membership, dimension, saturation, minors.

A PolyIdeal pairs a generator list with a monomial order tag and caches
its reduced Groebner basis in the packed kernel representation.  All
operations are exact; the only failure mode is the pair-queue resource
guard, whose cap ``pair_limit`` each ideal carries into its saturations.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import kernel
from .packing import Packing, get_packing
from .poly import MultiPoly, PolyRing

DEFAULT_PAIR_LIMIT = 100_000

Order = object  # "grevlex" | ("block", k)


def _scaled_terms(f: MultiPoly, pk: Packing) -> Tuple[List[Tuple[int, int]], int]:
    """Packed integer terms of f, sorted descending, and the factor ``den``
    they carry: over QQ the terms are f * den with den the lcm of the
    denominators; over GF(p) they are reduced residues and den is 1."""
    p = f.ring.field.p
    den = 1
    if p:
        terms = [(pk.pack(e), int(c) % p) for e, c in f.terms.items()]
    else:
        for c in f.terms.values():
            den = lcm(den, Fraction(c).denominator)
        terms = [(pk.pack(e), int(c * den)) for e, c in f.terms.items()]
    terms = [(k, c) for k, c in terms if c]
    terms.sort(reverse=True)
    return terms, den


def terms_to_poly(
    terms: Sequence[Tuple[int, int]],
    ring: PolyRing,
    pk: Packing,
    scale: Fraction = Fraction(1),
) -> MultiPoly:
    f = ring.field
    unpack = pk.unpack
    if f.p:
        return MultiPoly(ring, {unpack(k): c % f.p for k, c in terms})
    # One Fraction per distinct value: a basis repeats a few small ones.
    num, den = scale.numerator, scale.denominator
    frac = {c: Fraction(c * num, den) for c in {c for _, c in terms}}
    return MultiPoly(ring, {unpack(k): frac[c] for k, c in terms})


class PolyIdeal:
    """Ideal with generators, a monomial order tag and a Groebner cache."""

    __slots__ = ("ring", "generators", "order", "pair_limit", "_kernel_gb", "_pk")

    def __init__(
        self,
        ring: PolyRing,
        generators: Iterable[MultiPoly],
        order: Order = "grevlex",
        pair_limit: int = DEFAULT_PAIR_LIMIT,
    ):
        gens = []
        for g in generators:
            if g.ring != ring:
                raise ValueError("generator outside the ideal's ring")
            if not g.is_zero():
                gens.append(g)
        self.ring = ring
        self.generators = tuple(gens)
        self.order = order
        self.pair_limit = pair_limit
        self._kernel_gb: Optional[List[List[Tuple[int, int]]]] = None
        self._pk: Optional[Packing] = None

    # -- kernel plumbing ----------------------------------------------------
    @property
    def packing(self) -> Packing:
        if self._pk is None:
            self._pk = get_packing(self.ring.nvars, self.order)
        return self._pk

    def kernel_basis(self) -> List[List[Tuple[int, int]]]:
        if self._kernel_gb is None:
            pk = self.packing
            gens = [_scaled_terms(g, pk)[0] for g in self.generators]
            self._kernel_gb = kernel.buchberger(
                gens, pk, self.ring.field.p, self.pair_limit
            )
        return self._kernel_gb

    # -- public surface -------------------------------------------------------
    def groebner_basis(self) -> List[MultiPoly]:
        """Reduced, monic Groebner basis."""
        pk = self.packing
        return [
            terms_to_poly(g, self.ring, pk, Fraction(1, g[0][1]))
            for g in self.kernel_basis()
        ]

    def normal_form(self, f: MultiPoly) -> MultiPoly:
        """Exact remainder of f modulo the reduced basis."""
        if f.ring != self.ring:
            raise ValueError("ring mismatch")
        pk = self.packing
        terms, den = _scaled_terms(f, pk)
        r, num, dnm = kernel.nf(terms, self.kernel_basis(), pk, self.ring.field.p)
        return terms_to_poly(r, self.ring, pk, Fraction(dnm, num * den))

    def contains(self, f: MultiPoly) -> bool:
        return self.normal_form(f).is_zero()

    def contains_ideal(self, other: "PolyIdeal") -> bool:
        return all(self.contains(g) for g in other.generators)

    def plus(self, extra: Iterable[MultiPoly]) -> "PolyIdeal":
        return PolyIdeal(
            self.ring,
            list(self.generators) + list(extra),
            self.order,
            self.pair_limit,
        )


def ideal_contains_one(I: PolyIdeal) -> bool:
    basis = I.kernel_basis()
    return len(basis) == 1 and basis[0][0][0] == I.packing.one


def dimension(I: PolyIdeal) -> int:
    """Krull dimension of the affine vanishing set; -1 for the unit ideal.

    The largest variable set containing no lead support of the reduced
    basis (valid for any global order), by depth-first branch and bound on
    bitmasks.  A node's k-th branch drops the k-th droppable variable of its
    smallest live support and keeps the first k-1, so no set recurs; a node
    is cut when its live variables, less one per pairwise-disjoint live
    support, cannot beat the best found.
    """
    if ideal_contains_one(I):
        return -1
    unpack = I.packing.unpack
    supports = sorted(
        {sum(1 << i for i, x in enumerate(unpack(g[0][0])) if x) for g in I.kernel_basis()},
        key=int.bit_count,
    )
    best = -1
    stack = [((1 << I.ring.nvars) - 1, 0)]  # (alive, kept) variable masks
    while stack:
        alive, kept = stack.pop()
        live = [s & ~kept for s in supports if s & alive == s]
        bound, hit = alive.bit_count(), 0
        for s in live:
            if not s & hit:
                hit |= s
                bound -= 1
        if bound <= best:
            continue
        if not live:
            best = bound
            continue
        pivot = min(live, key=int.bit_count)
        while pivot:  # pushed last to first, so the first branch runs first
            v = 1 << (pivot.bit_length() - 1)
            pivot ^= v
            stack.append((alive ^ v, kept | pivot))
    return best


def _fresh_name(ring: PolyRing, base: str) -> str:
    if base not in ring.index:
        return base
    i = 0
    while f"{base}{i}" in ring.index:
        i += 1
    return f"{base}{i}"


def saturate(I: PolyIdeal, f: MultiPoly) -> PolyIdeal:
    """Saturation (I : f^infinity) via the inverse-variable elimination trick.

    The elimination basis and the result keep I's pair cap."""
    if f.ring != I.ring:
        raise ValueError("ring mismatch")
    ring = I.ring
    aux = _fresh_name(ring, "ysat")
    ext = PolyRing(ring.field, (aux,) + ring.names)
    gens = [g.map_ring(ext) for g in I.generators]
    gens.append(ext.var(aux) * f.map_ring(ext) - ext.one)
    J = PolyIdeal(ext, gens, ("block", 1), I.pair_limit)
    # In block order an aux-free lead means an aux-free element, and these
    # elements form the reduced grevlex basis of the contraction.
    low = J.packing.trailing_key
    basis = [[(low(k), c) for k, c in g] for g in J.kernel_basis() if low(g[0][0]) >= 0]
    pk = get_packing(ring.nvars, "grevlex")
    gens = [terms_to_poly(g, ring, pk, Fraction(1, g[0][1])) for g in basis]
    out = PolyIdeal(ring, gens, "grevlex", I.pair_limit)
    out._kernel_gb = basis
    return out


def minors(M: Sequence[Sequence[MultiPoly]], k: int) -> List[MultiPoly]:
    """All k x k minors in lexicographic (row-subset, col-subset) order."""
    rows = len(M)
    cols = len(M[0]) if rows else 0
    if k < 0 or (rows and k > min(rows, cols)) or (not rows and k > 0):
        raise ValueError("minor size out of range")
    ring = M[0][0].ring if rows and cols else None
    if k == 0:
        if ring is None:
            raise ValueError("cannot build the empty minor without a ring")
        return [ring.one]
    from itertools import combinations

    memo: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], MultiPoly] = {}

    def det(rs: Tuple[int, ...], cs: Tuple[int, ...]) -> MultiPoly:
        if len(rs) == 1:
            return M[rs[0]][cs[0]]
        key = (rs, cs)
        v = memo.get(key)
        if v is not None:
            return v
        acc = ring.zero
        r0 = rs[0]
        rest = rs[1:]
        for idx, c in enumerate(cs):
            entry = M[r0][c]
            if entry.is_zero():
                continue
            sub = det(rest, cs[:idx] + cs[idx + 1 :])
            term = entry * sub
            acc = acc + term if idx % 2 == 0 else acc - term
        memo[key] = acc
        return acc

    out = []
    for rs in combinations(range(rows), k):
        for cs in combinations(range(cols), k):
            out.append(det(rs, cs))
    del det  # det refers to itself through its closure; this frees the memo at once
    return out


def jacobian(gens: Sequence[MultiPoly], names: Sequence[str]) -> List[List[MultiPoly]]:
    """Formal Jacobian matrix: entry (i, j) = d gens[i] / d names[j]."""
    if not gens:
        return []
    ring = gens[0].ring
    for n in names:
        if n not in ring.index:
            raise ValueError(f"unknown variable {n!r}")
    return [[g.diff(n) for n in names] for g in gens]
