"""Character-lattice layer: central embedding, the product character, the
relation subtorus, and the torus-kernel primitivity certificates.

The ambient torus has one coordinate per index-set element.  The center
embeds with exponent row (1, -|s|_1, ..., -|s|_N); the distinguished
character chi is the sum of e_{pi_i} - e_{delta_i}.  "Kernel of chi is a
torus" is detected as: chi is a primitive vector of the character
lattice, certified through Smith normal form witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import List, Mapping, Sequence, Tuple

from .chains import ParabolicShape
from .chainnf import cyclic_products_ok
from .gfq import mat_inv, mat_mul, mat_scale
from .indexset import IndexElem, enumerate_index_set, pi_delta
from .intlinalg import (
    IntMatrix,
    cokernel_invariants,
    lattice_membership,
    row_stack,
    saturated_kernel,
)
from .poly import Field


@dataclass(frozen=True)
class CharacterData:
    """Everything the torus-side checks need, for one (n, r, N)."""

    n: int
    r: int
    N: int
    S: Tuple[IndexElem, ...]
    pi: Tuple[IndexElem, ...]
    delta: Tuple[IndexElem, ...]
    center_embedding: IntMatrix
    subtorus_relations: IntMatrix
    chi: Tuple[int, ...]


def center_embedding_matrix(S: Sequence[IndexElem], N: int) -> IntMatrix:
    """Row for s: exponent 1 on the 0-th center coordinate, -|s|_beta on
    the others (the 0-th slot mass does not enter; kept verbatim)."""
    rows = []
    for s in S:
        rows.append([1] + [-s.mass(b) for b in range(1, N + 1)])
    return IntMatrix.from_rows(rows)


def character_data(n: int, r: int, N: int) -> CharacterData:
    S = tuple(enumerate_index_set(n, r, N))
    pos = {e: i for i, e in enumerate(S)}
    pis = []
    deltas = []
    for i in range(N + 1):
        p, d = pi_delta(n, N, i)
        if p not in pos or d not in pos:
            raise AssertionError("pi/delta fell outside the index set")
        pis.append(p)
        deltas.append(d)
    relations = []
    for p, d in zip(pis, deltas):
        row = [0] * len(S)
        row[pos[p]] += 1
        row[pos[d]] -= 1
        relations.append(row)
    # chi is the sum of the relation characters e_pi - e_delta
    chi = [sum(col) for col in zip(*relations)]
    data = CharacterData(
        n=n,
        r=r,
        N=N,
        S=S,
        pi=tuple(pis),
        delta=tuple(deltas),
        center_embedding=center_embedding_matrix(S, N),
        subtorus_relations=IntMatrix.from_rows(relations),
        chi=tuple(chi),
    )
    # chi annihilates the center image: chi^T * C == 0.
    if chi_pairing(data) != [0] * (N + 1):
        raise AssertionError("chi does not annihilate the center embedding")
    return data


def chi_pairing(data: CharacterData) -> List[int]:
    C = data.center_embedding
    return [
        sum(data.chi[s] * C[s, b] for s in range(len(data.S)))
        for b in range(C.cols)
    ]


def chi_vector(data: CharacterData) -> List[int]:
    return list(data.chi)


@dataclass(frozen=True)
class TorusCertificate:
    """Primitivity certificate: verdict plus replayable SNF data."""

    verdict: bool
    lattice_rank: int
    coordinates: Tuple[int, ...]
    invariants: Tuple[int, ...]

    def gcd_of_coordinates(self) -> int:
        g = 0
        for c in self.coordinates:
            g = gcd(g, c)
        return g


def _primitivity_in_lattice(basis: IntMatrix, chi: Sequence[int]) -> TorusCertificate:
    coords = lattice_membership(basis, chi)
    if coords is None:
        raise AssertionError("chi is not in the expected character lattice")
    col = IntMatrix(len(coords), 1, coords)
    inv = cokernel_invariants(col)
    nonzero = tuple(d for d in inv if d != 0)
    verdict = nonzero == (1,)
    return TorusCertificate(
        verdict=verdict,
        lattice_rank=basis.rows,
        coordinates=tuple(coords),
        invariants=tuple(inv),
    )


def kernel_is_torus_check(data: CharacterData) -> TorusCertificate:
    """Is the kernel of chi on the center-quotient torus a torus?

    The character lattice of G_m^S / G_m^{N+1} is the saturated kernel of
    the transposed center embedding; the kernel of chi is a torus exactly
    when chi is primitive there (torsion-free cokernel of Z chi).
    """
    if all(c == 0 for c in data.chi):
        raise ValueError("chi vanishes; the check needs a nonzero character")
    basis = saturated_kernel(data.center_embedding.transpose())
    return _primitivity_in_lattice(basis, data.chi)


def quotient_by_subtorus_check(data: CharacterData) -> TorusCertificate:
    """Same primitivity check inside the character lattice of the quotient
    by the relation subtorus.

    chi is trivial on the subtorus by construction (it is the sum of the
    defining relation characters); this is re-verified, then the lattice
    is cut down to the characters vanishing on the subtorus (the
    saturation of the relation span) and the SNF check repeats there.
    """
    R = data.subtorus_relations
    rel_coords = lattice_membership(R, data.chi)
    if rel_coords is None:
        raise AssertionError("chi is not a combination of the subtorus relations")
    # Characters vanishing on the subtorus: orthogonal complement of the
    # kernel of R, i.e. the saturation of the row span of R.
    ker_R = saturated_kernel(R)
    stacked = row_stack(data.center_embedding.transpose(), ker_R)
    return _primitivity_in_lattice(saturated_kernel(stacked), data.chi)


def open_cell_point(
    data: CharacterData,
    g: Sequence[Sequence[Sequence[object]]],
    lam: Mapping[IndexElem, object],
    field: Field,
) -> Tuple[List[List[List[object]]], object]:
    """Point of the matrix scheme from open-cell data.

    Pi_i = (lam(pi_i)/lam(delta_i)) * g_i * g_{i+1}^{-1} (cyclically) and
    t is the product of the ratios.  Each g_i must be invertible and
    block upper-triangular of shape (r, n-r); the output is checked
    against all cyclic product equations before being returned.
    """
    n, r, N = data.n, data.r, data.N
    if len(g) != N + 1:
        raise ValueError(f"need {N + 1} group elements")
    shape = ParabolicShape(n, r)
    ginv = []
    for idx, gi in enumerate(g):
        if len(gi) != n or any(len(row) != n for row in gi):
            raise ValueError("group element of wrong size")
        if not shape.in_shape(gi):
            raise ValueError(f"g[{idx}] is not in the parabolic shape")
        inv = mat_inv(gi, field)
        if inv is None:
            raise ValueError(f"g[{idx}] is singular")
        ginv.append(inv)
    ratios = []
    for i in range(N + 1):
        lp = field.coerce(lam[data.pi[i]])
        ld = field.coerce(lam[data.delta[i]])
        if not lp or not ld:
            raise ValueError("lam must take nonzero values")
        ratios.append(field.div(lp, ld))
    Pi = []
    for i in range(N + 1):
        m = mat_mul(g[i], ginv[(i + 1) % (N + 1)], field)
        Pi.append(mat_scale(m, ratios[i], field))
    t = field.one
    for rt in ratios:
        t = field.mul(t, rt)
    # verify the cyclic equations and the parabolic shape
    if not cyclic_products_ok(Pi, t, field):
        raise AssertionError("cyclic product equation failed")
    if not all(shape.in_shape(m) for m in Pi):
        raise AssertionError("output left the parabolic shape")
    return Pi, t
