"""Constructive normal form for chain points over a field.

Given matrices Pi_0..Pi_N over a field whose cyclic products all equal
tau * Id and whose ranks are at least n - d_i, builds invertible psi_i
with  psi_{i-1}^{-1} Pi_i psi_i = T^{d_i}(tau)  exactly.

For tau a unit this is back-substitution from psi_N = Id.  For tau = 0
it assembles psi_i from complements of the images: pick, for each slot
m, unit vectors G_m spanning a complement of im(Pi_m); then the block
matrix  [P_{i+N} G_i | P_{i+N-1} G_{i+N} | ... | G_{i+1}]  (with
P_j = Pi_{i+1}...Pi_j) is invertible and conjugates as required.  The
identity  Pi_i psi_i = psi_{i-1} T^{d_i}  holds for any complement
choice; only invertibility needs the complement property.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from .chains import ChainSpec, ParabolicShape, shift_matrix_value
from .errors import NormalFormFailure
from .gfq import (
    column_space_complement,
    mat_identity,
    mat_inv,
    mat_mul,
    mat_rank,
    mat_scale,
)
from .poly import GF, Field


def random_frame(rng: random.Random, n: int, q: int):
    """Random invertible n x n matrix over GF(q), redrawn until of rank n."""
    field = GF(q)
    while True:
        m = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
        if mat_rank(m, field) == n:
            return m


def cyclic_products_ok(point, tau, field: Field) -> bool:
    """Every cyclic product Pi_j Pi_{j+1} ... Pi_{j-1} equals tau * Id."""
    n = len(point[0])
    count = len(point)
    tau = field.coerce(tau)
    target = [[tau if i == j else field.zero for j in range(n)] for i in range(n)]
    for j in range(count):
        prod = point[j]
        for k in range(1, count):
            prod = mat_mul(prod, point[(j + k) % count], field)
        if prod != target:
            return False
    return True


def point_in_mu_chart(spec: ChainSpec, point, tau, field: Field) -> bool:
    """Membership in the chart locus: shape, products, and rank bounds."""
    if len(point) != spec.N + 1:
        return False
    shape = ParabolicShape(spec.n, spec.r)
    if not all(shape.in_shape(m) for m in point):
        return False
    if not cyclic_products_ok(point, tau, field):
        return False
    for i, m in enumerate(point):
        if mat_rank(m, field) < spec.n - spec.step(i):
            return False
    return True


def chain_normal_form(
    spec: ChainSpec, point: Sequence[Sequence[Sequence[object]]], tau, field: Field
) -> List[List[List[object]]]:
    """psi_0..psi_N with psi_{i-1}^{-1} Pi_i psi_i = T^{d_i}(tau), exactly.

    Raises NormalFormFailure when the point violates the product
    equations or the chart rank bounds (the d'_i <= d_i dichotomy).
    """
    n, N = spec.n, spec.N
    tau = field.coerce(tau)
    point = [list(map(list, m)) for m in point]
    if len(point) != N + 1 or any(
        len(m) != n or any(len(row) != n for row in m) for m in point
    ):
        raise ValueError("point must consist of N+1 square matrices")
    if not cyclic_products_ok(point, tau, field):
        raise NormalFormFailure("cyclic products do not equal tau * Id")

    if tau:
        # Unit case: any invertible seed works; chain back from psi_N = Id.
        psi = [None] * (N + 1)
        psi[N] = mat_identity(n, field)
        inv_tau = field.div(field.one, tau)
        for i in range(N, 0, -1):
            d = spec.step(i)
            # T^{-d}(tau) = tau^{-1} T^{n-d}(tau)
            tinv = mat_scale(shift_matrix_value(n, n - d, tau, field), inv_tau, field)
            psi[i - 1] = mat_mul(mat_mul(point[i], psi[i], field), tinv, field)
    else:
        complements = []
        for m_idx in range(N + 1):
            d = spec.step(m_idx)
            rk = mat_rank(point[m_idx], field)
            if rk < n - d:
                raise NormalFormFailure(
                    f"rank defect at slot {m_idx}: rank {rk} < {n - d}"
                )
            if rk > n - d:
                raise NormalFormFailure(
                    f"slot {m_idx} has rank {rk} > {n - d}; impossible at tau = 0"
                )
            complements.append(column_space_complement(point[m_idx], field))
        psi = []
        for i in range(N + 1):
            # blocks P_j G_{j+1} for j = i..i+N: P_j = Pi_{i+1}...Pi_j (P_i = Id)
            # and G_m holds the unit vectors complementing im(Pi_m) as columns
            prefix, blocks = None, []
            for j in range(i, i + N + 1):
                if j > i:
                    m = point[j % (N + 1)]
                    prefix = m if prefix is None else mat_mul(prefix, m, field)
                g = [[v[row] for v in complements[(j + 1) % (N + 1)]] for row in range(n)]
                blocks.append(g if prefix is None else mat_mul(prefix, g, field))
            psi.append([sum(rows, []) for rows in zip(*reversed(blocks))])

    for i in range(N + 1):
        if mat_rank(psi[i], field) != n:
            raise NormalFormFailure(f"assembled frame {i} is singular")
    for i in range(N + 1):
        lhs = mat_mul(point[i], psi[i], field)
        rhs = mat_mul(
            psi[(i - 1) % (N + 1)],
            shift_matrix_value(n, spec.step(i), tau, field),
            field,
        )
        if lhs != rhs:
            raise NormalFormFailure(f"conjugation identity failed at slot {i}")
    return psi


def conjugated_chain_point(
    spec: ChainSpec, frames: Sequence, tau, field: Field
) -> List[List[List[object]]]:
    """Point built as Pi_i = frame_{i-1} T^{d_i}(tau) frame_i^{-1}.

    Used by the round-trip checks: such points always satisfy the cyclic
    equations and the rank bounds.
    """
    n, N = spec.n, spec.N
    inv = []
    for f in frames:
        fi = mat_inv(f, field)
        if fi is None:
            raise ValueError("frame is singular")
        inv.append(fi)
    out = []
    for i in range(N + 1):
        Ti = shift_matrix_value(n, spec.step(i), tau, field)
        out.append(
            mat_mul(mat_mul(frames[(i - 1) % (N + 1)], Ti, field), inv[i], field)
        )
    return out
