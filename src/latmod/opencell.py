"""Symbolic open-cell substitution into the cyclic-product ideal.

The open cell sends group data (g_0..g_N, lambda) to
Pi_i = (lam_pi_i / lam_delta_i) g_i g_{i+1}^{-1} and t = prod of ratios.
Here the substitution is carried out with fully symbolic g entries and
lambda values, using adjugates and auxiliary inverses; every generator
of the cyclic-product ideal must reduce to zero modulo the inverse
relations, and the ratios are invariant under rescaling lambda_pi and
lambda_delta by a common unit.
"""

from __future__ import annotations

from typing import Dict, List

from . import polymat
from .chains import ParabolicShape
from .ideals import PolyIdeal, minors
from .poly import MultiPoly, PolyRing, QQ
from .schemes import mu_ideal


def _adjugate(M):
    """adj(M)[i][j] = (-1)^(i+j) times the minor of M without row j and
    column i.  ``minors`` lists the (n-1)-subsets in lex order, so the
    subset without k comes (n-1-k)-th; read backwards, the minor without
    row j and column i sits at j*n + i."""
    n = len(M)
    rev = minors(M, n - 1)[::-1]
    return [
        [rev[j * n + i] if (i + j) % 2 == 0 else -rev[j * n + i] for j in range(n)]
        for i in range(n)
    ]


class OpenCellSymbols:
    """Symbolic open-cell data for (n, r, N) plus the relation ideal."""

    def __init__(self, n: int, r: int, N: int):
        self.n, self.r, self.N = n, r, N
        shape = ParabolicShape(n, r)
        slots = range(N + 1)
        layout = [[f"g{i}_{a + 1}_{b + 1}" for a, b in shape.positions()] for i in slots]
        lam = [(f"lp{i}", f"ld{i}") for i in slots]
        units = [(f"ua{i}", f"uc{i}", f"uld{i}") for i in slots]
        names = [v for block in (layout, lam, units) for row in block for v in row]
        # s and us: a spare unit for the rescaling check
        self.ring = ring = PolyRing(QQ, names + ["s", "us"])
        self.shape = shape
        self.g = [shape.matrix(map(ring.var, gnames), ring.zero) for gnames in layout]
        self.lp, ld = ([ring.var(pair[k]) for pair in lam] for k in range(2))
        ua, uc, self.uld = ([ring.var(u[k]) for u in units] for k in range(3))
        self.s, self.us = ring.var("s"), ring.var("us")
        rels: List[MultiPoly] = []
        self.ginv = []
        for i in slots:
            A, _, C = shape.blocks(self.g[i])
            rels.append(ua[i] * minors(A, r)[0] - 1)
            rels.append(uc[i] * minors(C, n - r)[0] - 1)
            rels.append(self.uld[i] * ld[i] - 1)
            # g is block upper-triangular, so det g = det A * det C and
            # ua * uc inverts it: g^{-1} = adj(g) * ua * uc
            u = ua[i] * uc[i]
            self.ginv.append(polymat.map_entries(_adjugate(self.g[i]), lambda x: x * u))
        rels.append(self.us * self.s - 1)
        self.relations = PolyIdeal(ring, rels)

    def pi_matrices(self, scale_slot: int | None = None):
        """The substituted matrices; optionally rescale one slot's lambda
        pair by the spare unit s."""
        out = []
        for i in range(self.N + 1):
            ratio_num, ratio_inv = self.lp[i], self.uld[i]
            if scale_slot == i:
                # (s * lp) / (s * ld): inverse of s*ld is us * uld
                ratio_num = self.s * ratio_num
                ratio_inv = self.us * ratio_inv
            m = polymat.matmul(self.g[i], self.ginv[(i + 1) % (self.N + 1)])
            out.append(
                polymat.map_entries(m, lambda x: x * ratio_num * ratio_inv)
            )
        return out

    def t_value(self, scale_slot: int | None = None) -> MultiPoly:
        t = self.ring.one
        for i in range(self.N + 1):
            t = t * self.lp[i] * self.uld[i]
            if scale_slot == i:
                t = t * self.s * self.us
        return t


def open_cell_factors_through_mu(n: int, r: int, N: int) -> bool:
    """Every cyclic-product generator vanishes identically under the
    symbolic open-cell substitution (modulo the inverse relations)."""
    sym = OpenCellSymbols(n, r, N)
    mu = mu_ideal(n, r, N)
    Pi = sym.pi_matrices()
    t = sym.t_value()
    mapping: Dict[str, MultiPoly] = {"t": t}
    for i in range(N + 1):
        mapping.update(
            zip(sym.shape.var_names(i), (Pi[i][a][b] for a, b in sym.shape.positions()))
        )
    for gen in mu.generators:
        image = gen.subs(mapping)
        if not sym.relations.normal_form(image).is_zero():
            return False
    return True


def open_cell_ratio_invariance(n: int, r: int, N: int) -> bool:
    """Rescaling lambda_pi_i and lambda_delta_i by a common unit leaves
    both the matrices and t unchanged, identically."""
    sym = OpenCellSymbols(n, r, N)
    base_pi = sym.pi_matrices()
    base_t = sym.t_value()
    for slot in range(N + 1):
        scaled_pi = sym.pi_matrices(scale_slot=slot)
        scaled_t = sym.t_value(scale_slot=slot)
        for m0, m1 in zip(base_pi, scaled_pi):
            for e0, e1 in zip(polymat.entries(m0), polymat.entries(m1)):
                if not sym.relations.normal_form(e0 - e1).is_zero():
                    return False
        if not sym.relations.normal_form(base_t - scaled_t).is_zero():
            return False
    return True
