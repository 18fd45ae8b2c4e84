"""Blowup charts, t-torsion killing, and the symplectic fiber census.

The census follows the diagonalized setting: the last matrix and the
long product have diagonal blocks diag(a_0, a_0 a_1, ...) and
diag(a_1...a_g, ..., a_g) with a_0 ... a_g = t, and the pairing unknowns
satisfy three families of torsion-killed relations.  Eliminating in the
stated order leaves g(3g-1)/2 free coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Dict, List, Sequence, Tuple

from . import polymat
from .chart import ChartIdeal, with_inverses
from .ideals import PolyIdeal, ideal_contains_one, minors, saturate
from .poly import MultiPoly, PolyRing, QQ
from .schemes import _j, _j3


@dataclass(frozen=True)
class BlowupChart:
    """One standard chart of a blowup, already saturated."""

    base: ChartIdeal
    center: Tuple[MultiPoly, ...]
    chart_index: int
    ratio_vars: Tuple[str, ...]
    chart: ChartIdeal
    empty: bool

    def pulled_back_center_principal(self) -> bool:
        """Certificate that the pulled-back center is generated by the
        chart element: every center generator reduces into (f_k).

        On a chart that ``blowup_chart`` built this holds by construction:
        each f_j - u_j f_k tested is a generator of the raw chart ideal,
        which its saturation contains.  The test guards charts assembled
        by hand; a tower's real content is its chart counts."""
        if self.empty:
            return True
        ring = self.chart.ring
        ideal = self.chart.ideal
        fk = self.center[self.chart_index].map_ring(ring)
        # f_j = u_j f_k modulo the chart ideal puts f_j in (f_k)
        for j, f in enumerate(self.center):
            if j == self.chart_index:
                continue
            u = ring.var(self.ratio_vars[j])
            if not ideal.contains(f.map_ring(ring) - u * fk):
                return False
        return True


def blowup_chart(
    base: ChartIdeal,
    center: Sequence[MultiPoly],
    k: int,
) -> BlowupChart:
    """k-th standard chart of the blowup of V(base) along ``center``.

    Adds ratio variables u_j with relations f_j - u_j f_k (j != k), then
    saturates by f_k under the pair cap of ``base.ideal``.  A unit result
    flags an empty chart (reported, not an error).
    """
    center = list(center)
    if not 0 <= k < len(center):
        raise ValueError("chart index out of range")
    ring = base.ring
    for f in center:
        if f.ring != ring:
            raise ValueError("center generators must live in the base ring")
    fresh = (name for name in map("u{}".format, count()) if name not in ring.index)
    ratio_names = ["" if j == k else next(fresh) for j in range(len(center))]
    ext = ring.extend([nm for nm in ratio_names if nm])
    gens = [g.map_ring(ext) for g in base.generators]
    fk = center[k].map_ring(ext)
    for j, f in enumerate(center):
        if j == k:
            continue
        gens.append(f.map_ring(ext) - ext.var(ratio_names[j]) * fk)
    raw = PolyIdeal(ext, gens, pair_limit=base.ideal.pair_limit)
    saturated = saturate(raw, fk)
    empty = ideal_contains_one(saturated)
    return BlowupChart(
        base=base,
        center=tuple(center),
        chart_index=k,
        ratio_vars=tuple(ratio_names),
        chart=base.derive(saturated, f"blowup(chart={k})", blowup_chart=k),
        empty=empty,
    )


def kill_t_torsion(chart: ChartIdeal) -> ChartIdeal:
    """Saturation by t: the quotient by all sections killed by a t-power."""
    ring = chart.ring
    if "t" not in ring.index:
        raise ValueError("chart has no t in its dictionary")
    sat = saturate(chart.ideal, ring.var("t"))
    return chart.derive(sat, "kill_t_torsion", t_torsion_killed=True)


# -- the diagonal chart ----------------------------------------------------------

@dataclass(frozen=True)
class DiagonalChartData:
    """Diagonalized end matrices over Z[a_0..a_g, t]/(a_0...a_g - t)."""

    g: int
    ring: PolyRing
    A: Tuple[MultiPoly, ...]
    Aprime: Tuple[MultiPoly, ...]
    relation: MultiPoly

    def pi_matrices(self):
        g = self.g
        ring = self.ring
        PiN = polymat.zeros(ring, 2 * g, 2 * g)
        PiNp = polymat.zeros(ring, 2 * g, 2 * g)
        for i in range(g):
            PiN[i][i] = self.A[i]
            PiN[i][g + i] = ring.one
            PiN[g + i][g + i] = -self.Aprime[i]
            PiNp[i][i] = self.Aprime[i]
            PiNp[i][g + i] = ring.one
            PiNp[g + i][g + i] = -self.A[i]
        return PiN, PiNp

    def product_identities_hold(self) -> bool:
        """Pi_N Pi'_N = Pi'_N Pi_N = t Id modulo a_0...a_g = t, exactly."""
        ring = self.ring
        g2 = 2 * self.g
        PiN, PiNp = self.pi_matrices()
        tid = polymat.identity(ring, g2, ring.var("t"))
        rel = PolyIdeal(ring, [self.relation])
        for prod in (polymat.matmul(PiN, PiNp), polymat.matmul(PiNp, PiN)):
            for e in polymat.entries(polymat.matsub(prod, tid)):
                if not rel.normal_form(e).is_zero():
                    return False
        return True

    def minor_ideal_monomial_generator(self, size: int) -> MultiPoly:
        """The minimal minor of diag(A): a_0^size a_1^{size-1} ... a_{size-1}."""
        ring = self.ring
        out = ring.one
        for k in range(size):
            out = out * self.A[k]
        return out

    def minors_are_principal(self, size: int) -> bool:
        """Every size-minor of diag(A) is a monomial multiple of the minimal
        one (the already-blown-up state of the minors ideals)."""
        ring = self.ring
        g = self.g
        Amat = polymat.zeros(ring, g, g)
        for i in range(g):
            Amat[i][i] = self.A[i]
        gen = self.minor_ideal_monomial_generator(size)
        gen_exp = next(iter(gen.terms))
        for m in minors(Amat, size):
            if m.is_zero():
                continue
            for e in m.terms:
                if any(x < y for x, y in zip(e, gen_exp)):
                    return False
        return True


def diagonal_chart_ideals(g: int) -> DiagonalChartData:
    if g < 1:
        raise ValueError("need g >= 1")
    ring = PolyRing(QQ, [_a(i) for i in range(g + 1)] + ["t"])
    return DiagonalChartData(
        g=g,
        ring=ring,
        A=tuple(_a_monomial(ring, 0, i + 1) for i in range(g)),
        Aprime=tuple(_a_monomial(ring, i + 1, g + 1) for i in range(g)),
        relation=_a_monomial(ring, 0, g + 1) - ring.var("t"),
    )


# -- the fiber census --------------------------------------------------------------

@dataclass(frozen=True)
class RelationLogEntry:
    family: int
    i: int
    j: int
    action: str  # "eliminated" or "redundant"
    variable: str = ""


@dataclass(frozen=True)
class FiberCensus:
    g: int
    free_count: int
    free_variables: Tuple[str, ...]
    log: Tuple[RelationLogEntry, ...]

    def consumed(self) -> int:
        return len(self.log)

    def family_counts(self) -> Dict[int, int]:
        out: Dict[int, int] = {1: 0, 2: 0, 3: 0}
        for e in self.log:
            out[e.family] += 1
        return out


def _a(k: int) -> str:
    """Name of the diagonal coordinate a_k."""
    return f"a{k}"


def _a_monomial(ring: PolyRing, lo: int, hi: int) -> MultiPoly:
    """a_lo * a_{lo+1} * ... * a_{hi-1} (empty product = 1)."""
    out = ring.one
    for k in range(lo, hi):
        out = out * ring.var(_a(k))
    return out


def _pairing_unknowns(g: int) -> List[str]:
    """J1[0], J1[N] (all entries), then J3[0], J3[N] (strict upper)."""
    span = range(1, g + 1)
    return [_j(tag, i, j) for tag in ("J0_1", "JN_1") for i in span for j in span] + [
        _j(tag, i, j) for tag in ("J0_3", "JN_3") for i in span for j in span if i < j
    ]


Relation = Tuple[int, int, int, MultiPoly]  # (family, i, j, polynomial)


def _pairing_relations(ring: PolyRing, g: int) -> List[Relation]:
    """The three torsion-killed relation families as (family, i, j, rel).

    Family 1 (i <= j):  J1[0]^i_j + a_i...a_{j-1} J1[N]^i_j
    Family 2 (j <= i):  J1[N]^i_j + a_j...a_{i-1} J1[0]^i_j
    Family 3 (i <= j):  J1[N]^i_j + J1[0]^j_i - a_0...a_{i-1} J3[N]^i_j
                          + a_j...a_g J3[0]^i_j
    """
    def var(tag: str, i: int, j: int) -> MultiPoly:
        return ring.var(_j(tag, i, j))

    rels = []
    for i in range(1, g + 1):
        for j in range(i, g + 1):
            rel = var("J0_1", i, j) + _a_monomial(ring, i, j) * var("JN_1", i, j)
            rels.append((1, i, j, rel))
    for i in range(1, g + 1):
        for j in range(1, i + 1):
            rel = var("JN_1", i, j) + _a_monomial(ring, j, i) * var("J0_1", i, j)
            rels.append((2, i, j, rel))
    for i in range(1, g + 1):
        for j in range(i, g + 1):
            rel = (
                var("JN_1", i, j)
                + var("J0_1", j, i)
                - _a_monomial(ring, 0, i) * _j3(ring, "JN_3", i, j)
                + _a_monomial(ring, j, g + 1) * _j3(ring, "J0_3", i, j)
            )
            rels.append((3, i, j, rel))
    return rels


def _reduce_expr(f: MultiPoly, subs: Dict[str, MultiPoly]) -> MultiPoly:
    """Substitute eliminated variables until none is left in f."""
    mapping = {name: subs[name] for name in f.support_vars() if name in subs}
    while mapping:
        f = f.subs(mapping)
        mapping = {name: subs[name] for name in f.support_vars() if name in subs}
    return f


def _eliminate(
    ring: PolyRing, rels: Sequence[Relation]
) -> Tuple[Dict[str, MultiPoly], List[RelationLogEntry]]:
    """Ordered substitution through the relation families.

    J1[0] (i <= j) via family 1, J1[N] (i > j) via family 2, J1[0]
    (i > j) via family 3; the diagonal relations of families 2 and 3
    must reduce to 0 and are logged as redundant.  Returns the
    substitutions (eliminated variable -> expression) and the log.
    """
    subs: Dict[str, MultiPoly] = {}
    log: List[RelationLogEntry] = []
    for family, i, j, rel in rels:
        if family == 1 or i != j:
            # solve for the eliminated variable, whose coefficient is 1
            var = {1: _j("J0_1", i, j), 2: _j("JN_1", i, j), 3: _j("J0_1", j, i)}[family]
            solved = ring.var(var) - rel
            subs[var] = _reduce_expr(solved, subs) if family == 3 else solved
            log.append(RelationLogEntry(family, i, j, "eliminated", var))
        else:
            if not _reduce_expr(rel, subs).is_zero():
                raise AssertionError(f"family {family} diagonal ({i},{j}) not redundant")
            log.append(RelationLogEntry(family, i, j, "redundant"))
    return subs, log


def sigma_fiber_freecount(g: int) -> FiberCensus:
    """Free-coordinate census of the pairing unknowns over the diagonal chart.

    Builds the three torsion-killed relation families in the unknowns
    J1[0], J1[N], J3[0], J3[N] and eliminates by ordered substitution:
    J1[0] (i <= j) via family 1, J1[N] (i > j) via family 2, J1[0]
    (i > j) via family 3.  Remaining free: J1[N] (i <= j), J3[0] (i < j),
    J3[N] (i < j); relations not used for elimination must reduce to 0
    and are logged as redundant.
    """
    if g < 1:
        raise ValueError("need g >= 1")
    names = [_a(i) for i in range(g + 1)]
    unknowns = _pairing_unknowns(g)
    ring = PolyRing(QQ, names + unknowns)
    rels = _pairing_relations(ring, g)
    subs, log = _eliminate(ring, rels)
    # flatten substitutions and re-verify every relation reduces to zero
    for family, i, j, rel in rels:
        if not _reduce_expr(rel, subs).is_zero():
            raise AssertionError(f"family {family} ({i},{j}) failed to reduce")
    free = [name for name in unknowns if name not in subs]
    return FiberCensus(
        g=g,
        free_count=len(free),
        free_variables=tuple(free),
        log=tuple(log),
    )


def census_groebner_crosscheck(g: int) -> bool:
    """Ideal-level check that ordered substitution matched the relations.

    The substitution graph {var - expr} has pairwise coprime linear
    leads, hence is a Groebner basis; the relation ideal (with the a_i
    inverted, as on the Laurent chart) must contain every graph
    polynomial and vice versa.
    """
    names = [_a(i) for i in range(g + 1)]
    jnames = _pairing_unknowns(g)
    ring = PolyRing(QQ, jnames + names)
    rels = [rel for _, _, _, rel in _pairing_relations(ring, g)]
    # substitution graph with every expression fully substituted, mapped
    # into the relation ring
    subs_ring = PolyRing(QQ, names + jnames)
    subs, _ = _eliminate(subs_ring, _pairing_relations(subs_ring, g))
    graph = [
        ring.var(var) - _reduce_expr(expr, subs).map_ring(ring)
        for var, expr in subs.items()
    ]
    laurent = [(f"ainv{i}", ring.var(a)) for i, a in enumerate(names)]
    relation_ideal, _ = with_inverses(PolyIdeal(ring, rels), laurent)
    graph_ideal, _ = with_inverses(PolyIdeal(ring, graph), laurent)
    ext = relation_ideal.ring
    for f in graph:
        if not relation_ideal.contains(f.map_ring(ext)):
            return False
    for f in rels:
        if not graph_ideal.contains(f.map_ring(ext)):
            return False
    return True
