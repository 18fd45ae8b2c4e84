"""Certificates and oracles: Jacobian smoothness, finite-field point
enumeration and counting, brute-force dimension fitting, and the independent
combinatorial oracles backing the derived expected values."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, cycle, product
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

from .chains import ChainSpec, shift_matrix_value
from .chart import ChartIdeal, with_inverses
from .errors import ResourceLimitError
from .gfq import SmallField, mat_mul, mat_rank
from .ideals import dimension, ideal_contains_one, jacobian, minors
from .poly import GF, MultiPoly
from .schemes import frame_names, local_model_ideal


# -- Jacobian smoothness ------------------------------------------------------------

@dataclass(frozen=True)
class SmoothnessCertificate:
    provenance: str
    codimension: int
    verdict: bool
    witness_minors: Tuple[Tuple[Tuple[int, ...], Tuple[int, ...]], ...]
    exhaustive: bool


# Most (rows, cols) candidates smooth_check draws before it gives up.  The
# default config draws at most 99; symplectic (4,2,1,(2,2)) succeeds after 12,698.
MAX_MINOR_CANDIDATES = 16_384


def _minor_candidates(nrows: int, ncols: int, c: int, hints):
    """Every (rows, cols) pair of c-subsets once, lazily: the hints first,
    then a stride through the subset lattice (row subset i with column
    subset i mod C, so that early candidates touch different rows and
    columns), then every other pair in lexicographic order."""
    hinted = dict.fromkeys((tuple(rows), tuple(cols)) for rows, cols in hints or ())
    yield from hinted
    stride = zip(combinations(range(nrows), c), cycle(combinations(range(ncols), c)))
    for key in stride:
        if key not in hinted:
            yield key
    C = math.comb(ncols, c)
    for i, rows in enumerate(combinations(range(nrows), c)):
        for j, cols in enumerate(combinations(range(ncols), c)):
            if j != i % C and (rows, cols) not in hinted:
                yield rows, cols


def smooth_check(
    chart: ChartIdeal,
    c: int,
    hints: Optional[Sequence[Tuple[Sequence[int], Sequence[int]]]] = None,
) -> SmoothnessCertificate:
    """Jacobian criterion: 1 in I + (c x c minors of Jac I).

    Minors are added lazily (hints first) until the combined ideal hits
    1; a true verdict records the minors used.  A false verdict is only
    issued after exhausting every minor, so it is exact.  Drawing more
    than ``MAX_MINOR_CANDIDATES`` candidates raises ResourceLimitError.
    """
    ideal = chart.ideal
    if ideal_contains_one(ideal):
        raise ValueError("chart is empty; smoothness is vacuous")
    gens = list(ideal.generators)
    names = list(ideal.ring.names)
    jac = jacobian(gens, names)
    nrows, ncols = len(gens), len(names)
    if c == 0:
        # the only 0 x 0 minor is the empty determinant 1, so
        # I + (0 x 0 minors) = (1) and a codimension-0 chart is smooth.
        return SmoothnessCertificate(chart.provenance, 0, True, (), True)
    if c > min(nrows, ncols):
        return SmoothnessCertificate(chart.provenance, c, False, (), True)
    work = ideal
    used: List[Tuple[Tuple[int, ...], Tuple[int, ...]]] = []
    for drawn, (rows, cols) in enumerate(_minor_candidates(nrows, ncols, c, hints), 1):
        if drawn > MAX_MINOR_CANDIDATES:
            raise ResourceLimitError(
                f"smooth_check drew more than {MAX_MINOR_CANDIDATES} minor candidates"
            )
        sub = [[jac[i][j] for j in cols] for i in rows]
        m = minors(sub, c)[0]
        if m.is_zero() or work.contains(m):
            continue
        work = work.plus([m])
        used.append((rows, cols))
        if ideal_contains_one(work):
            return SmoothnessCertificate(
                chart.provenance, c, True, tuple(used), False
            )
    # every minor was folded in (or reduced to zero); the stream is finite
    return SmoothnessCertificate(
        chart.provenance, c, ideal_contains_one(work), tuple(used), True
    )


def invert_t(chart: ChartIdeal) -> ChartIdeal:
    """Chart with t inverted through a fresh auxiliary yt."""
    if "t" not in chart.ring.index:
        raise ValueError("no t in the dictionary")
    ideal, inverses = with_inverses(chart.ideal, [("yt", chart.ring.var("t"))])
    return chart.derive(ideal, "t_inverted", inverses, t_inverted=True)


def mu_generic_fiber_hints(chart: ChartIdeal) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Structured Jacobian minor for the t-inverted cyclic-product chart.

    Rows: the rotation-0 equations plus the t-inverse relation; columns:
    the last matrix's coordinates plus yt.  That sub-Jacobian is the
    left-multiplication by Pi_0...Pi_{N-1} on the shape (times t), whose
    determinant is invertible once t is.
    """
    from .chains import ParabolicShape

    meta = chart.meta
    n, r, N = int(meta["n"]), int(meta["r"]), int(meta["N"])
    shape = ParabolicShape(n, r)
    width = len(shape.positions())
    gens = chart.generators
    ring = chart.ring
    # rotation-0 generators are the first `width` generators by construction
    rows = tuple(range(width)) + (len(gens) - 1,)
    cols = tuple(ring.index[v] for v in shape.var_names(N)) + (ring.index["yt"],)
    return [(rows, cols)]


def generic_fiber_smooth_check(chart: ChartIdeal) -> Tuple[SmoothnessCertificate, int]:
    """Smoothness of the chart with t inverted; codimension is computed
    by the dimension operation, never assumed.  A cyclic-product chart
    tries its structured minor (``mu_generic_fiber_hints``) first."""
    inverted = invert_t(chart)
    if ideal_contains_one(inverted.ideal):
        return (
            SmoothnessCertificate(inverted.provenance, 0, True, (), True),
            -1,
        )
    dim = dimension(inverted.ideal)
    c = inverted.ring.nvars - dim
    hints = mu_generic_fiber_hints(inverted) if chart.meta.get("kind") == "mu" else None
    cert = smooth_check(inverted, c, hints=hints)
    return cert, dim


# -- point counting -----------------------------------------------------------------

@dataclass(frozen=True)
class PointCountReport:
    provenance: str
    q: int
    t_value: int
    count: int
    coords: Tuple[str, ...]
    exhaustive: bool


def count_points(
    chart: ChartIdeal,
    q: int,
    t_value: int,
    max_coords: int = 12,
) -> PointCountReport:
    """Affine point count over F_q with t specialized: every point of the
    pruned complete enumeration (``enumerate_points``) is counted.

    Chart-inverse auxiliaries are not enumerated: they are determined by
    nonvanishing of the inverted elements, which is enforced instead.
    """
    if q not in (2, 3, 5):
        raise ValueError("exhaustive counting supports q in {2, 3, 5}")
    ring = chart.ring
    aux = {name for name, _ in chart.inverses}
    coords = [n for n in ring.names if n not in aux and n != "t"]
    if len(coords) > max_coords:
        raise ValueError(
            f"{len(coords)} coordinates exceed the exhaustive bound {max_coords}"
        )
    inverted = [f for _, f in chart.inverses]
    plain_gens = []
    for g in chart.generators:
        if any(v in aux for v in g.support_vars()):
            continue
        plain_gens.append(g)
    points = enumerate_points(
        plain_gens, inverted, coords, SmallField(q, 1), {"t": t_value % q}
    )
    return PointCountReport(
        provenance=chart.provenance,
        q=q,
        t_value=t_value % q,
        count=sum(1 for _ in points),
        coords=tuple(coords),
        exhaustive=True,
    )


def count_points_small_field(gens: Sequence[MultiPoly], sf: SmallField) -> int:
    """Number of common zeros of gens in F_{p^k}^n, n the number of ring
    variables."""
    if not gens:
        raise ValueError("need at least the ring")
    return sum(1 for _ in enumerate_points(gens, [], gens[0].ring.names, sf, {}))


def _compile(f: MultiPoly, sf: SmallField, slot: Dict[str, int], fixed: Dict[str, int]):
    """f over F_q with the fixed variables substituted, as a list of
    (coefficient, exponent of its last coordinate, ((slot, exponent), ...)
    of the other coordinates), and the number of coordinates that must be
    assigned before f can be evaluated (the last coordinate's slot + 1)."""
    # SmallField encodes its prime subfield as 0..p-1, as GF(p) does
    coerce = GF(sf.p).coerce
    terms = []
    for e, c in f.terms.items():
        v = coerce(c)
        factors = {}
        for name, k in zip(f.ring.names, e):
            if not k:
                continue
            if name in fixed:
                v = sf.mul_t[v][sf.pow(fixed[name], k)]
            elif name in slot:
                factors[slot[name]] = k
            else:
                raise ValueError(f"{name} is neither a coordinate nor fixed")
        if v:
            terms.append((v, factors))
    last = max((i for _, fs in terms for i in fs), default=-1)
    return [(v, fs.pop(last, 0), tuple(fs.items())) for v, fs in terms], last + 1


def enumerate_points(gens, inverted, coords, sf: SmallField, fixed: Dict[str, int]):
    """Yield, as tuples in coords order, the points of F_q^coords
    (q = sf.q) where every generator vanishes and no inverted element does.

    Depth-first assignment of the coordinates in the given order; each
    polynomial is tested as soon as its last coordinate is assigned, so a
    failing partial assignment is never extended.  Points come out in
    lexicographic order.  At each node the checks that the next coordinate
    completes are evaluated once, as coefficients of its powers; the q
    values are tested against a coefficient tuple by table lookups, once
    per distinct tuple.
    """
    width = len(coords)
    slot = {name: i for i, name in enumerate(coords)}
    # checks[d]: (terms, vanish) of the polynomials whose last coordinate is slot d - 1
    checks: List[List[Tuple[list, bool]]] = [[] for _ in range(width + 1)]
    maxk = 1
    for polys, vanish in ((gens, True), (inverted, False)):
        for f in polys:
            terms, depth = _compile(f, sf, slot, fixed)
            checks[depth].append((terms, vanish))
            for _, k, rest in terms:
                maxk = max(maxk, k, *(e for _, e in rest))
    add, mul = sf.add_t, sf.mul_t
    every = tuple(sf.elements())
    powers = [[sf.pow(x, k) for k in range(maxk + 1)] for x in every]
    point = [0] * width

    @lru_cache(maxsize=None)
    def passes(key: tuple) -> Tuple[int, ...]:
        """The x where sum c_k x^k passes, for key = (c_0, ..., c_maxk, vanish)."""
        out = []
        for x in every:
            acc = 0
            for c, px in zip(key[:-1], powers[x]):
                acc = add[acc][mul[c][px]]
            if (acc == 0) == key[-1]:
                out.append(x)
        return tuple(out)

    def values(depth: int) -> Sequence[int]:
        """The values of slot depth - 1 that pass checks[depth]."""
        cands = every
        for terms, vanish in checks[depth]:
            key = [0] * (maxk + 1) + [vanish]
            for v, k, rest in terms:
                for i, e in rest:
                    v = mul[v][powers[point[i]][e]]
                key[k] = add[key[k]][v]
            ok = passes(tuple(key))
            cands = ok if cands is every else [x for x in cands if x in ok]
            if not cands:
                break
        return cands

    if not values(0):
        return
    if not width:
        yield ()
    stack = [iter(values(1))] if width else []
    while stack:
        for x in stack[-1]:
            depth = len(stack)
            point[depth - 1] = x
            if depth < width:
                stack.append(iter(values(depth + 1)))
                break
            yield tuple(point)
        else:
            stack.pop()


# -- independent combinatorial oracles ----------------------------------------------

def subspaces_of(n: int, r: int, q: int) -> List[List[List[int]]]:
    """All rank-r subspaces of F_q^n as reduced column-echelon frames."""
    field = GF(q)
    out = []
    for piv in combinations(range(n), r):
        # Reduced column echelon: identity at the pivot rows, zeros above
        # each pivot, free entries at non-pivot rows below the pivot.
        free_cells = []
        for k in range(r):
            for i in range(n):
                if i in piv:
                    continue
                if i > piv[k]:
                    free_cells.append((i, k))
        for assignment in product(field.elements(), repeat=len(free_cells)):
            M = [[0] * r for _ in range(n)]
            for k, p in enumerate(piv):
                M[p][k] = 1
            for (cell, v) in zip(free_cells, assignment):
                M[cell[0]][cell[1]] = v
            out.append(M)
    return out


def chain_subspace_count(spec: ChainSpec, q: int, t_value: int) -> int:
    """Direct projective oracle: the number of chains of rank-r subspaces
    F_0, ..., F_N of F_q^n with shift_i(F_i) inside F_{i-1} (F_{-1} = F_N),
    counted from the echelon frames alone, with no chart ideal.

    Slot i has the 0/1 containment matrix C_i[a][b] = [shift_i(F_b) inside
    F_a] over the frames of ``subspaces_of``; as every frame has rank r,
    this is rank [F_a | shift_i(F_b)] = r.  The product C_0[c_N][c_0] *
    C_1[c_0][c_1] * ... * C_N[c_{N-1}][c_N] is 1 exactly when (c_0, ...,
    c_N) is a chain, so the count is the number of closed walks along the
    slots, trace(C_0 C_1 ... C_N), summed in plain ints.
    """
    field = GF(q)
    frames = subspaces_of(spec.n, spec.r, q)
    walks = None
    for i in range(spec.N + 1):
        shift = shift_matrix_value(spec.n, spec.step(i), t_value, field)
        images = [mat_mul(shift, F, field) for F in frames]
        C = [
            [int(mat_rank([x + y for x, y in zip(F, G)], field) == spec.r) for G in images]
            for F in frames
        ]
        cols = list(zip(*C))
        walks = C if walks is None else [[sum(map(mul, w, c)) for c in cols] for w in walks]
    return sum(row[a] for a, row in enumerate(walks))


def glued_local_model_count(spec: ChainSpec, q: int, t_value: int) -> int:
    """Projective count assembled from the pivot charts with ownership.

    Ownership: every tuple of frames is counted in exactly one chart, the
    one whose pivot sets are the canonical pivots of each frame (the rows
    that raise the rank, scanning from the largest row index down).  A
    frame M with the identity at pivot rows p_1 < ... < p_r has exactly
    those canonical pivots if and only if M[a][k] = 0 for every non-pivot
    row a > p_k: row a is skipped exactly when it lies in the span of the
    rows below it, which is <e_k : p_k > a>.  So each chart contributes
    the points of its ideal (``enumerate_points``) with t = t_value and
    those ownership coordinates fixed at 0.
    """
    sf = SmallField(q, 1)
    total = 0
    for combo in product(combinations(range(spec.n), spec.r), repeat=spec.N + 1):
        fixed = {"t": t_value % q}
        for piv, rows in zip(combo, frame_names(spec, combo)):
            for a, row in enumerate(rows):
                fixed.update((name, 0) for name, p in zip(row, piv) if a > p)
        chart = local_model_ideal(spec, combo)
        coords = [v for v in chart.ring.names if v not in fixed]
        points = enumerate_points(chart.generators, [], coords, sf, fixed)
        total += sum(1 for _ in points)
    return total


# -- brute-force dimension oracle -----------------------------------------------------

def dimension_growth_oracle(gens: Sequence[MultiPoly], p: int = 2) -> int:
    """Estimate dim V from the growth of |V(F_{p^k})| between k = 2 and 3.

    |V(F_{p^k})| ~ (p^k)^d, so log_p of the ratio c3/c2 of the counts over
    F_{p^3} and F_{p^2} approximates d; the oracle rounds it to the nearest
    integer, exactly: the d with c2^2 p^(2d-1) <= c3^2 < c2^2 p^(2d+1).
    There are no ties, since p^(d+1/2) is irrational.
    """
    c2, c3 = (count_points_small_field(gens, SmallField(p, k)) for k in (2, 3))
    if c2 == 0 or c3 == 0:
        return -1
    # find d with lo * q^d <= hi < lo * q^(d+1), q = p^2
    hi, lo, q = p * c3 * c3, c2 * c2, p * p
    d = 0
    while hi < lo:
        hi *= q
        d -= 1
    while hi >= lo * q:
        lo *= q
        d += 1
    return d


# -- degree-bounded linear-algebra membership oracle -----------------------------------

def membership_oracle(
    f: MultiPoly, gens: Sequence[MultiPoly], degree_bound: int
) -> Optional[bool]:
    """Is f an F_p-linear combination of monomial multiples of the gens,
    with all products of degree <= degree_bound?

    Returns True when a combination exists, None when the bound was too
    small to decide (a sound one-sided oracle).
    """
    ring = f.ring
    p = ring.field.p
    if not p:
        raise ValueError("the membership oracle runs over GF(p)")
    rows: List[Dict[Tuple[int, ...], int]] = []
    for g in gens:
        dg = g.total_degree()
        if dg > degree_bound:
            continue
        for mono in _monomials_up_to(ring.nvars, degree_bound - dg):
            row = {}
            for e, c in g.terms.items():
                e2 = tuple(a + b for a, b in zip(e, mono))
                row[e2] = (row.get(e2, 0) + int(c)) % p
            rows.append({k: v for k, v in row.items() if v})
    # Gaussian elimination on the sparse rows against f.
    target = {e: int(c) % p for e, c in f.terms.items()}
    basis: Dict[Tuple[int, ...], Dict[Tuple[int, ...], int]] = {}
    for row in rows:
        row = dict(row)
        for lead in sorted(basis, reverse=True):
            if lead in row:
                factor = row[lead]
                brow = basis[lead]
                for k, v in brow.items():
                    row[k] = (row.get(k, 0) - factor * v) % p
                row = {k: v for k, v in row.items() if v}
        if row:
            lead = max(row)
            inv = pow(row[lead], p - 2, p)
            basis[lead] = {k: (v * inv) % p for k, v in row.items()}
    for lead in sorted(basis, reverse=True):
        if lead in target:
            factor = target[lead]
            for k, v in basis[lead].items():
                target[k] = (target.get(k, 0) - factor * v) % p
            target = {k: v for k, v in target.items() if v}
    if not target:
        return True
    return None


def _monomials_up_to(nvars: int, maxdeg: int):
    if maxdeg < 0:
        return
    exps = [0] * nvars

    def rec(pos: int, left: int):
        if pos == nvars:
            yield tuple(exps)
            return
        for v in range(left + 1):
            exps[pos] = v
            yield from rec(pos + 1, left - v)
        exps[pos] = 0

    yield from rec(0, maxdeg)
