"""Builders for the matrix-equation schemes as chart ideals.

Covers: the cyclic product scheme on parabolic matrices (all rotations of
Pi_0 ... Pi_N = t Id), its full-matrix variant, the distinguished-minor
charts, the Grassmannian-chart chain models (plain and symplectic), the
symplectic pairing scheme with its adjointness relations, and the
cyclic-shift / transpose-conjugation symmetries.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from . import polymat
from .chains import ChainSpec, ParabolicShape, shift_matrix_power
from .chart import ChartIdeal, with_inverses
from .errors import ShapeViolation
from .ideals import PolyIdeal, minors
from .intlinalg import IntMatrix
from .poly import Field, MultiPoly, PolyRing, QQ


# -- core cyclic-product ideals ------------------------------------------------

def _dedupe(gens: Sequence[MultiPoly]) -> List[MultiPoly]:
    """The nonzero generators, first occurrences only, in order."""
    return [g for g in dict.fromkeys(gens) if not g.is_zero()]


def mu_ring(n: int, r: int, N: int, field: Field = QQ) -> PolyRing:
    shape = ParabolicShape(n, r)
    names: List[str] = []
    for i in range(N + 1):
        names.extend(shape.var_names(i))
    names.append("t")
    return PolyRing(field, names)


def _cyclic_product_generators(mats, t, ring) -> List[MultiPoly]:
    """Entries of every cyclic rotation product minus t*Id, deduplicated."""
    n = len(mats[0])
    count = len(mats)
    tid = polymat.identity(ring, n, t)
    gens: List[MultiPoly] = []
    for j in range(count):
        prod = mats[j]
        for k in range(1, count):
            prod = polymat.matmul(prod, mats[(j + k) % count])
        gens.extend(polymat.entries(polymat.matsub(prod, tid)))
    return _dedupe(gens)


def mu_ideal(n: int, r: int, N: int, field: Field = QQ) -> ChartIdeal:
    """The scheme of N+1 parabolic-shape matrices with all cyclic products
    equal to t*Id_n.

    All rotations are imposed: without invertibility they are not
    interdefinable.  The open rank condition is not part of the ideal;
    charts carry it.
    """
    ring = mu_ring(n, r, N, field)
    shape = ParabolicShape(n, r)
    mats = [shape.symbolic_matrix(ring, i) for i in range(N + 1)]
    gens = _cyclic_product_generators(mats, ring.var("t"), ring)
    return ChartIdeal(
        ideal=PolyIdeal(ring, gens),
        provenance=f"mu(n={n},r={r},N={N})",
        meta={"kind": "mu", "n": n, "r": r, "N": N},
    )


def faltings_mu_ideal(r: int, N: int) -> ChartIdeal:
    """Full-matrix variant: N+1 unconstrained r x r matrices, parameter t."""
    if r < 1:
        raise ValueError("need r >= 1")
    layout = [
        [[f"A{i}_{a + 1}_{b + 1}" for b in range(r)] for a in range(r)]
        for i in range(N + 1)
    ]
    ring = PolyRing(QQ, [v for m in layout for v in polymat.entries(m)] + ["t"])
    mats = [polymat.map_entries(m, ring.var) for m in layout]
    gens = _cyclic_product_generators(mats, ring.var("t"), ring)
    return ChartIdeal(
        ideal=PolyIdeal(ring, gens),
        provenance=f"faltings_mu(r={r},N={N})",
        meta={"kind": "faltings_mu", "r": r, "N": N},
    )


def _submatrix_det(ring, mat, rows, cols) -> MultiPoly:
    if not rows:
        return ring.one
    sub = [[mat[i][j] for j in cols] for i in rows]
    return minors(sub, len(rows))[0]


def default_minor_choices(spec: ChainSpec) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Minor per slot that is invertible at the standard shift-power point."""
    out = []
    for i in range(spec.N + 1):
        d = spec.step(i)
        size = spec.n - d
        out.append((tuple(range(size)), tuple(range(d, spec.n))))
    return out


def mu_chart_ideal(
    spec: ChainSpec,
    minor_choices: Optional[Sequence[Tuple[Sequence[int], Sequence[int]]]] = None,
) -> ChartIdeal:
    """Distinguished-minor chart of the cyclic product scheme.

    For each slot i one (n - d_i)-minor of Pi_i is inverted through an
    auxiliary y_i; the full chart locus is the union over all choices.
    t itself is never inverted here.
    """
    n, r, N = spec.n, spec.r, spec.N
    base = mu_ideal(n, r, N)
    if minor_choices is None:
        minor_choices = default_minor_choices(spec)
    if len(minor_choices) != N + 1:
        raise ValueError(f"need one minor choice per slot ({N + 1})")
    shape = ParabolicShape(n, r)
    mats = [shape.symbolic_matrix(base.ring, i) for i in range(N + 1)]
    inverses = []
    choices_meta = []
    for i, (rows, cols) in enumerate(minor_choices):
        size = n - spec.step(i)
        rows = tuple(int(x) for x in rows)
        cols = tuple(int(x) for x in cols)
        if len(rows) != size or len(cols) != size:
            raise ValueError(
                f"slot {i}: minor must have size {size}, got {len(rows)}x{len(cols)}"
            )
        if any(not 0 <= x < n for x in rows + cols):
            raise ValueError("minor indices out of range")
        if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
            raise ValueError("minor indices must be distinct")
        inverses.append((f"y{i}", _submatrix_det(base.ring, mats[i], rows, cols)))
        choices_meta.append([list(rows), list(cols)])
    ideal, inverses = with_inverses(base.ideal, inverses)
    return ChartIdeal(
        ideal=ideal,
        provenance=f"mu_chart(n={n},r={r},N={N},d={list(spec.d)})",
        inverses=inverses,
        meta={
            "kind": "mu_chart",
            "n": n,
            "r": r,
            "N": N,
            "d": list(spec.d),
            "minors": choices_meta,
        },
    )


# -- chain local models ----------------------------------------------------------

def _slot_names(spec: ChainSpec, i: int, piv: Tuple[int, ...]) -> List[List[str]]:
    """The rows of slot i's frame coordinates w{i}_{row}_{col}; a pivot row
    has none."""
    return [
        [] if a in piv else [f"w{i}_{a + 1}_{k + 1}" for k in range(spec.r)]
        for a in range(spec.n)
    ]


def frame_names(spec: ChainSpec, pivots) -> List[List[List[str]]]:
    """Per slot, the rows of frame coordinates w{i}_{row}_{col}; a pivot
    row has none."""
    return [_slot_names(spec, i, piv) for i, piv in enumerate(pivots)]


def _frame(ring: PolyRing, piv, rows) -> List[List[MultiPoly]]:
    """Rank-r frame: the identity at the pivot rows, coordinates elsewhere."""
    return [
        [ring.var(v) for v in row]
        if row
        else [ring.one if p == a else ring.zero for p in piv]
        for a, row in enumerate(rows)
    ]


@lru_cache(maxsize=None)
def _chain_condition(
    spec: ChainSpec, i: int, piv: Tuple[int, ...], prev: Tuple[int, ...]
) -> Tuple[MultiPoly, ...]:
    """Slot i's chain condition on a chart with pivot sets ``piv`` at slot i
    and ``prev`` at slot i - 1: the nonzero (r+1)-minors of
    [T^{d_i} M_i | M_{i-1}], in a ring of those two slots' coordinates (in
    slot order) and t.  The charts of a chain model share them, so they
    are built once; callers map them into their own ring."""
    j = (i - 1) % (spec.N + 1)
    rows = {i: _slot_names(spec, i, piv), j: _slot_names(spec, j, prev)}
    names = [v for s in sorted(rows) for row in rows[s] for v in row]
    ring = PolyRing(QQ, names + ["t"])
    alpha = shift_matrix_power(spec.n, spec.step(i), ring)
    stacked = polymat.hstack(
        polymat.matmul(alpha, _frame(ring, piv, rows[i])), _frame(ring, prev, rows[j])
    )
    return tuple(m for m in minors(stacked, spec.r + 1) if not m.is_zero())


def _validate_pivots(spec: ChainSpec, pivots) -> List[Tuple[int, ...]]:
    if pivots is None:
        pivots = [tuple(range(spec.r))] * (spec.N + 1)
    pivots = [tuple(sorted(int(x) for x in p)) for p in pivots]
    if len(pivots) != spec.N + 1:
        raise ValueError(f"need {spec.N + 1} pivot sets")
    for p in pivots:
        if len(p) != spec.r or len(set(p)) != spec.r:
            raise ValueError("each pivot set must pick r distinct rows")
        if any(not 0 <= x < spec.n for x in p):
            raise ValueError("pivot out of range")
    return pivots


def local_model_ideal(
    spec: ChainSpec,
    pivots: Optional[Sequence[Sequence[int]]] = None,
) -> ChartIdeal:
    """Grassmannian-chart ideal of the chain model.

    Chart data: rank-r frames M_i with identity at the pivot rows; the
    chain condition "alpha_i maps omega_i into omega_{i-1}" becomes the
    vanishing of all (r+1)-minors of [T^{d_i} M_i | M_{i-1}], with the
    wrap-around slot using the full-twist identification.
    """
    pivots = _validate_pivots(spec, pivots)
    n, r, N = spec.n, spec.r, spec.N
    names = [v for rows in frame_names(spec, pivots) for row in rows for v in row]
    ring = PolyRing(QQ, names + ["t"])
    gens = [
        m.map_ring(ring)
        for i in range(N + 1)
        for m in _chain_condition(spec, i, pivots[i], pivots[i - 1])
    ]
    return ChartIdeal(
        ideal=PolyIdeal(ring, gens),
        provenance=f"local_model(n={n},r={r},N={N},d={list(spec.d)})",
        meta={
            "kind": "local_model",
            "n": n,
            "r": r,
            "N": N,
            "d": list(spec.d),
            "pivots": [list(p) for p in pivots],
        },
    )


def delta_matrix(g: int) -> IntMatrix:
    """Anti-diagonal permutation matrix of the reversal (g, g-1, ..., 1)."""
    return IntMatrix.from_rows(
        [[1 if j == g - 1 - i else 0 for j in range(g)] for i in range(g)]
    )


def j_matrix(g: int) -> IntMatrix:
    d = delta_matrix(g)
    rows = []
    for i in range(g):
        rows.append([0] * g + [-x for x in d.row(i)])
    for i in range(g):
        rows.append(list(d.row(i)) + [0] * g)
    return IntMatrix.from_rows(rows)


def _divide_by_var(f: MultiPoly, name: str) -> MultiPoly:
    i = f.ring.index[name]
    out = {}
    for e, c in f.terms.items():
        if e[i] == 0:
            raise ValueError(f"entry not divisible by {name}")
        e2 = list(e)
        e2[i] -= 1
        out[tuple(e2)] = c
    return MultiPoly(f.ring, out)


def symplectic_gram_matrices(g: int, ring: PolyRing):
    """Gram matrices ``(gram0, gramN)`` of the pairing on slot 0 and of
    t^{-1}(pairing) on slot N, both in the chosen lattice bases; the latter
    is exact since every entry of (T^g)^t J T^g is divisible by t."""
    n = 2 * g
    J = j_matrix(g)
    Jp = [[ring.const(J[i, j]) for j in range(n)] for i in range(n)]
    Tg = shift_matrix_power(n, g, ring)
    S = polymat.matmul(polymat.matmul(polymat.transpose(Tg), Jp), Tg)
    GN = [[_divide_by_var(x, "t") if not x.is_zero() else x for x in row] for row in S]
    return Jp, GN


def symplectic_local_model_ideal(
    spec: ChainSpec,
    pivots: Optional[Sequence[Sequence[int]]] = None,
) -> ChartIdeal:
    """Chain model plus total isotropy of the end frames.

    Isotropy of frame M against an antisymmetric Gram G contributes the
    strictly-upper entries of M^t G M (the rest vanish identically).
    """
    if not spec.symplectic:
        raise ValueError("spec is not symplectic")
    base = local_model_ideal(spec, pivots)
    ring = base.ring
    g = spec.n // 2
    grams = symplectic_gram_matrices(g, ring)
    pivots = [tuple(p) for p in base.meta["pivots"]]
    gens = list(base.generators)
    for slot, G in zip((0, spec.N), grams):
        M = _frame(ring, pivots[slot], _slot_names(spec, slot, pivots[slot]))
        W = polymat.matmul(polymat.matmul(polymat.transpose(M), G), M)
        for i in range(spec.r):
            for j in range(i + 1, spec.r):
                if not W[i][j].is_zero():
                    gens.append(W[i][j])
    return ChartIdeal(
        ideal=PolyIdeal(ring, gens),
        provenance=f"symplectic_{base.provenance}",
        meta=dict(base.meta, kind="symplectic_local_model", g=g),
    )


# -- the symplectic pairing scheme ------------------------------------------------

def _j(tag: str, i: int, j: int) -> str:
    """Name of entry (i, j), 1-based, of the pairing unknown ``tag``:
    J0_1, JN_1 (the J1 blocks) or J0_3, JN_3 (the J3 blocks)."""
    return f"{tag}_{i}_{j}"


def _j3(ring: PolyRing, tag: str, i: int, j: int) -> MultiPoly:
    """Entry (i, j) of the antisymmetric, zero-diagonal unknown ``tag``."""
    if i == j:
        return ring.zero
    if i < j:
        return ring.var(_j(tag, i, j))
    return -ring.var(_j(tag, j, i))


def sigma_ideal(g: int, N: int, field: Field = QQ) -> ChartIdeal:
    """Cyclic product scheme for (2g, g) together with two unknown
    symplectic pairings on the end slots and the adjointness relation
    between the long product and the last matrix.

    Pairing unknowns: J0_1 (g x g), J0_3 antisymmetric, same at slot N;
    the lower-left blocks are forced to -J1^t and the upper-left blocks
    vanish (total isotropy).  Nondegeneracy is chart data: inverses of
    both determinants.
    """
    if g < 1:
        raise ValueError("need g >= 1")
    n = 2 * g
    base = mu_ideal(n, g, N, field)
    span = range(1, g + 1)
    tags = ("J0", "JN")
    # per end slot: the J1 entries (g x g), then the strict-upper J3 entries
    jnames = []
    for tag in tags:
        jnames += [_j(f"{tag}_1", a, b) for a in span for b in span]
        jnames += [_j(f"{tag}_3", a, b) for a in span for b in span if a < b]
    ring = base.ring.extend(jnames)
    shape = ParabolicShape(n, g)
    mats = [shape.symbolic_matrix(ring, i) for i in range(N + 1)]

    def pairing_matrix(tag):
        J1 = [[ring.var(_j(f"{tag}_1", a, b)) for b in span] for a in span]
        J3 = [[_j3(ring, f"{tag}_3", a, b) for b in span] for a in span]
        top = [[ring.zero] * g + J1[i] for i in range(g)]
        bot = [[-J1[b][a] for b in range(g)] + J3[a] for a in range(g)]
        return top + bot

    J0, JN = map(pairing_matrix, tags)
    gens = [gg.map_ring(ring) for gg in base.generators]
    prod = mats[0]
    for k in range(1, N):
        prod = polymat.matmul(prod, mats[k])
    adj = polymat.matsub(
        polymat.matmul(polymat.transpose(prod), JN),
        polymat.matmul(J0, mats[N]),
    )
    for e in polymat.entries(adj):
        if not e.is_zero():
            gens.append(e)
    ideal, inverses = with_inverses(
        PolyIdeal(ring, gens),
        [("ydet0", minors(J0, n)[0]), ("ydetN", minors(JN, n)[0])],
    )
    return ChartIdeal(
        ideal=ideal,
        provenance=f"sigma(g={g},N={N})",
        inverses=inverses,
        meta={"kind": "sigma", "g": g, "N": N},
    )


# -- symmetries -----------------------------------------------------------------

def _mu_meta(chart: ChartIdeal) -> Tuple[int, int, int]:
    meta = chart.meta
    if meta.get("kind") != "mu":
        raise ValueError("symmetries apply to the plain cyclic-product ideal")
    return int(meta["n"]), int(meta["r"]), int(meta["N"])


def apply_cyclic_shift(chart: ChartIdeal, s: int) -> ChartIdeal:
    """Substitute Pi_i -> Pi_{i+s} (indices mod N+1)."""
    n, r, N = _mu_meta(chart)
    ring = chart.ring
    s = s % (N + 1)
    shape = ParabolicShape(n, r)
    rename: Dict[str, str] = {}
    for i in range(N + 1):
        rename.update(zip(shape.var_names(i), shape.var_names((i + s) % (N + 1))))
    # each generator's terms read with Pi_i's coordinates named as Pi_{i+s}'s
    shifted = PolyRing(ring.field, [rename.get(v, v) for v in ring.names])
    gens = [MultiPoly(shifted, g.terms).map_ring(ring) for g in chart.generators]
    return chart.derive(
        PolyIdeal(ring, gens, chart.ideal.order), f"shift(s={s})", shifted=s
    )


def involution_permutation(N: int) -> List[int]:
    """Index action of the transpose-conjugation symmetry: 0 is fixed,
    i -> N+1-i otherwise."""
    return [0] + [N + 1 - i for i in range(1, N + 1)]


def apply_symplectic_involution(chart: ChartIdeal) -> ChartIdeal:
    """Substitute Pi_i -> J^{-1} Pi_{sigma(i)}^t J on the symplectic shape.

    J^{-1} = -J, because J^2 = -Id when Delta is an involution.  The
    conjugation swaps the diagonal blocks through the antidiagonal
    and keeps the shape; any entry landing in the zero block is checked
    to vanish identically.
    """
    n, r, N = _mu_meta(chart)
    if n != 2 * r:
        raise ValueError("involution needs the symplectic shape n = 2g, r = g")
    g = r
    ring = chart.ring
    shape = ParabolicShape(n, r)
    J = j_matrix(g)
    Jp = [[ring.const(J[a, b]) for b in range(n)] for a in range(n)]
    Jinvp = [[ring.const(-J[a, b]) for b in range(n)] for a in range(n)]
    sigma = involution_permutation(N)
    mapping: Dict[str, MultiPoly] = {}
    for i in range(N + 1):
        src = shape.symbolic_matrix(ring, sigma[i])
        transposed = polymat.transpose(src)
        target = polymat.matmul(polymat.matmul(Jinvp, transposed), Jp)
        if not shape.in_shape(target):
            raise ShapeViolation(f"involution image of Pi{sigma[i]} leaves the shape")
        mapping.update(
            zip(shape.var_names(i), (target[a][b] for a, b in shape.positions()))
        )
    gens = [gg.subs({**mapping, "t": ring.var("t")}) for gg in chart.generators]
    return chart.derive(
        PolyIdeal(ring, gens, chart.ideal.order), "involution", involuted=True
    )


# -- exact equivariance certificates ---------------------------------------------

def _signed_key(g: MultiPoly):
    """Canonical key identifying g up to sign."""
    items = sorted(g.terms.items())
    if not items:
        return ()
    lead = items[-1][1]
    flip = lead < 0
    return tuple((e, -c if flip else c) for e, c in items)


def generators_match_up_to_sign(a: Sequence[MultiPoly], b: Sequence[MultiPoly]) -> bool:
    return {_signed_key(g) for g in a} == {_signed_key(g) for g in b}


def generators_match_exactly(a: Sequence[MultiPoly], b: Sequence[MultiPoly]) -> bool:
    return set(a) == set(b)
