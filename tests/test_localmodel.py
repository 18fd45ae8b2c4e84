import itertools
import time

import pytest

from latmod import polymat, schemes, verify
from latmod.chains import ChainSpec, shift_matrix_power
from latmod.ideals import minors
from latmod.errors import ResourceLimitError
from latmod.poly import PolyRing, QQ
from latmod.schemes import (
    delta_matrix,
    j_matrix,
    local_model_ideal,
    symplectic_gram_matrices,
    symplectic_local_model_ideal,
)
from latmod.verify import generic_fiber_smooth_check

from snfcheck import det


def test_lm_2_1_1_standard_chart():
    spec = ChainSpec(2, 1, 1, (1, 1))
    lm = local_model_ideal(spec)
    assert lm.ring.names == ("w0_2_1", "w1_2_1", "t")
    assert len(lm.generators) == 2
    w0, w1, t = lm.ring.gens()
    assert all(g == w0 * w1 - t for g in lm.generators)


def _chain_minors_direct(spec, pivots):
    """Every slot's nonzero (r+1)-minors of [T^{d_i} M_i | M_{i-1}], built
    in the chart's own ring with no sharing between charts."""
    names = schemes.frame_names(spec, pivots)
    ring = PolyRing(QQ, [v for rows in names for row in rows for v in row] + ["t"])
    frames = []
    for piv, rows in zip(pivots, names):
        frame = [[ring.zero] * spec.r for _ in range(spec.n)]
        for a, row in enumerate(rows):
            for k in range(spec.r):
                frame[a][k] = ring.var(row[k]) if row else ring.const(int(piv[k] == a))
        frames.append(frame)
    gens = []
    for i in range(spec.N + 1):
        alpha = shift_matrix_power(spec.n, spec.step(i), ring)
        stacked = polymat.hstack(polymat.matmul(alpha, frames[i]), frames[i - 1])
        gens += [m for m in minors(stacked, spec.r + 1) if not m.is_zero()]
    return gens


def test_chain_conditions_are_shared_between_charts():
    spec = ChainSpec(3, 2, 2, (1, 1, 1))
    charts = list(itertools.product(itertools.combinations(range(3), 2), repeat=3))
    schemes._chain_condition.cache_clear()
    cold = [local_model_ideal(spec, p).generators for p in charts]
    # 3 pivot sets per slot, so 3 slots x 9 (pivots, previous pivots) pairs
    assert schemes._chain_condition.cache_info().currsize == 27
    warm = [local_model_ideal(spec, p).generators for p in charts]
    for p, a, b in zip(charts, cold, warm):
        direct = _chain_minors_direct(spec, p)
        for gens in (a, b):
            assert [list(g.terms.items()) for g in gens] == [
                list(g.terms.items()) for g in direct
            ]
            assert all(g.ring == direct[0].ring for g in gens)


def test_lm_rejects_bad_pivots():
    spec = ChainSpec(2, 1, 1, (1, 1))
    with pytest.raises(ValueError):
        local_model_ideal(spec, [(0, 1), (0,)])
    with pytest.raises(ValueError):
        local_model_ideal(spec, [(2,), (0,)])


def test_lm_generic_fiber_smooth_all_pivot_charts():
    """After inverting t every pivot chart is smooth (the model is the
    plain Grassmannian there)."""
    from itertools import combinations, product

    spec = ChainSpec(2, 1, 1, (1, 1))
    for pivots in product(combinations(range(2), 1), repeat=2):
        lm = local_model_ideal(spec, list(pivots))
        cert, dim = generic_fiber_smooth_check(lm)
        assert cert.verdict


def test_lm_3_generic_fiber_smooth():
    for (n, r, N, d) in [(3, 1, 1, (1, 2)), (3, 2, 1, (2, 1)), (3, 1, 2, (1, 1, 1))]:
        spec = ChainSpec(n, r, N, d)
        cert, dim = generic_fiber_smooth_check(local_model_ideal(spec))
        assert cert.verdict


def test_delta_and_j_matrices():
    D = delta_matrix(2)
    assert D.to_rows() == [[0, 1], [1, 0]]
    J = j_matrix(2)
    assert J.to_rows() == [
        [0, 0, 0, -1],
        [0, 0, -1, 0],
        [0, 1, 0, 0],
        [1, 0, 0, 0],
    ]
    assert abs(det(J)) == 1


def test_gram_matrices_exact():
    ring = PolyRing(QQ, ["t"])
    for g in (1, 2, 3):
        gram0, gramN = symplectic_gram_matrices(g, ring)
        n = 2 * g
        for G in (gram0, gramN):
            assert len(G) == n
            # antisymmetric
            for i in range(n):
                for j in range(n):
                    assert G[i][j] == -G[j][i]
        # the end-slot Gram matrix is constant in t
        for row in gramN:
            for e in row:
                assert e.degree_in("t") <= 0


def test_symplectic_lm_g1_isotropy_vacuous():
    """Rank-1 frames: isotropy against an antisymmetric form adds nothing."""
    spec = ChainSpec(2, 1, 1, (1, 1), symplectic=True)
    base = local_model_ideal(spec)
    sympl = symplectic_local_model_ideal(spec)
    assert len(sympl.generators) == len(base.generators)


def test_symplectic_lm_g2_isotropy_contributes():
    spec = ChainSpec(4, 2, 2, (1, 1, 2), symplectic=True)
    base = local_model_ideal(spec)
    sympl = symplectic_local_model_ideal(spec)
    extra = len(sympl.generators) - len(base.generators)
    assert extra == 2  # one Pluecker-type generator per isotropic end


def test_smooth_check_stops_at_the_candidate_bound(monkeypatch):
    """Symplectic (4,2,2,(1,1,2)) finds no unit ideal among the first
    thousands of minors; with the bound at 40 draws it fails at once
    instead of searching without end."""
    monkeypatch.setattr(verify, "MAX_MINOR_CANDIDATES", 40)
    lm = symplectic_local_model_ideal(ChainSpec(4, 2, 2, (1, 1, 2), symplectic=True))
    t0 = time.monotonic()
    with pytest.raises(ResourceLimitError, match="40 minor candidates"):
        generic_fiber_smooth_check(lm)
    assert time.monotonic() - t0 < 1.0


def test_symplectic_spec_validation():
    with pytest.raises(ValueError):
        symplectic_local_model_ideal(ChainSpec(2, 1, 1, (1, 1)))

