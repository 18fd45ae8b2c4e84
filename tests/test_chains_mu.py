from itertools import permutations

import pytest

from latmod import polymat
from latmod.chains import ChainSpec, ParabolicShape, shift_matrix_power
from latmod.ideals import PolyIdeal, dimension, ideal_contains_one
from latmod.opencell import _adjugate
from latmod.poly import GF, PolyRing, QQ
from latmod.schemes import faltings_mu_ideal, mu_chart_ideal, mu_ideal, mu_ring

from polyeval import evaluate


@pytest.fixture
def tring():
    return PolyRing(QQ, ["t"])


def test_shift_matrix_examples(tring):
    t = tring.var("t")
    T33 = shift_matrix_power(3, 3, tring)
    assert T33 == polymat.identity(tring, 3, t)
    T21 = shift_matrix_power(2, 1, tring)
    assert T21 == [[tring.zero, tring.one], [t, tring.zero]]
    assert shift_matrix_power(4, 0, tring) == polymat.identity(tring, 4)


def test_shift_matrix_power_matches_repeated_multiplication(tring):
    """Closed form against the independent repeated-product oracle."""
    for n in range(2, 9):
        T = shift_matrix_power(n, 1, tring)
        acc = polymat.identity(tring, n)
        for m in range(0, 2 * n + 1):
            assert shift_matrix_power(n, m, tring) == acc
            acc = polymat.matmul(acc, T)


def test_full_twist_is_t_times_identity(tring):
    t = tring.var("t")
    for n in range(2, 9):
        assert shift_matrix_power(n, n, tring) == polymat.identity(tring, n, t)


def test_parabolic_shape_closed_under_product():
    ring = PolyRing(QQ, [f"g0_{i}_{j}" for i in range(1, 4) for j in range(1, 4)]
                    + [f"g1_{i}_{j}" for i in range(1, 4) for j in range(1, 4)])
    shape = ParabolicShape(3, 1)
    m0 = polymat.zeros(ring, 3, 3)
    m1 = polymat.zeros(ring, 3, 3)
    for a, b in shape.positions():
        m0[a][b] = ring.var(f"g0_{a + 1}_{b + 1}")
        m1[a][b] = ring.var(f"g1_{a + 1}_{b + 1}")
    prod = polymat.matmul(m0, m1)
    assert shape.in_shape(prod)


@pytest.mark.parametrize("n,r", [(2, 1), (3, 1), (3, 2), (4, 2)])
def test_parabolic_matrix_round_trip(n, r):
    shape = ParabolicShape(n, r)
    positions = shape.positions()
    values = list(range(1, len(positions) + 1))
    m = shape.matrix(values, 0)
    assert [m[a][b] for a, b in positions] == values
    assert len(positions) == n * n - r * (n - r)
    assert all(m[i][j] == 0 for i in range(r, n) for j in range(r))
    ring = mu_ring(n, r, 1)
    sym = shape.symbolic_matrix(ring, 1)
    assert [sym[a][b] for a, b in positions] == [ring.var(v) for v in shape.var_names(1)]
    assert shape.in_shape(sym)


def _leibniz_det(M):
    """det M as the signed sum over permutations, sharing no code with
    ``minors``."""
    n = len(M)
    ring = M[0][0].ring
    total = ring.zero
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = ring.const((-1) ** inversions)
        for i, p in enumerate(perm):
            term = term * M[i][p]
        total = total + term
    return total


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_adjugate_times_matrix_is_det(n):
    """adj(M) M = M adj(M) = det(M) Id on a generic symbolic n x n matrix;
    the open-cell checks invert blocks of size at most 2 only."""
    ring = PolyRing(QQ, [f"m{i}_{j}" for i in range(n) for j in range(n)])
    M = [[ring.var(f"m{i}_{j}") for j in range(n)] for i in range(n)]
    adj = _adjugate(M)
    scalar = polymat.identity(ring, n, _leibniz_det(M))
    assert polymat.matmul(adj, M) == scalar
    assert polymat.matmul(M, adj) == scalar


def test_chain_spec_validation():
    ChainSpec(3, 1, 1, (1, 2))
    with pytest.raises(ValueError):
        ChainSpec(3, 1, 1, (1, 1))  # wrong sum
    with pytest.raises(ValueError):
        ChainSpec(3, 1, 1, (3, 0))  # nonpositive entry
    with pytest.raises(ValueError):
        ChainSpec(3, 3, 1, (1, 2))  # r out of range
    sp = ChainSpec(4, 2, 1, (2, 2), symplectic=True)
    assert sp.g == 2
    with pytest.raises(ValueError):
        ChainSpec(4, 2, 1, (1, 3), symplectic=True)  # d_{N+1} must be g


def test_chain_spec_step_wraps():
    spec = ChainSpec(3, 1, 1, (1, 2))
    assert spec.step(1) == 1
    assert spec.step(0) == 2  # wrap-around uses d_{N+1}


def test_mu_2_1_1_generators():
    mu = mu_ideal(2, 1, 1)
    ring = mu.ring
    expected = {
        ring.parse("Pi0_1_1*Pi1_1_1 - t"),
        ring.parse("Pi0_2_2*Pi1_2_2 - t"),
        ring.parse("Pi0_1_1*Pi1_1_2 + Pi0_1_2*Pi1_2_2"),
        ring.parse("Pi0_1_2*Pi1_1_1 + Pi0_2_2*Pi1_1_2"),
    }
    assert set(mu.generators) == expected
    assert ring.nvars == 7


def test_mu_2_1_1_dimension_is_4():
    assert dimension(mu_ideal(2, 1, 1).ideal) == 4


def test_mu_scalar_solution():
    """Pi_0 = Pi_1 = u*Id with t = u^2 satisfies every generator."""
    mu = mu_ideal(2, 1, 1, GF(7))
    for u in range(7):
        point = {
            "Pi0_1_1": u, "Pi0_1_2": 0, "Pi0_2_2": u,
            "Pi1_1_1": u, "Pi1_1_2": 0, "Pi1_2_2": u,
            "t": (u * u) % 7,
        }
        for g in mu.generators:
            assert evaluate(g, point) == 0


def test_mu_chart_default_choices():
    spec = ChainSpec(2, 1, 1, (1, 1))
    chart = mu_chart_ideal(spec)
    names = chart.ring.names
    assert "y0" in names and "y1" in names
    assert len(chart.inverses) == 2


def test_mu_chart_explicit_entry_minor():
    spec = ChainSpec(2, 1, 1, (1, 1))
    chart = mu_chart_ideal(spec, [((0,), (0,)), ((0,), (0,))])
    ring = chart.ring
    gens = set(chart.generators)
    assert ring.parse("Pi0_1_1*y0 - 1") in gens
    assert ring.parse("Pi1_1_1*y1 - 1") in gens


def test_mu_chart_zero_minor_gives_unit_ideal():
    """Choosing a minor inside the zero block forces 1 into the ideal."""
    spec = ChainSpec(2, 1, 1, (1, 1))
    chart = mu_chart_ideal(spec, [((1,), (0,)), ((0,), (1,))])
    assert ideal_contains_one(chart.ideal)


def test_mu_chart_t_never_inverted():
    spec = ChainSpec(3, 1, 1, (1, 2))
    chart = mu_chart_ideal(spec)
    assert all(f.degree_in("t") <= 0 for _, f in chart.inverses)


def test_mu_chart_rejects_bad_minor_size():
    spec = ChainSpec(2, 1, 1, (1, 1))
    with pytest.raises(ValueError):
        mu_chart_ideal(spec, [((0, 1), (0, 1)), ((0,), (0,))])


def test_faltings_scalar_case():
    f = faltings_mu_ideal(1, 1)
    assert [str(g) for g in f.generators] == ["A0_1_1*A1_1_1 - t"]


def test_faltings_2_1_shape():
    f = faltings_mu_ideal(2, 1)
    assert f.ring.nvars == 9  # 8 matrix entries + t
    assert len(f.generators) == 8  # two full 2x2 products


def test_faltings_gl_invariance():
    """Conjugating by symbolic invertible g maps the ideal into itself.

    The transformed generators equal z_i * (integer combinations of the
    original generators), so reduction against the original basis plus
    the determinant-inverse relations must give zero.
    """
    f = faltings_mu_ideal(2, 1)
    ring = f.ring
    gnames = [f"h{i}_{a}_{b}" for i in range(2) for a in range(1, 3) for b in range(1, 3)]
    ext = ring.extend(gnames + ["z0", "z1"])
    gens_ext = [g.map_ring(ext) for g in f.generators]
    h = []
    for i in range(2):
        h.append([[ext.var(f"h{i}_{a}_{b}") for b in range(1, 3)] for a in range(1, 3)])
    dets = []
    adjs = []
    for i in range(2):
        m = h[i]
        dets.append(m[0][0] * m[1][1] - m[0][1] * m[1][0])
        adjs.append([[m[1][1], -m[0][1]], [-m[1][0], m[0][0]]])
    z = [ext.var("z0"), ext.var("z1")]
    hinv = [polymat.map_entries(adjs[i], lambda x, i=i: x * z[i]) for i in range(2)]
    A = []
    for i in range(2):
        A.append([[ext.var(f"A{i}_{a}_{b}") for b in range(1, 3)] for a in range(1, 3)])
    # action: A_0 -> g_1^{-1} A_0 g_0,  A_1 -> g_0^{-1} A_1 g_1
    A0new = polymat.matmul(polymat.matmul(hinv[1], A[0]), h[0])
    A1new = polymat.matmul(polymat.matmul(hinv[0], A[1]), h[1])
    mapping = {"t": ext.var("t")}
    for a in range(2):
        for b in range(2):
            mapping[f"A0_{a + 1}_{b + 1}"] = A0new[a][b]
            mapping[f"A1_{a + 1}_{b + 1}"] = A1new[a][b]
    rels = gens_ext + [z[i] * dets[i] - 1 for i in range(2)]
    J = PolyIdeal(ext, rels)
    for g in f.generators:
        image = g.map_ring(ext).subs(mapping)
        assert J.normal_form(image).is_zero()


def test_mu_drops_identically_zero_generators():
    mu = mu_ideal(3, 1, 1)
    assert all(not g.is_zero() for g in mu.generators)
    # lower-left block of the product is identically zero, so the
    # generator count stays below the full matrix-entry count
    assert len(mu.generators) <= 2 * 7
