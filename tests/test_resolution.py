import pytest

from latmod import polymat
from latmod.chart import ChartIdeal
from latmod.ideals import PolyIdeal, ideal_contains_one, saturate
from latmod.poly import PolyRing, QQ
from latmod.resolution import (
    blowup_chart,
    census_groebner_crosscheck,
    diagonal_chart_ideals,
    kill_t_torsion,
    sigma_fiber_freecount,
)
from latmod.schemes import faltings_mu_ideal
from latmod.suite import check_blowup_principal, torsion_test_corpus


@pytest.fixture
def plane():
    ring = PolyRing(QQ, ["x", "y"])
    return ChartIdeal(PolyIdeal(ring, []), "affine_plane")


def test_classical_plane_blowup_chart(plane):
    ring = plane.ring
    x, y = ring.gens()
    bl = blowup_chart(plane, [x, y], 0)
    assert not bl.empty
    basis = bl.chart.ideal.groebner_basis()
    u = bl.chart.ring.var(bl.ratio_vars[1])
    xe = x.map_ring(bl.chart.ring)
    ye = y.map_ring(bl.chart.ring)
    assert basis == [ye - u * xe] or basis == [u * xe - ye]
    assert bl.pulled_back_center_principal()


def test_blowup_nonreduced_center_matches_reduced(plane):
    """Center (x^2, x*y) on the x^2-chart agrees with the (x, y)-center
    x-chart up to the unit x: same saturated chart ideal."""
    ring = plane.ring
    x, y = ring.gens()
    a = blowup_chart(plane, [x**2, x * y], 0)
    b = blowup_chart(plane, [x, y], 0)
    ga = a.chart.ideal.groebner_basis()
    gb = b.chart.ideal.groebner_basis()
    # same relation y = u x after saturation (ratio variables align)
    assert [str(p) for p in ga] == [str(p) for p in gb]


def test_blowup_zero_center_chart_is_empty():
    ring = PolyRing(QQ, ["x", "y"])
    x, y = ring.gens()
    base = ChartIdeal(PolyIdeal(ring, [x]), "line")
    bl = blowup_chart(base, [x, y], 0)  # f_k = x vanishes on V(x)
    assert bl.empty


def test_kill_t_torsion_examples():
    ring = PolyRing(QQ, ["x", "t"])
    x, t = ring.gens()
    c1 = ChartIdeal(PolyIdeal(ring, [t * x]), "tx")
    k1 = kill_t_torsion(c1)
    assert k1.ideal.groebner_basis() == [x]
    c2 = ChartIdeal(PolyIdeal(ring, [x]), "x")
    assert kill_t_torsion(c2).ideal.groebner_basis() == [x]
    c3 = ChartIdeal(PolyIdeal(ring, [t**2]), "t2")
    assert ideal_contains_one(kill_t_torsion(c3).ideal)


def test_kill_t_torsion_idempotent_and_monotone_corpus():
    for ideal in torsion_test_corpus():
        t = ideal.ring.var("t")
        once = saturate(ideal, t)
        twice = saturate(once, t)
        assert once.groebner_basis() == twice.groebner_basis()
        assert once.contains_ideal(ideal)


def test_diagonal_chart_data():
    for g in (1, 2, 3):
        data = diagonal_chart_ideals(g)
        assert data.product_identities_hold()
        for size in range(1, g + 1):
            assert data.minors_are_principal(size)


def test_diagonal_g1_explicit():
    data = diagonal_chart_ideals(1)
    PiN, PiNp = data.pi_matrices()
    ring = data.ring
    a0, a1, t = ring.gens()
    assert PiN[0][0] == a0
    assert PiNp[0][0] == a1


def test_fiber_census_counts():
    for g, expected in [(1, 1), (2, 5), (3, 12)]:
        census = sigma_fiber_freecount(g)
        assert census.free_count == expected
        assert census.free_count == g * (3 * g - 1) // 2


def test_fiber_census_log_structure():
    for g in (1, 2, 3):
        census = sigma_fiber_freecount(g)
        per_family = g * (g + 1) // 2
        fam = census.family_counts()
        assert fam == {1: per_family, 2: per_family, 3: per_family}
        eliminated = [e for e in census.log if e.action == "eliminated"]
        redundant = [e for e in census.log if e.action == "redundant"]
        # family 1 eliminates the closed upper triangle; families 2 and 3
        # eliminate strictly and verify their diagonals as redundant
        assert len(eliminated) == g * (3 * g - 1) // 2
        assert len(redundant) == 2 * g
        # eliminated + free = all pairing coordinates
        total_unknowns = 2 * g * g + g * (g - 1)
        assert len(eliminated) + census.free_count == total_unknowns


def test_fiber_census_free_variables():
    census = sigma_fiber_freecount(2)
    free = set(census.free_variables)
    assert free == {
        "JN_1_1_1",
        "JN_1_1_2",
        "JN_1_2_2",
        "J0_3_1_2",
        "JN_3_1_2",
    }


def test_census_groebner_crosscheck():
    assert census_groebner_crosscheck(1)
    assert census_groebner_crosscheck(2)


def _end_block_generators(g):
    """Reference: the end-block system BC = CB = t Id over QQ[B, C, t],
    built entry by entry with the coordinates of B, then of C, then t."""
    names = (
        [f"b{i}_{j}" for i in range(g) for j in range(g)]
        + [f"c{i}_{j}" for i in range(g) for j in range(g)]
        + ["t"]
    )
    ring = PolyRing(QQ, names)
    B = [[ring.var(f"b{i}_{j}") for j in range(g)] for i in range(g)]
    C = [[ring.var(f"c{i}_{j}") for j in range(g)] for i in range(g)]
    tid = polymat.identity(ring, g, ring.var("t"))
    gens = polymat.entries(polymat.matsub(polymat.matmul(B, C), tid))
    gens += polymat.entries(polymat.matsub(polymat.matmul(C, B), tid))
    return [p for p in gens if not p.is_zero()]


@pytest.mark.parametrize("g", [1, 2, 3])
def test_blowup_base_is_faltings_mu(g):
    """The blowup check's base, faltings_mu_ideal(g, 1), is the end-block
    system term for term and in order; at g = 1 the products BC and CB
    coincide and appear once."""
    reference = list(dict.fromkeys(_end_block_generators(g)))
    faltings = faltings_mu_ideal(g, 1)
    assert faltings.ring.nvars == 2 * g * g + 1
    assert faltings.ring.names[-1] == "t"
    assert [f.terms for f in faltings.generators] == [f.terms for f in reference]


def test_blowup_tower_principal_g2():
    ok, details = check_blowup_principal({"g": 2}, 0)
    assert ok
    assert details["nonempty_charts"] > 0
