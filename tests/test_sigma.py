from latmod.ideals import ideal_contains_one
from latmod.poly import GF
from latmod.schemes import j_matrix, sigma_ideal

from polyeval import evaluate


def test_sigma_g1_n1_constituents():
    sg = sigma_ideal(1, 1)
    names = sg.ring.names
    assert "J0_1_1_1" in names and "JN_1_1_1" in names
    assert "ydet0" in names and "ydetN" in names
    # mu part (4) + nonzero adjointness entries (3) + two det inverses
    assert len(sg.generators) == 9
    bilinear = [
        g
        for g in sg.generators
        if any(v.startswith("J") for v in g.support_vars())
        and not any(v.startswith("ydet") for v in g.support_vars())
    ]
    assert len(bilinear) == 3
    for g in bilinear:
        assert g.total_degree() == 2


def test_sigma_adjointness_upper_left_vanishes():
    """The (1,1) block entry of the adjointness matrix is identically 0
    (both pairings kill the isotropic top block), so it never appears."""
    sg = sigma_ideal(1, 1)
    ring = sg.ring
    # there is no generator supported only on {Pi*, J*} of the shape
    # Pi0_1_1 * JN_1_1_1 alone... concretely: 3 bilinear entries remain
    # out of the 4 matrix positions.
    assert len(sg.generators) == 9


def test_sigma_g2_antisymmetric_block_sizes():
    sg = sigma_ideal(2, 1)
    names = set(sg.ring.names)
    # J3 blocks: g(g-1)/2 = 1 strictly-upper variable per end slot
    assert "J0_3_1_2" in names and "JN_3_1_2" in names
    assert "J0_3_2_1" not in names and "J0_3_1_1" not in names
    # J1 blocks are full g x g
    for a in (1, 2):
        for b in (1, 2):
            assert f"J0_1_{a}_{b}" in names and f"JN_1_{a}_{b}" in names


def test_sigma_scalar_point_satisfies_generators():
    """J[0] = J[N] = J (the constant pairing) with the scalar solution
    Pi_i = u Id, t = u^2 satisfies all generators at g = 1."""
    sg = sigma_ideal(1, 1, GF(7))
    J = j_matrix(1)
    point = {}
    u = 3
    for i in range(2):
        point[f"Pi{i}_1_1"] = u
        point[f"Pi{i}_1_2"] = 0
        point[f"Pi{i}_2_2"] = u
    point["t"] = (u * u) % 7
    point["J0_1_1_1"] = J[0, 1] % 7  # upper-right block entry
    point["JN_1_1_1"] = J[0, 1] % 7
    det = (J[0, 1] * J[1, 0] * -1) % 7  # det of [[0, j],[-j, 0]] = j^2
    det = (J[0, 1] * J[0, 1]) % 7
    point["ydet0"] = pow(det, 5, 7)
    point["ydetN"] = pow(det, 5, 7)
    for g in sg.generators:
        assert evaluate(g, point) == 0, str(g)


def test_sigma_not_unit_ideal():
    assert not ideal_contains_one(sigma_ideal(1, 1).ideal)
