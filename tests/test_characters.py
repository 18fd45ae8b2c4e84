import random

import pytest

from latmod.characters import (
    character_data,
    chi_pairing,
    chi_vector,
    kernel_is_torus_check,
    open_cell_point,
    quotient_by_subtorus_check,
    _primitivity_in_lattice,
)
from latmod.gfq import mat_inv, mat_rank
from latmod.indexset import IndexElem
from latmod.intlinalg import saturated_kernel
from latmod.poly import GF

from polyeval import evaluate


def test_center_embedding_rows():
    data = character_data(2, 1, 1)
    s1 = IndexElem(((0, 0), (2, 0)))
    s2 = IndexElem(((2, 0), (0, 0)))
    C = data.center_embedding
    assert list(C.row(data.S.index(s1))) == [1, -2]
    assert list(C.row(data.S.index(s2))) == [1, 0]


def test_chi_vector_2_1_1():
    data = character_data(2, 1, 1)
    chi = chi_vector(data)
    support = {data.S[i]: v for i, v in enumerate(chi) if v}
    assert support == {
        IndexElem(((1, 0), (1, 0))): 2,
        IndexElem(((0, 0), (2, 0))): -1,
        IndexElem(((2, 0), (0, 0))): -1,
    }


def test_chi_coordinate_sum_zero():
    for n, r, N in [(2, 1, 1), (3, 1, 2), (4, 2, 2)]:
        assert sum(chi_vector(character_data(n, r, N))) == 0


def test_chi_support_3_1_1():
    chi = chi_vector(character_data(3, 1, 1))
    assert sum(1 for v in chi if v) == 4


def test_chi_annihilates_center_embedding():
    for n in (2, 3, 4):
        for r in range(1, n):
            for N in (1, 2, 3):
                data = character_data(n, r, N)
                assert chi_pairing(data) == [0] * (N + 1)


def test_kernel_is_torus_small_specs():
    for n, r, N in [(2, 1, 1), (3, 2, 1), (3, 1, 2), (2, 1, 2)]:
        cert = kernel_is_torus_check(character_data(n, r, N))
        assert cert.verdict
        assert all(d in (0, 1) for d in cert.invariants)


def test_doubled_character_is_not_primitive():
    data = character_data(2, 1, 1)
    basis = saturated_kernel(data.center_embedding.transpose())
    doubled = tuple(2 * c for c in data.chi)
    cert = _primitivity_in_lattice(basis, doubled)
    assert not cert.verdict


def test_quotient_by_subtorus():
    for n, r, N in [(2, 1, 1), (2, 1, 2), (3, 1, 1)]:
        cert = quotient_by_subtorus_check(character_data(n, r, N))
        assert cert.verdict


def test_chi_kills_each_subtorus_relation():
    """chi evaluated against each relation row is 1 - 1 = 0 per factor."""
    data = character_data(3, 1, 2)
    R = data.subtorus_relations
    for i in range(R.rows):
        row = R.row(i)
        # each row is e_pi - e_delta: the character chi pairs integrally
        # and the defining relation lambda_pi = lambda_delta kills it
        assert sum(row) == 0


def test_open_cell_scalar_case():
    data = character_data(2, 1, 1)
    F = GF(7)
    gs = [[[1, 0], [0, 1]] for _ in range(2)]
    lam = {data.pi[0]: 3, data.delta[0]: 1, data.pi[1]: 5, data.delta[1]: 1}
    # pi_0 == pi_1 for n = 2, so the shared key gets the last write; use
    # distinct ratios via delta instead
    lam = {data.pi[0]: 3, data.delta[0]: 1, data.delta[1]: 2}
    lam[data.pi[1]] = lam[data.pi[0]]
    Pi, t = open_cell_point(data, gs, lam, F)
    r0 = F.div(3, 1)
    r1 = F.div(3, 2)
    assert Pi[0] == [[r0, 0], [0, r0]]
    assert Pi[1] == [[r1, 0], [0, r1]]
    assert t == F.mul(r0, r1)


def test_open_cell_random_gf7_satisfies_mu():
    rng = random.Random(42)
    data = character_data(2, 1, 1)
    F = GF(7)

    def rand_parabolic():
        while True:
            m = [[rng.randrange(7) for _ in range(2)] for _ in range(2)]
            m[1][0] = 0
            if m[0][0] and m[1][1]:
                return m

    gs = [rand_parabolic() for _ in range(2)]
    lam = {}
    for i in range(2):
        lam[data.pi[i]] = rng.randrange(1, 7)
        lam[data.delta[i]] = rng.randrange(1, 7)
    Pi, t = open_cell_point(data, gs, lam, F)
    # generators of the cyclic-product ideal vanish at the point
    from latmod.schemes import mu_ideal

    mu = mu_ideal(2, 1, 1, GF(7))
    point = {"t": t}
    for i in range(2):
        for a in range(2):
            for b in range(2):
                if not (a == 1 and b == 0):
                    point[f"Pi{i}_{a + 1}_{b + 1}"] = Pi[i][a][b]
    for g in mu.generators:
        assert evaluate(g, point) == 0


def test_open_cell_rescaling_invariance_numeric():
    rng = random.Random(7)
    data = character_data(3, 1, 1)
    F = GF(5)

    def rand_parabolic():
        while True:
            m = [[rng.randrange(5) for _ in range(3)] for _ in range(3)]
            for i in range(1, 3):
                m[i][0] = 0
            if mat_inv(m, F) is not None:
                return m

    gs = [rand_parabolic() for _ in range(2)]
    lam = {}
    for i in range(2):
        lam[data.pi[i]] = rng.randrange(1, 5)
        lam[data.delta[i]] = rng.randrange(1, 5)
    Pi, t = open_cell_point(data, gs, lam, F)
    unit = 3
    lam2 = dict(lam)
    lam2[data.pi[0]] = F.mul(lam[data.pi[0]], unit)
    lam2[data.delta[0]] = F.mul(lam[data.delta[0]], unit)
    Pi2, t2 = open_cell_point(data, gs, lam2, F)
    assert Pi == Pi2 and t == t2


def test_open_cell_minor_nonvanishing():
    """Each output matrix is invertible, so every minor size has a
    nonzero representative."""
    rng = random.Random(321)
    data = character_data(3, 2, 1)
    F = GF(5)

    def rand_parabolic():
        while True:
            m = [[rng.randrange(5) for _ in range(3)] for _ in range(3)]
            m[2][0] = 0
            m[2][1] = 0
            if mat_inv(m, F) is not None:
                return m

    gs = [rand_parabolic() for _ in range(2)]
    lam = {}
    for i in range(2):
        lam[data.pi[i]] = rng.randrange(1, 5)
        lam[data.delta[i]] = rng.randrange(1, 5)
    Pi, _ = open_cell_point(data, gs, lam, F)
    for m in Pi:
        assert mat_rank(m, F) == 3


def test_open_cell_rejects_singular():
    data = character_data(2, 1, 1)
    F = GF(5)
    gs = [[[0, 0], [0, 0]], [[1, 0], [0, 1]]]
    lam = {data.pi[0]: 1, data.delta[0]: 1, data.delta[1]: 1}
    lam[data.pi[1]] = 1
    with pytest.raises(ValueError):
        open_cell_point(data, gs, lam, F)
