import random

import pytest

from latmod.ideals import PolyIdeal, dimension, ideal_contains_one, jacobian, minors, saturate
from latmod.poly import PolyRing, QQ
from latmod.schemes import mu_ideal
from latmod.verify import dimension_growth_oracle


@pytest.fixture
def ring():
    return PolyRing(QQ, ["x", "y"])


def test_dimension_examples(ring):
    x, y = ring.gens()
    assert dimension(PolyIdeal(ring, [])) == 2
    assert dimension(PolyIdeal(ring, [x * y])) == 1
    assert dimension(PolyIdeal(ring, [x**2 + y**2 - 1])) == 1
    assert dimension(PolyIdeal(ring, [x, 1 - x])) == -1


def test_dimension_growth_oracle_corpus():
    """Groebner dimension vs brute-force point-count growth on 20 small
    monomial/binomial ideals.

    The base prime is chosen so every component is rational (the cubic
    cone splits into three lines only once cube roots of unity exist).
    """
    R2 = PolyRing(QQ, ["x", "y"])
    R3 = PolyRing(QQ, ["x", "y", "z"])
    x2, y2 = R2.gens()
    x3, y3, z3 = R3.gens()
    corpus = [
        (R2, [], 2),
        (R2, [x2], 2),
        (R2, [x2 * y2], 2),
        (R2, [x2, y2], 2),
        (R2, [x2**2], 2),
        (R2, [x2 - y2], 2),
        (R2, [x2 * y2 - y2], 2),
        (R2, [x2**2 * y2], 2),
        (R2, [x2**3 - y2**3], 7),
        (R2, [x2 * y2, x2**2], 2),
        (R3, [], 2),
        (R3, [x3], 2),
        (R3, [x3 * y3], 2),
        (R3, [x3, y3], 2),
        (R3, [x3 * y3 * z3], 2),
        (R3, [x3 - y3, y3 - z3], 2),
        (R3, [x3 * y3 - z3 * y3], 2),
        (R3, [x3**2, y3], 2),
        (R3, [x3 * z3, y3 * z3], 2),
        (R3, [x3 - y3], 2),
    ]
    assert len(corpus) == 20
    for ring, gens, p in corpus:
        I = PolyIdeal(ring, gens)
        d = dimension(I)
        oracle = dimension_growth_oracle(gens if gens else [ring.zero], p=p)
        if not gens:
            oracle = ring.nvars  # zero ideal: every point is a zero
        assert d == oracle, (gens, d, oracle)


def _brute_force_dimension(nvars, supports):
    """Largest variable subset (as a bitmask) containing no support."""
    return max(
        S.bit_count()
        for S in range(1 << nvars)
        if all(s & S != s for s in supports)
    )


def test_dimension_matches_brute_force_on_random_monomial_ideals():
    """A monomial ideal's dimension is the largest variable set that contains
    the support of none of its generators; every subset is tried."""
    rng = random.Random(19)
    for _ in range(400):
        nvars = rng.randint(1, 9)
        ring = PolyRing(QQ, [f"x{i}" for i in range(nvars)])
        xs = ring.gens()
        gens, supports = [], []
        for _ in range(rng.randint(1, 8)):
            support = rng.sample(range(nvars), rng.randint(1, min(4, nvars)))
            g = ring.one
            for i in support:
                g = g * xs[i] ** rng.randint(1, 3)
            gens.append(g)
            supports.append(sum(1 << i for i in support))
        expected = _brute_force_dimension(nvars, supports)
        assert dimension(PolyIdeal(ring, gens)) == expected, (nvars, gens)


@pytest.mark.parametrize(
    "spec, dim",
    [((2, 1, 2), 7), ((3, 1, 1), 8), ((3, 2, 1), 8), ((3, 1, 2), 15), ((3, 2, 2), 15), ((4, 2, 1), 13)],
)
def test_mu_dimensions(spec, dim):
    assert dimension(mu_ideal(*spec).ideal) == dim


def test_saturate_examples(ring):
    x, y = ring.gens()
    assert saturate(PolyIdeal(ring, [x * y]), x).groebner_basis() == [y]
    assert saturate(PolyIdeal(ring, [y]), x).groebner_basis() == [y]
    assert ideal_contains_one(saturate(PolyIdeal(ring, [x**2]), x))


def test_saturate_idempotent(ring):
    x, y = ring.gens()
    for gens in [[x * y], [x**2 * y - x], [y * (x - 1)], [x**3], [x * y - y**2]]:
        I = PolyIdeal(ring, gens)
        once = saturate(I, x)
        twice = saturate(once, x)
        assert once.groebner_basis() == twice.groebner_basis()


def test_minors_examples():
    R = PolyRing(QQ, ["x", "y", "z", "w"])
    x, y, z, w = R.gens()
    M = [[x, y], [z, w]]
    assert minors(M, 2) == [x * w - y * z]
    assert minors(M, 1) == [x, y, z, w]
    assert minors(M, 0) == [R.one]
    M23 = [[x, y, z], [y, z, w]]
    out = minors(M23, 2)
    assert len(out) == 3  # C(2,2) * C(3,2)
    with pytest.raises(ValueError):
        minors(M, 3)


def test_minors_deterministic_order():
    R = PolyRing(QQ, ["a", "b", "c", "d", "e", "f"])
    a, b, c, d, e, f = R.gens()
    M = [[a, b, c], [d, e, f]]
    out = minors(M, 2)
    assert out == [a * e - b * d, a * f - c * d, b * f - c * e]


def test_jacobian_examples():
    R = PolyRing(QQ, ["x", "y", "t"])
    x, y, t = R.gens()
    J = jacobian([x * y - t], ["x", "y", "t"])
    assert J == [[y, x, R.const(-1)]]
    assert jacobian([x**2], ["x"]) == [[2 * x]]
    assert jacobian([R.const(7)], ["x", "y"]) == [[R.zero, R.zero]]
