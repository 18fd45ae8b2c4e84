import random

import pytest

from latmod.ideals import (
    PolyIdeal,
    _scaled_terms,
    dimension,
    ideal_contains_one,
    jacobian,
    minors,
    saturate,
)
from latmod.packing import get_packing
from latmod.poly import GF, MultiPoly, PolyRing, QQ
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


def _saturate_through_multipolys(I, f):
    """I : f^infinity by the route through the monic MultiPoly basis: keep
    the elements of aux-degree 0, drop the aux exponent, pack again.
    Returns the kept polynomials, their packed terms and the whole
    elimination basis."""
    ring = I.ring
    ext = PolyRing(ring.field, ("ysat",) + ring.names)
    gens = [g.map_ring(ext) for g in I.generators]
    gens.append(ext.var("ysat") * f.map_ring(ext) - ext.one)
    basis = PolyIdeal(ext, gens, ("block", 1)).groebner_basis()
    kept = [
        MultiPoly(ring, {e[1:]: c for e, c in g.terms.items()})
        for g in basis
        if g.degree_in("ysat") <= 0
    ]
    pk = get_packing(ring.nvars, "grevlex")
    return kept, [_scaled_terms(g, pk)[0] for g in kept], basis


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
def test_saturate_keeps_the_packed_elimination_basis(field):
    # nine variables: the contraction's exponent fields span two
    # DivisorIndex chunks, so the block split lies past the first one
    ring = PolyRing(field, [f"x{i}" for i in range(9)])
    x = ring.gens()
    rng = random.Random(29)
    cases = [
        ([x[0] * x[8] - x[1] * x[7], x[8] * (x[2] - x[3]), x[8] ** 2 * x[4] - 2 * x[5]], x[8]),
        ([x[0] * x[1] - x[2] ** 2, x[0] * (x[3] - 3 * x[4]), x[0] * x[5] * x[6]], x[0]),
        ([x[6] * (x[7] ** 2 - x[8]), x[7] * (x[1] - x[2] * x[3])], x[6] * x[7]),
    ]
    for _ in range(4):
        gens = []
        for _ in range(3):
            a, b = (
                MultiPoly(ring, {tuple(rng.randint(0, 1) for _ in range(9)): 1})
                for _ in range(2)
            )
            gens.append(a - rng.choice([1, 2, 3]) * b)
        cases.append((gens, x[rng.randrange(9)]))
    aux_bearing = 0
    for gens, f in cases:
        I = PolyIdeal(ring, gens)
        kept, packed, basis = _saturate_through_multipolys(I, f)
        aux_bearing += sum(g.degree_in("ysat") > 0 for g in basis)
        out = saturate(I, f)
        assert out.kernel_basis() == packed
        assert [list(g.terms.items()) for g in out.generators] == [
            list(g.terms.items()) for g in kept
        ]
        assert out.order == "grevlex" and out.groebner_basis() == kept
    assert aux_bearing >= len(cases)


def test_trailing_key_is_the_grevlex_key_of_the_trailing_block():
    block = get_packing(10, ("block", 1))
    grevlex = get_packing(9, "grevlex")
    rng = random.Random(7)
    for _ in range(50):
        e = tuple(rng.randint(0, 5) for _ in range(9))
        assert block.trailing_key(block.pack((0,) + e)) == grevlex.pack(e)
        assert block.trailing_key(block.pack((rng.randint(1, 5),) + e)) == -1
    block3 = get_packing(5, ("block", 3))
    assert block3.trailing_key(block3.pack((0, 0, 0, 2, 1))) == get_packing(2, "grevlex").pack((2, 1))
    assert block3.trailing_key(block3.pack((0, 1, 0, 2, 1))) == -1
    with pytest.raises(ValueError):
        grevlex.trailing_key(grevlex.pack((0,) * 9))


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
