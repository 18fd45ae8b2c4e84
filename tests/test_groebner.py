import random

import pytest

from latmod.chart import ChartIdeal
from latmod.errors import ResourceLimitError
from latmod.ideals import PolyIdeal, ideal_contains_one, saturate
from latmod.poly import GF, PolyRing, QQ
from latmod.resolution import blowup_chart
from latmod.verify import membership_oracle


@pytest.fixture
def ring():
    return PolyRing(QQ, ["x", "y"])


def test_unit_ideal_from_x_and_1_minus_x(ring):
    x, y = ring.gens()
    I = PolyIdeal(ring, [x, 1 - x])
    assert I.groebner_basis() == [ring.one]
    assert ideal_contains_one(I)


def test_unit_ideal_xy_minus_1_and_x(ring):
    x, y = ring.gens()
    I = PolyIdeal(ring, [x * y - 1, x])
    assert ideal_contains_one(I)


def test_already_reduced(ring):
    x, _ = ring.gens()
    I = PolyIdeal(ring, [x**2])
    assert I.groebner_basis() == [x**2]


def test_groebner_caches_reduced_basis(ring):
    x, y = ring.gens()
    I = PolyIdeal(ring, [x * y - 1, y**2 - 1])
    basis = I.groebner_basis()
    assert basis and I.kernel_basis() is I.kernel_basis()
    # reduced: monic, no term divisible by another lead
    for g in basis:
        lead = max(g.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))
        assert lead[1] == 1


def test_buchberger_sample_block_vs_grevlex(ring):
    x, y = ring.gens()
    gens = [x**2 + y, x * y - 1]
    for order in ("grevlex", ("block", 1)):
        I = PolyIdeal(ring, gens, order)
        basis = I.groebner_basis()
        # every generator reduces to zero against the basis
        J = PolyIdeal(ring, basis, order)
        for g in gens:
            assert J.normal_form(g).is_zero()


def test_normal_form_membership_property_gf5():
    """normal_form(f*g + h) == normal_form(h) whenever f is in the ideal."""
    rng = random.Random(40411)
    R = PolyRing(GF(5), ["x", "y", "z", "w"])

    def random_poly(deg, nterms):
        f = R.zero
        for _ in range(nterms):
            e = [0] * 4
            for _ in range(rng.randrange(deg + 1)):
                e[rng.randrange(4)] += 1
            f = f + R.const(rng.randrange(1, 5)) * _mono(R, e)
        return f

    def _mono(R, e):
        m = R.one
        for name, k in zip(R.names, e):
            m = m * R.var(name) ** k
        return m

    for trial in range(12):
        gens = [random_poly(3, 3) for _ in range(rng.randrange(1, 4))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        I = PolyIdeal(R, gens)
        # f: explicit combination, so certainly in the ideal
        f = R.zero
        for g in gens:
            f = f + random_poly(2, 2) * g
        g2 = random_poly(2, 2)
        h = random_poly(3, 3)
        assert I.normal_form(f).is_zero()
        assert I.normal_form(f * g2 + h) == I.normal_form(h)


def test_membership_agrees_with_linear_algebra_oracle():
    rng = random.Random(90210)
    R = PolyRing(GF(5), ["x", "y", "z"])
    x, y, z = R.gens()
    gens = [x * y - z, y**2 - 1]
    I = PolyIdeal(R, gens)
    members = [x * (x * y - z) + (y**2 - 1), (x * y - z) * y, R.zero + (y**2 - 1)]
    for f in members:
        assert I.normal_form(f).is_zero()
        assert membership_oracle(f, gens, degree_bound=f.total_degree() + 2) is True
    non_members = [x, z**2, x * y]
    for f in non_members:
        assert not I.normal_form(f).is_zero()
        # one-sided oracle cannot certify membership for these
        assert membership_oracle(f, gens, degree_bound=6) is None


def test_pair_queue_resource_guard():
    """The cap set on an ideal also bounds its saturations and the
    saturation inside each blowup chart of it."""
    R = PolyRing(QQ, ["x", "y", "z"])
    x, y, z = R.gens()
    I = PolyIdeal(
        R,
        [x**3 - y * z + x, y**3 - x * z + y, z**3 - x * y + z, x * y * z - 1],
        pair_limit=2,
    )
    with pytest.raises(ResourceLimitError):
        I.groebner_basis()
    with pytest.raises(ResourceLimitError):
        saturate(I, x)
    with pytest.raises(ResourceLimitError):
        blowup_chart(ChartIdeal(I, "capped"), [x, y], 0)


def test_groebner_deterministic(ring):
    x, y = ring.gens()
    gens = [x**2 + y**2 - 1, x * y - 1]
    a = PolyIdeal(ring, gens).groebner_basis()
    b = PolyIdeal(ring, list(reversed(gens))).groebner_basis()
    assert a == b


@pytest.mark.parametrize("order", ["grevlex", ("block", 2), ("block", 1)])
def test_exponent_overflow_raises(order):
    """A product beyond the 16-bit exponent fields raises, never wraps:
    in a reduction, and in an S-polynomial, where the lcm of the leads
    x^10000*y and x*y^30000 fits but y^29999 times the tail y^10001 does not."""
    ring = PolyRing(QQ, ["x", "y", "z"])
    x, y, _ = ring.gens()
    I = PolyIdeal(ring, [x * y**30000 + y**30001], order=order)
    assert I.normal_form(x * y**32000) == -(y**32001)
    with pytest.raises(OverflowError):
        I.normal_form(x * y**32767)
    J = PolyIdeal(ring, [x**10000 * y + y**10001, x * y**30000], order=order)
    with pytest.raises(OverflowError):
        J.groebner_basis()


def test_lex_order_is_rejected(ring):
    """Only grevlex and block orders have a packed layout: a lex ideal
    raises instead of computing in another order."""
    x, y = ring.gens()
    with pytest.raises(ValueError, match="unknown monomial order"):
        PolyIdeal(ring, [x**2 + y, x * y - 1], "lex").groebner_basis()
