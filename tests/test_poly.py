from fractions import Fraction

import pytest

from latmod.poly import GF, PolyRing, QQ, Field

from polyeval import evaluate


@pytest.fixture
def ring():
    return PolyRing(QQ, ["x", "y", "t"])


def test_parse_print_roundtrip(ring):
    for text in [
        "3/2*x^2*y - 1",
        "x*y - t",
        "-x + 2*y - 3",
        "t^3",
        "0",
        "x^2 + 2*x*y + y^2",
    ]:
        f = ring.parse(text)
        assert ring.parse(str(f)) == f


def test_parse_parentheses(ring):
    assert ring.parse("(x + y)^2") == ring.parse("x^2 + 2*x*y + y^2")
    assert ring.parse("x*(y - t)") == ring.parse("x*y - x*t")


def test_parse_rejects_unknown_variable(ring):
    with pytest.raises(ValueError):
        ring.parse("z + 1")


def test_arithmetic(ring):
    x, y, t = ring.gens()
    assert (x + y) * (x - y) == x**2 - y**2
    assert (x + 1) ** 3 == x**3 + 3 * x**2 + 3 * x + 1
    assert x - x == ring.zero
    assert (x * y).total_degree() == 2


def test_no_zero_coefficients_stored(ring):
    x, y, _ = ring.gens()
    f = x + y - x
    assert all(c for c in f.terms.values())
    assert len(f.terms) == 1


def test_diff(ring):
    x, y, t = ring.gens()
    f = x * y - t
    assert f.diff("x") == y
    assert f.diff("y") == x
    assert f.diff("t") == ring.const(-1)
    assert (x**2).diff("x") == 2 * x
    assert ring.const(5).diff("x") == ring.zero


def test_subs(ring):
    x, y, t = ring.gens()
    f = x * y - t
    g = f.subs({"x": y, "y": y, "t": t})
    assert g == y**2 - t
    h = f.subs({"x": ring.const(2), "y": ring.const(3), "t": ring.var("t")})
    assert h == ring.const(6) - t


def test_evaluate(ring):
    f = ring.parse("x^2*y - t")
    assert evaluate(f, {"x": 2, "y": 3, "t": 5}) == Fraction(7)


def test_gf_p_coefficients():
    R = PolyRing(GF(5), ["x"])
    x = R.var("x")
    f = 3 * x + 4 * x
    assert f == 2 * x
    assert (x + 1) ** 5 == x**5 + 1  # Frobenius
    assert R.parse("3/2*x") == 4 * x  # 3 * inverse(2) = 3 * 3 = 9 = 4


def test_field_tags():
    assert Field.from_tag("QQ") is QQ
    assert Field.from_tag("GF(7)") is GF(7)
    with pytest.raises(ValueError):
        Field.from_tag("GF(6)")
    with pytest.raises(ValueError):
        GF(9)


def test_map_ring(ring):
    small = PolyRing(QQ, ["x", "y"])
    f = small.parse("x*y - 2")
    g = f.map_ring(ring)
    assert str(g) == str(f)
    assert g.ring == ring


@pytest.mark.parametrize("p", [2, 3])
def test_rational_with_denominator_divisible_by_p_has_no_image_in_gf_p(p):
    F = GF(p)
    assert F.coerce(Fraction(5, 7)) == 5 * pow(7, -1, p) % p
    assert F.coerce(Fraction(-4)) == -4 % p
    with pytest.raises(ValueError):
        F.coerce(Fraction(1, p))
    with pytest.raises(ValueError):
        F.coerce(Fraction(p + 1, 2 * p))
    R = PolyRing(QQ, ["x"])
    x = R.gens()[0]
    target = PolyRing(F, ["x"])
    assert (x / 5 + 1).map_ring(target) == target.parse(f"{pow(5, -1, p)}*x + 1")
    with pytest.raises(ValueError):
        (x / p + 1).map_ring(target)
