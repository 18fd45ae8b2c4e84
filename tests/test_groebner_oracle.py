"""Reduced Groebner bases against sympy.groebner, which shares no code with
the kernel: the cyclic-product ideals, seeded random small ideals over
QQ and GF(p) in grevlex and two block orders, and hypothesis-generated
grevlex ideals."""

import random

import pytest

from latmod import KERNEL_KIND
from latmod.ideals import PolyIdeal
from latmod.poly import GF, MultiPoly, PolyRing, QQ
from latmod.schemes import mu_ideal

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from sympy.polys.orderings import ProductOrder, grevlex  # noqa: E402

SYMPY_ORDERS = {
    "grevlex": "grevlex",
    ("block", 1): ProductOrder((grevlex, lambda m: m[:1]), (grevlex, lambda m: m[1:])),
    ("block", 2): ProductOrder((grevlex, lambda m: m[:2]), (grevlex, lambda m: m[2:])),
}


def monic_set(polys, p):
    """The polynomials made monic, as a set of hashable term tuples."""
    out = set()
    for f in polys:
        terms = f.monic().terms()
        out.add(tuple((m, int(c) % p if p else c) for m, c in terms))
    return out


def oracle_check(ideal: PolyIdeal):
    ring = ideal.ring
    p = ring.field.p
    gens = sympy.symbols(ring.names)
    opts = {"modulus": p} if p else {"domain": "QQ"}

    def to_sympy(f: MultiPoly):
        return sympy.Poly.from_dict(
            {e: int(c) if p else sympy.Rational(c.numerator, c.denominator)
             for e, c in f.terms.items()},
            *gens, **opts,
        )

    ours = [to_sympy(g) for g in ideal.groebner_basis()]
    theirs = sympy.groebner(
        [to_sympy(f) for f in ideal.generators], *gens,
        order=SYMPY_ORDERS[ideal.order], **opts,
    ).polys
    assert len(ours) == len(theirs)
    assert monic_set(ours, p) == monic_set(theirs, p)


def test_kernel_kind_reported():
    assert KERNEL_KIND == "python"


@pytest.mark.parametrize("n,r,N", [(2, 1, 2), (3, 1, 1), (3, 2, 1)])
def test_mu_ideal_matches_sympy(n, r, N):
    oracle_check(mu_ideal(n, r, N).ideal)


def random_poly(rng, ring, nterms=4, maxdeg=3):
    p = ring.field.p
    terms = {}
    for _ in range(nterms):
        e = [0] * ring.nvars
        for _ in range(rng.randrange(maxdeg + 1)):
            e[rng.randrange(ring.nvars)] += 1
        c = rng.randrange(1, p) if p else rng.randrange(-5, 6) or 1
        terms[tuple(e)] = terms.get(tuple(e), 0) + c
    return MultiPoly(ring, {e: ring.field.coerce(c) for e, c in terms.items()})


@pytest.mark.parametrize(
    "p,order",
    [(0, "grevlex"), (5, "grevlex"), (5, ("block", 1)), (0, ("block", 2)), (5, ("block", 2))],
)
def test_random_ideals_match_sympy(p, order):
    ring = PolyRing(GF(p) if p else QQ, ["w", "x", "y", "z"])
    rng = random.Random(2029)
    checked = 0
    for _ in range(8):
        gens = [random_poly(rng, ring) for _ in range(rng.randrange(1, 4))]
        gens = [g for g in gens if not g.is_zero()]
        if gens:
            oracle_check(PolyIdeal(ring, gens, order=order))
            checked += 1
    assert checked


@st.composite
def small_ideals(draw, p):
    """At most 3 generators of degree at most 3 in 2 or 3 variables."""
    ring = PolyRing(GF(p) if p else QQ, ["x", "y", "z"][: draw(st.integers(2, 3))])
    monomials = st.tuples(*[st.integers(0, 3)] * ring.nvars).filter(lambda e: sum(e) <= 3)
    coeffs = st.integers(1, p - 1) if p else st.integers(-4, 4).filter(bool)
    gens = draw(st.lists(
        st.dictionaries(monomials, coeffs, min_size=1, max_size=4), min_size=1, max_size=3,
    ))
    return PolyIdeal(
        ring, [MultiPoly(ring, {e: ring.field.coerce(c) for e, c in g.items()}) for g in gens]
    )


@pytest.mark.parametrize("p", [0, 5])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_generated_ideals_match_sympy(p, data):
    oracle_check(data.draw(small_ideals(p)))
