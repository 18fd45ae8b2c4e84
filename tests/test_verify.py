import json
import math
import os
from collections import Counter
from fractions import Fraction
import tracemalloc
from itertools import combinations, islice, product

import pytest
from hypothesis import given, settings, strategies as st

from latmod.chainnf import point_in_mu_chart
from latmod.chains import ChainSpec, ParabolicShape
from latmod.chart import ChartIdeal
from latmod.gfq import SmallField, mat_mul
from latmod.ideals import PolyIdeal
from latmod.intlinalg import IntMatrix, snf
from latmod.poly import GF, MultiPoly, PolyRing, QQ
from latmod.schemes import mu_ideal
from latmod.suite import _mu_chart_points, default_config
from latmod.verify import (
    _minor_candidates,
    chain_subspace_count,
    count_points,
    count_points_small_field,
    dimension_growth_oracle,
    enumerate_points,
    generic_fiber_smooth_check,
    glued_local_model_count,
    smooth_check,
    subspaces_of,
)

from snfcheck import snf_holds

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "derived_values.json")


def _run_oracle(name, params):
    if name == "s_set_product_filter":
        n, r, N = params["n"], params["r"], params["N"]
        slots = 2 * (N + 1)
        return sum(
            1
            for tup in product(range(n + 1), repeat=slots)
            if sum(tup) == n and sum(tup[0::2]) >= r
        )
    if name == "subspace_chain_enumeration":
        spec = ChainSpec(params["n"], params["r"], params["N"], tuple(params["d"]))
        return chain_subspace_count(spec, params["q"], params["tau"])
    if name == "point_count_growth":
        mu = mu_ideal(params["n"], params["r"], params["N"])
        return dimension_growth_oracle(list(mu.generators), p=params["p"])
    if name == "unimodular_witness_product":
        A = IntMatrix.from_rows(params["rows"])
        res = snf(A)
        assert snf_holds(res, A)
        return list(res.invariants)
    raise ValueError(f"unknown oracle {name}")


def test_derived_fixtures_recomputed_by_oracles():
    """Each frozen derived value is recomputed by its named oracle."""
    with open(FIXTURES) as fh:
        fixtures = json.load(fh)
    assert fixtures, "fixture file must not be empty"
    for key, entry in fixtures.items():
        recomputed = _run_oracle(entry["oracle"], entry["params"])
        assert recomputed == entry["value"], (key, recomputed, entry["value"])


def test_smooth_check_examples():
    R = PolyRing(QQ, ["x", "y", "t"])
    x, y, t = R.gens()
    smooth = smooth_check(ChartIdeal(PolyIdeal(R, [x * y - t]), "graph"), 1)
    assert smooth.verdict
    R2 = PolyRing(QQ, ["x", "y"])
    x2, y2 = R2.gens()
    node = smooth_check(ChartIdeal(PolyIdeal(R2, [x2 * y2]), "node"), 1)
    assert not node.verdict
    assert node.exhaustive  # false verdicts only after exhausting minors


def test_smooth_check_stable_under_variable_permutation():
    R = PolyRing(QQ, ["x", "y"])
    x, y = R.gens()
    Rp = PolyRing(QQ, ["y", "x"])
    f = x**2 + y**2 - 1
    fp = f.map_ring(Rp)
    a = smooth_check(ChartIdeal(PolyIdeal(R, [f]), "circle"), 1)
    b = smooth_check(ChartIdeal(PolyIdeal(Rp, [fp]), "circle_perm"), 1)
    assert a.verdict == b.verdict == True  # noqa: E712
    g = x * y
    gp = g.map_ring(Rp)
    c = smooth_check(ChartIdeal(PolyIdeal(R, [g]), "n1"), 1)
    d = smooth_check(ChartIdeal(PolyIdeal(Rp, [gp]), "n2"), 1)
    assert c.verdict == d.verdict == False  # noqa: E712


def test_smooth_check_stable_under_unit_scaling():
    R = PolyRing(QQ, ["x", "y"])
    x, y = R.gens()
    for f in [x**2 + y**2 - 1, x * y]:
        a = smooth_check(ChartIdeal(PolyIdeal(R, [f]), "a"), 1)
        b = smooth_check(ChartIdeal(PolyIdeal(R, [f * 7]), "b"), 1)
        c = smooth_check(ChartIdeal(PolyIdeal(R, [f / 3]), "c"), 1)
        assert a.verdict == b.verdict == c.verdict


def test_generic_fiber_unit_when_t_in_ideal():
    R = PolyRing(QQ, ["x", "t"])
    x, t = R.gens()
    chart = ChartIdeal(PolyIdeal(R, [t]), "special_fiber_only")
    cert, dim = generic_fiber_smooth_check(chart)
    assert cert.verdict and dim == -1  # empty after inversion, reported


def test_mu_generic_fiber_smooth_dimension_4():
    cert, dim = generic_fiber_smooth_check(mu_ideal(2, 1, 1))
    assert cert.verdict
    assert dim == 4


def test_count_points_empty_chart():
    R = PolyRing(QQ, ["x", "t"])
    x, t = R.gens()
    chart = ChartIdeal(PolyIdeal(R, [x, x - 1]), "empty")
    assert count_points(chart, 2, 0).count == 0


def test_count_points_respects_inverses():
    R = PolyRing(QQ, ["x", "y", "t"])
    x, y, t = R.gens()
    chart = ChartIdeal(
        PolyIdeal(R, [x * y - 1]), "hyperbola", inverses=(("y", x),)
    )
    # y is determined as 1/x; coordinates reduce to x with x != 0
    rep = count_points(chart, 5, 0)
    assert rep.count == 4
    assert rep.coords == ("x",)


def test_count_points_refuses_beyond_bound():
    R = PolyRing(QQ, [f"x{i}" for i in range(13)] + ["t"])
    chart = ChartIdeal(PolyIdeal(R, []), "big")
    with pytest.raises(ValueError):
        count_points(chart, 2, 0)


def test_count_points_maps_fraction_coefficients_into_the_field():
    R = PolyRing(QQ, ["x", "t"])
    x, t = R.gens()
    # 1/2 = 3 in F_5, so 3x + 1 = 0 has the one root x = 3
    assert count_points(ChartIdeal(PolyIdeal(R, [x / 2 + 1]), "half"), 5, 0).count == 1
    with pytest.raises(ValueError):
        count_points(ChartIdeal(PolyIdeal(R, [x / 5 + 1]), "fifth"), 5, 0)
    with pytest.raises(ValueError):
        count_points_small_field([x / 2 + t], SmallField(2, 2))


def _embed(c, p):
    c = Fraction(c)
    return c.numerator * pow(c.denominator, -1, p) % p


def _value(f, point, sf):
    acc = 0
    for e, c in f.terms.items():
        v = _embed(c, sf.p)
        for name, k in zip(f.ring.names, e):
            v = sf.mul(v, sf.pow(point[name], k))
        acc = sf.add(acc, v)
    return acc


def _brute_force_points(gens, names, sf, fixed):
    """Points of F_q^names in lexicographic order, with the fixed values
    added, where every generator vanishes, found by trying every point."""
    out = []
    for values in product(range(sf.q), repeat=len(names)):
        point = dict(zip(names, values), **fixed)
        if all(_value(g, point, sf) == 0 for g in gens):
            out.append(values)
    return out


@st.composite
def _polys(draw, ring, names, p):
    """A polynomial in ``names`` of degree at most 2 in each, with up to
    three terms whose Fraction coefficients have denominators prime to p;
    the empty dictionary gives the zero polynomial."""
    positions = [ring.index[n] for n in names]
    exps = st.tuples(*[st.integers(0, 2)] * len(names))
    coeffs = st.builds(
        Fraction, st.integers(-3, 3), st.integers(1, 6).filter(lambda d: d % p)
    )
    terms = {}
    for e, c in draw(st.dictionaries(exps, coeffs, max_size=3)).items():
        full = [0] * ring.nvars
        for i, k in zip(positions, e):
            full[i] = k
        terms[tuple(full)] = c
    return MultiPoly(ring, terms)


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_count_points_small_field_matches_brute_force(p, k, data):
    sf = SmallField(p, k)
    names = ["x", "y", "z"][: data.draw(st.integers(1, 3 if sf.q <= 5 else 2))]
    R = PolyRing(QQ, names)
    gens = data.draw(st.lists(_polys(R, names, p), min_size=1, max_size=3))
    points = _brute_force_points(gens, names, sf, {})
    assert count_points_small_field(gens, sf) == len(points)
    assert list(enumerate_points(gens, [], names, sf, {})) == points


@pytest.mark.parametrize("q", [2, 3, 5])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_count_points_matches_brute_force_over_chart_and_inverses(q, data):
    """The chart count with t fixed equals a brute-force count over every
    coordinate and every inverse auxiliary y, each with its relation
    y*f - 1 as a generator."""
    coords = ["x", "y"][: data.draw(st.integers(1, 2))]
    aux = ["u", "v"][: data.draw(st.integers(0, 2))]
    R = PolyRing(QQ, coords + aux + ["t"])
    inverted = [data.draw(_polys(R, coords + ["t"], q)) for _ in aux]
    plain = data.draw(st.lists(_polys(R, coords + ["t"], q), max_size=2))
    gens = plain + [R.var(a) * f - 1 for a, f in zip(aux, inverted)]
    tau = data.draw(st.integers(-q, 2 * q))
    chart = ChartIdeal(PolyIdeal(R, gens), "drawn", inverses=tuple(zip(aux, inverted)))
    rep = count_points(chart, q, tau)
    assert rep.coords == tuple(coords)
    assert rep.count == len(
        _brute_force_points(gens, coords + aux, SmallField(q, 1), {"t": tau % q})
    )


def _exhaustive_shape_walk(spec, q):
    """Every shape assignment for every tau, as (values, mats, tau), with
    values in the order of the mu ring's Pi coordinates: the exhaustive
    reference for the pruned enumeration."""
    positions = ParabolicShape(spec.n, spec.r).positions()
    width = len(positions)
    for tau in range(q):
        for values in product(range(q), repeat=width * (spec.N + 1)):
            mats = []
            for i in range(spec.N + 1):
                m = [[0] * spec.n for _ in range(spec.n)]
                for k, (a, b) in enumerate(positions):
                    m[a][b] = values[i * width + k]
                mats.append(m)
            yield values, mats, tau


def _cyclic_products_equal(mats, tau, field):
    n, count = len(mats[0]), len(mats)
    target = [[tau if i == j else 0 for j in range(n)] for i in range(n)]
    for j in range(count):
        prod = mats[j]
        for k in range(1, count):
            prod = mat_mul(prod, mats[(j + k) % count], field)
        if prod != target:
            return False
    return True


def _mats_key(mats):
    return tuple(tuple(row) for m in mats for row in m)


@pytest.mark.parametrize(
    "spec,q",
    [
        (ChainSpec(2, 1, 1, (1, 1)), 2),
        (ChainSpec(2, 1, 1, (1, 1)), 3),
        (ChainSpec(3, 1, 1, (1, 2)), 2),
    ],
)
def test_mu_chart_points_match_exhaustive_walk(spec, q):
    """The pruned enumeration of mu with t = tau yields exactly the shape
    assignments whose cyclic products are tau * Id, and the chart census
    built on it yields exactly the (point, tau) pairs of the chart locus."""
    field = GF(q)
    on_mu, in_chart = set(), set()
    for values, mats, tau in _exhaustive_shape_walk(spec, q):
        if _cyclic_products_equal(mats, tau, field):
            on_mu.add((values, tau))
            # the chart locus lies on mu: point_in_mu_chart tests the
            # products too, so the assignments off mu need no call
            if point_in_mu_chart(spec, mats, tau, field):
                in_chart.add((_mats_key(mats), tau))
    mu = mu_ideal(spec.n, spec.r, spec.N)
    coords = [v for v in mu.ring.names if v != "t"]
    assert on_mu == {
        (values, tau)
        for tau in range(q)
        for values in enumerate_points(
            mu.generators, [], coords, SmallField(q, 1), {"t": tau}
        )
    }
    assert in_chart == {(_mats_key(m), tau) for m, tau in _mu_chart_points(spec, q)}


def _census_specs():
    for entry in default_config()["checks"]:
        if entry["name"] == "chain_census":
            p = entry["params"]
            yield ChainSpec(p["n"], p["r"], p["N"], tuple(p["d"])), p["q"]


@pytest.mark.parametrize("spec,q", list(_census_specs()))
def test_mu_chart_points_equal_the_full_chart_test(spec, q):
    """Testing the enumerated zeros of mu for the rank bounds alone keeps
    exactly the points, in the same order, that the full chart test
    (shape, cyclic products and rank bounds) keeps."""
    mu = mu_ideal(spec.n, spec.r, spec.N)
    coords = [v for v in mu.ring.names if v != "t"]
    positions = ParabolicShape(spec.n, spec.r).positions()
    width = len(positions)
    field = GF(q)
    want = []
    for tau in range(q):
        for values in enumerate_points(mu.generators, [], coords, SmallField(q, 1), {"t": tau}):
            mats = []
            for i in range(spec.N + 1):
                m = [[0] * spec.n for _ in range(spec.n)]
                for k, (a, b) in enumerate(positions):
                    m[a][b] = values[i * width + k]
                mats.append(m)
            if point_in_mu_chart(spec, mats, tau, field):
                want.append((mats, tau))
    assert list(_mu_chart_points(spec, q)) == want


def _gl_order(m, q):
    return math.prod(q**m - q**i for i in range(m))


@pytest.mark.parametrize(
    "spec,q,per_unit_tau",
    [
        (ChainSpec(2, 1, 1, (1, 1)), 3, 12),
        (ChainSpec(3, 1, 1, (1, 2)), 2, 24),
        (ChainSpec(3, 1, 1, (1, 2)), 3, 864),
    ],
)
def test_mu_chart_points_unit_fibres_closed_form(spec, q, per_unit_tau):
    """For tau a unit every slot is invertible and Pi_N is determined by
    the others, so each unit fibre has |P(F_q)|^N chart points, with
    |P(F_q)| = q^(r(n-r)) |GL_r(F_q)| |GL_(n-r)(F_q)|."""
    n, r = spec.n, spec.r
    parabolic = q ** (r * (n - r)) * _gl_order(r, q) * _gl_order(n - r, q)
    assert parabolic**spec.N == per_unit_tau
    counts = Counter(tau for _, tau in _mu_chart_points(spec, q))
    assert all(counts[tau] == per_unit_tau for tau in range(1, q))


def test_mu_chart_count_matches_normal_form_success_census():
    """count_points on a fixed minor chart equals the number of census
    points on that chart, and every one of them admits a normal form."""
    from latmod.chainnf import chain_normal_form
    from latmod.schemes import mu_chart_ideal

    spec = ChainSpec(2, 1, 1, (1, 1))
    chart = mu_chart_ideal(spec)  # inverts the (1,2) entry of each slot
    field = GF(2)
    affine = count_points(chart, 2, 0).count
    census = 0
    for point, tau in _mu_chart_points(spec, 2):
        if tau != 0:
            continue
        if point[0][0][1] and point[1][0][1]:  # the inverted minors
            census += 1
            chain_normal_form(spec, point, 0, field)  # must succeed
    assert affine == census


def test_subspace_enumeration_counts():
    # Gaussian binomials: [n choose r]_q
    assert len(subspaces_of(2, 1, 2)) == 3
    assert len(subspaces_of(3, 1, 2)) == 7
    assert len(subspaces_of(3, 1, 3)) == 13
    assert len(subspaces_of(4, 2, 2)) == 35


GLUED_SPECS = [
    (2, 1, 1, (1, 1)),
    (3, 1, 1, (1, 2)),
    (3, 1, 1, (2, 1)),
    (3, 2, 1, (1, 2)),
    (3, 1, 2, (1, 1, 1)),
    (3, 2, 2, (1, 1, 1)),
]
# the recorded special-fibre values of (2,1,1,(1,1)): two lines meeting at a point
GLUED_PINNED = {((2, 1, 1, (1, 1)), 2, 0): 5, ((2, 1, 1, (1, 1)), 3, 0): 7}


@pytest.mark.parametrize(
    "spec,q,tau",
    [
        pytest.param(spec, q, tau, id="n{}r{}N{}d{}-q{}-t{}".format(
            *spec[:3], "".join(map(str, spec[3])), q, tau))
        for spec in GLUED_SPECS
        for q in (2, 3)
        for tau in range(q)
    ],
)
def test_glued_equals_direct(spec, q, tau):
    """Chart gluing with ownership vs direct enumeration of subspace chains."""
    glued = glued_local_model_count(ChainSpec(*spec), q, tau)
    assert glued == chain_subspace_count(ChainSpec(*spec), q, tau)
    assert glued == GLUED_PINNED.get((spec, q, tau), glued)


def test_glued_count_n4_special_fibre():
    """(4,1,3,(1,1,1,1)) over F_2 at t = 0: 4q^3 + 6q^2 + 4q + 1 points."""
    q = 2
    count = glued_local_model_count(ChainSpec(4, 1, 3, (1, 1, 1, 1)), q, 0)
    assert count == 4 * q**3 + 6 * q**2 + 4 * q + 1 == 65


def reference_minor_candidates(nrows, ncols, c, hints):
    """The earlier three-phase generator: it lists every row and column
    c-subset and keeps a set of every candidate yielded."""
    seen = set()
    if hints:
        for rows, cols in hints:
            key = (tuple(rows), tuple(cols))
            if key not in seen:
                seen.add(key)
                yield key
    row_subsets = list(combinations(range(nrows), c))
    col_subsets = list(combinations(range(ncols), c))
    for i, rows in enumerate(row_subsets):
        cols = col_subsets[i % len(col_subsets)]
        key = (rows, cols)
        if key not in seen:
            seen.add(key)
            yield key
    for rows in row_subsets:
        for cols in col_subsets:
            key = (rows, cols)
            if key not in seen:
                seen.add(key)
                yield key


def _hint_cases(nrows, ncols, c):
    """No hints; one lattice pair given three times; the first two stride
    pairs; and a mix of a non-stride pair, a stride pair, a repeat and
    lists instead of tuples."""
    rows = list(combinations(range(nrows), c))
    cols = list(combinations(range(ncols), c))
    last = (rows[-1], cols[0])
    stride = [(r, cols[i % len(cols)]) for i, r in enumerate(rows[:2])]
    mixed = [last, stride[0], (list(last[0]), list(last[1]))]
    return [None, [last] * 3, stride, mixed]


@pytest.mark.parametrize("nrows", range(1, 8))
@pytest.mark.parametrize("ncols", range(1, 8))
def test_minor_candidates_match_the_three_phase_reference(nrows, ncols):
    """Same candidates in the same order, so the witness minors of every
    report row are unchanged: 4 hint cases for each c of each shape up to
    7 x 7."""
    for c in range(1, min(nrows, ncols) + 1):
        for hints in _hint_cases(nrows, ncols, c):
            got = list(_minor_candidates(nrows, ncols, c, hints))
            assert got == list(reference_minor_candidates(nrows, ncols, c, hints))
            assert len(set(got)) == len(got)


def test_minor_candidates_are_drawn_lazily():
    """The first 100 candidates of 6 x 6 minors of a 24 x 24 matrix take
    under 1 MB; listing the 134,596 subsets of each side took 24.8 MB."""
    tracemalloc.start()
    try:
        first = list(islice(_minor_candidates(24, 24, 6, None), 100))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(first) == 100
    assert peak < 1_000_000
