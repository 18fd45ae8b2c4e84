"""Packed-key monomial operations, the divisor index, the kernel's pair
update and its interreduction, each against a plain reference."""

import heapq
import random

import pytest

from latmod.kernel import interreduce, nf
from latmod._pykernel import _update_pairs
from latmod.packing import CHUNK, MAXE, DivisorIndex, Packing

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

ORDERS = ["grevlex", "lex", ("block", 2)]
P = 32003


# -- lcm and coprime ---------------------------------------------------------------


def _exponent(draw):
    return draw(st.one_of(
        st.integers(0, 3), st.integers(0, MAXE), st.sampled_from([MAXE - 1, MAXE]),
    ))


@st.composite
def key_pairs(draw):
    n = draw(st.integers(1, 6))
    orders = ["grevlex", "lex"] + [("block", k) for k in range(1, n)]
    pk = Packing(n, draw(st.sampled_from(orders)))
    ea = tuple(_exponent(draw) for _ in range(n))
    eb = tuple(_exponent(draw) for _ in range(n))
    return pk, ea, eb


@settings(max_examples=400, deadline=None)
@given(key_pairs())
def test_lcm_coprime_and_divides_match_exponent_tuples(case):
    pk, ea, eb = case
    a, b = pk.pack(ea), pk.pack(eb)
    assert pk.lcm(a, b) == pk.pack(tuple(map(max, ea, eb)))
    assert pk.coprime(a, b) == all(x == 0 or y == 0 for x, y in zip(ea, eb))
    assert pk.divides(a, b) == all(x <= y for x, y in zip(ea, eb))


# the variables summed by each degree field
DEGREE_FIELDS = {"grevlex": [range(4)], "lex": [], ("block", 2): [range(2), range(2, 4)]}


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize(
    "ea,eb",
    [
        ((MAXE, MAXE - 1, 0, 0), (0, 0, 1, 0)),  # degree sum 65534
        ((MAXE, MAXE, 0, 0), (0, 0, 1, 0)),  # degree sum 65535
        ((MAXE, MAXE, 0, 0), (MAXE, MAXE, 0, 0)),  # lcm == a
        ((MAXE, MAXE, MAXE, MAXE), (1, 0, MAXE, MAXE)),
        ((0, 0, MAXE, MAXE), (0, 1, 0, 0)),
    ],
)
def test_lcm_degree_sum_at_65535_takes_the_fallback(monkeypatch, order, ea, eb):
    pk = Packing(4, order)
    a, b = pk.pack(ea), pk.pack(eb)
    unpacked = []
    real_unpack = Packing.unpack
    monkeypatch.setattr(
        Packing, "unpack", lambda self, key: unpacked.append(key) or real_unpack(self, key)
    )
    assert pk.lcm(a, b) == pk.pack(tuple(map(max, ea, eb)))
    fallback = any(sum(ea[i] + eb[i] for i in ix) >= 65535 for ix in DEGREE_FIELDS[order])
    assert bool(unpacked) == fallback


# -- divisor index -----------------------------------------------------------------


def brute_first_divisor(pk, leads, a):
    return next((i for i, b in enumerate(leads) if pk.divides(b, a)), -1)


@st.composite
def exponent_tuples(draw, n):
    """Mostly zero: whole chunks of a lead are often zero."""
    return tuple(
        draw(st.sampled_from([0, 0, 0, 1, 1, 2, 3, MAXE - 1, MAXE]))
        if draw(st.booleans()) else 0
        for _ in range(n)
    )


@st.composite
def index_scripts(draw):
    """A packing and a run of appends and queries.  A query re-asks an
    earlier monomial or a lead's multiple half the time, so memo entries
    filled before an append are read after it."""
    n = draw(st.sampled_from([1, 2, 3, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3]))
    orders = ["grevlex", "lex"] + [("block", k) for k in range(1, n)]
    pk = Packing(n, draw(st.sampled_from(orders)))
    script = []
    seen = []
    for _ in range(draw(st.integers(1, 24))):
        e = draw(exponent_tuples(n))
        if draw(st.booleans()):
            script.append(("append", pk.pack(e)))
            seen.append(e)
            continue
        if seen and draw(st.booleans()):
            base = draw(st.sampled_from(seen))
            e = tuple(min(MAXE, x + y) for x, y in zip(base, e))
        script.append(("query", pk.pack(e)))
        seen.append(e)
    return pk, script


@settings(max_examples=200, deadline=None)
@given(index_scripts())
def test_divisor_index_matches_brute_force_scan(case):
    pk, script = case
    index = DivisorIndex(pk)
    leads = []
    for op, key in script:
        if op == "append":
            index.append(key)
            leads.append(key)
        else:
            assert index.first(key) == brute_first_divisor(pk, leads, key)
    assert DivisorIndex(pk, leads).first(pk.one) == brute_first_divisor(pk, leads, pk.one)


@pytest.mark.parametrize("order", ["grevlex", "lex", ("block", 3), ("block", CHUNK + 1)])
def test_divisor_index_across_chunk_and_degree_field_borders(order):
    n = 2 * CHUNK + 3
    pk = Packing(n, order)

    def x(*pairs):
        e = [0] * n
        for i, v in pairs:
            e[i] = v
        return pk.pack(e)

    index = DivisorIndex(pk)
    assert index.first(x()) == -1  # empty index
    assert index.first(x((0, MAXE), (n - 1, MAXE))) == -1
    leads = [x((0, 2), (n - 1, 1)), x((n - 1, 2)), x((CHUNK - 1, 1), (CHUNK, 1)), x((3, MAXE))]
    queries = [
        x((0, 2), (n - 1, 2)),  # both of the first two divide: the least wins
        x((0, 1), (n - 1, 2)),
        x((0, 2), (n - 1, 1)),
        x((CHUNK - 1, 1), (CHUNK, 1)),
        x((CHUNK - 1, 1)),
        x((3, MAXE), (4, MAXE)),
        x((3, MAXE - 1)),
        x(),
    ]
    for k, lead in enumerate(leads):
        # query before and after each append: entries filled before it are read after
        for a in queries:
            assert index.first(a) == brute_first_divisor(pk, leads[:k], a)
        index.append(lead)
        for a in queries:
            assert index.first(a) == brute_first_divisor(pk, leads[: k + 1], a)
    index.append(x())  # the constant 1 divides everything
    assert index.first(x((1, MAXE), (n - 2, MAXE))) == len(leads)
    assert index.first(x((0, 2), (n - 1, 2))) == 0


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("p", [0, P])
@pytest.mark.parametrize("seed", range(3))
def test_nf_with_persistent_index_equals_fresh_index(order, p, seed):
    rng = random.Random(seed)
    n = CHUNK + 3  # more variables than one chunk holds
    pk = Packing(n, order)

    def poly(nterms, maxdeg):
        terms = {}
        for _ in range(nterms):
            e = [0] * n
            for _ in range(rng.randrange(maxdeg + 1)):
                e[rng.randrange(n)] += 1
            terms[pk.pack(e)] = rng.randrange(1, p) if p else rng.choice([-3, -1, 1, 2, 5])
        return sorted(terms.items(), reverse=True)

    basis = []
    index = DivisorIndex(pk)
    for _ in range(12):
        g = poly(3, 3)
        basis.append(g)
        index.append(g[0][0])
        for _ in range(4):
            f = poly(6, 5)
            assert nf(f, basis, pk, p, index) == nf(f, basis, pk, p)


# -- pair update -------------------------------------------------------------------


def reference_update_pairs(pairs, G, lms, h_idx, pk):
    """The O(h^2) Gebauer-Moeller update, on exponent tuples."""

    def lcm(a, b):
        return pk.pack(tuple(map(max, pk.unpack(a), pk.unpack(b))))

    def divides(b, a):
        return all(x <= y for x, y in zip(pk.unpack(b), pk.unpack(a)))

    def coprime(a, b):
        return all(x == 0 or y == 0 for x, y in zip(pk.unpack(a), pk.unpack(b)))

    lmh = lms[h_idx]
    kept = []
    for (L, i, j) in pairs:
        if divides(lmh, L) and lcm(lms[i], lmh) != L and lcm(lms[j], lmh) != L:
            continue
        kept.append((L, i, j))
    cand = [(lcm(lms[i], lmh), i) for i in range(h_idx)]
    cand2 = []
    for (L, i) in cand:
        if not any(L2 != L and divides(L2, L) for (L2, _) in cand):
            cand2.append((L, i))
    seen = set()
    for (L, i) in cand2:
        if L in seen:
            continue
        seen.add(L)
        if not coprime(lms[i], lmh):
            kept.append((L, i, h_idx))
    return kept


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("seed", range(6))
def test_update_pairs_matches_quadratic_reference(order, seed):
    rng = random.Random(seed)
    n = rng.choice([4, 5, 6])
    pk = Packing(n, order)
    lms = [
        pk.pack(tuple(rng.choice([0, 0, 1, 1, 2, 3]) for _ in range(n)))
        for _ in range(40)
    ]
    G = [None] * len(lms)
    heap = []
    for h in range(len(lms)):
        # as in buchberger: the queue as a heap-ordered list, some pairs popped
        got = _update_pairs(list(heap), G, lms, h, pk)
        assert got == reference_update_pairs(list(heap), G, lms, h, pk)
        heap = got
        heapq.heapify(heap)
        for _ in range(rng.randrange(3)):
            if heap:
                heapq.heappop(heap)


# -- interreduce -------------------------------------------------------------------


def _padd(f, g, c=1, m=None):
    """f + c * x^m * g on exponent-tuple dicts."""
    out = dict(f)
    for e, v in g.items():
        e2 = tuple(map(sum, zip(e, m))) if m else e
        out[e2] = out.get(e2, 0) + c * v
    return {e: v for e, v in out.items() if v}


def _kernel_terms(pk, f, p):
    terms = ((pk.pack(e), v % p if p else v) for e, v in f.items())
    return sorted(((k, v) for k, v in terms if v), reverse=True)


def _reduced_basis(rng, n, d):
    """g_i = x_i^d + tail, the tail in x_i..x_n of degree < d: the leads are
    coprime, so this is a Groebner basis, and no tail term is divisible by a
    lead, so it is reduced (grevlex, lex and ("block", k) alike)."""
    basis = []
    for i in range(n):
        lead = tuple(d if k == i else 0 for k in range(n))
        g = {lead: 1}
        for _ in range(4):
            e = [0] * n
            for _ in range(rng.randrange(d)):
                e[rng.randrange(i, n)] += 1
            g = _padd(g, {tuple(e): rng.choice([-2, -1, 1, 3])})
        basis.append(g)
    return basis


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("p", [0, P])
@pytest.mark.parametrize("seed", range(3))
def test_interreduce_of_unreduced_groebner_basis(order, p, seed):
    rng = random.Random(seed)
    n, d = 4, 3
    pk = Packing(n, order)
    basis = _reduced_basis(rng, n, d)

    def mono(i):
        """A monomial of degree < d in x_i..x_n."""
        e = [0] * n
        e[rng.randrange(i, n)] = rng.randrange(d)
        return tuple(e)

    def below(i):
        """A monomial m with m * x_j^d < x_i^d for every j > i."""
        if order == "lex" and i + 1 < n:
            return mono(i + 1)
        if order == ("block", 2) and i < 2:
            return mono(2)
        return (0,) * n

    # Going up from the smallest lead, add to each g_i multiples of the
    # already altered g_j with smaller leads, so that reducing g_i fully
    # needs g_j reduced first.  The leads stay, so this is still a Groebner
    # basis of the same ideal.
    unreduced = list(basis)
    for i in reversed(range(n - 1)):
        for j in range(i + 1, n):
            unreduced[i] = _padd(unreduced[i], unreduced[j], rng.choice([-1, 2]), below(i))
    # Redundant elements: multiples of a basis element and a duplicate lead.
    extra = [
        _padd({}, unreduced[1], 5, mono(0)),
        _padd(unreduced[2], unreduced[3], 1, mono(3)),
        _padd(_padd({}, unreduced[0], 1, (0, 1, 0, 0)), unreduced[3], -1),
    ]
    # Unnormalized scalings, then a shuffled order with the element that
    # reduces the most tails inserted last.
    scaled = [_padd({}, g, rng.choice([-3, 2, 7])) for g in unreduced + extra]
    last = scaled.pop(n - 1)
    rng.shuffle(scaled)
    inp = [_kernel_terms(pk, g, p) for g in scaled + [last]]

    want = [_kernel_terms(pk, g, p) for g in basis]
    want.sort(reverse=True)
    assert interreduce(inp, pk, p) == want
