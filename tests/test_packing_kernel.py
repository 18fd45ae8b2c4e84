"""Packed-key monomial operations, the divisor index, the kernel's
reduction, S-polynomials, pair update and interreduction, each against a
plain reference."""

import heapq
import math
import random
from math import gcd

import pytest

from latmod import _pykernel
from latmod.kernel import interreduce, nf, spoly
from latmod._pykernel import _update_pairs, content, normalize_int
from latmod.packing import CHUNK, FIELD_MASK, MAXE, DivisorIndex, Packing

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

ORDERS = ["grevlex", ("block", 1), ("block", 2)]
P = 32003


# -- lcm and coprime ---------------------------------------------------------------


def _exponent(draw):
    return draw(st.one_of(
        st.integers(0, 3), st.integers(0, MAXE), st.sampled_from([MAXE - 1, MAXE]),
    ))


@st.composite
def key_pairs(draw):
    n = draw(st.integers(1, 6))
    orders = ["grevlex"] + [("block", k) for k in range(1, n)]
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


@settings(max_examples=400, deadline=None)
@given(key_pairs())
def test_unpack_matches_per_field_reference(case):
    pk, ea, eb = case
    for e in (ea, eb, (0,) * pk.nvars, (MAXE,) * pk.nvars):
        key = pk.pack(e)
        fields = tuple((key >> s) & FIELD_MASK for s in pk.shifts)
        assert pk.unpack(key) == tuple(MAXE - v for v in fields) == e


def test_only_grevlex_and_block_orders_are_packed():
    """Every key holds M - e per exponent field; lex has no layout."""
    for order in ("lex", "revlex", ("lex", 1), ("block", 1, 2)):
        with pytest.raises(ValueError, match="unknown monomial order"):
            Packing(3, order)


# the variables summed by each degree field
DEGREE_FIELDS = {
    "grevlex": [range(4)],
    ("block", 1): [range(1), range(1, 4)],
    ("block", 2): [range(2), range(2, 4)],
}


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
    orders = ["grevlex"] + [("block", k) for k in range(1, n)]
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


@pytest.mark.parametrize("order", ["grevlex", ("block", 1), ("block", 3), ("block", CHUNK + 1)])
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


# -- reduction and S-polynomials against the earlier kernel ------------------------
# reference_nf and reference_spoly are the kernel's earlier nf and spoly, kept
# verbatim: they form every product with Packing.mul, test overflow per term and
# delete cancelled monomials.  The kernel's must return exactly the same
# triples and term lists.


def _sorted_terms(d):
    return sorted(((k, c) for k, c in d.items() if c), reverse=True)


def reference_nf(f, basis, pk, p, index=None):
    """Full normal form of f modulo basis.

    Returns ``(terms, num, den)`` with the invariant
    ``terms == exact_normal_form * num / den`` in characteristic 0; over
    GF(p) the reduction is exact and num == den == 1.  ``index`` is a
    ``DivisorIndex`` over the leads of ``basis``, in order; one is built
    when it is not given.
    """
    if not f:
        return [], 1, 1
    if index is None:
        index = DivisorIndex(pk, [g[0][0] for g in basis])
    first_divisor = index.first
    quotient = pk.quotient
    mul = pk.mul
    work = {}
    for k, c in f:
        work[k] = work.get(k, 0) + c
    heap = [-k for k in work]
    heapq.heapify(heap)
    tail = {}
    num = 1
    den = 1
    while heap:
        m = -heapq.heappop(heap)
        c = work.pop(m, 0)
        if p:
            c %= p
        if c == 0:
            continue
        red = first_divisor(m)
        if red < 0:
            tail[m] = tail.get(m, 0) + c
            continue
        g = basis[red]
        lm, lc = g[0]
        q = quotient(m, lm)
        if p:
            factor = (c * pow(lc, p - 2, p)) % p
            for j in range(1, len(g)):
                k2, c2 = g[j]
                kk = mul(q, k2)
                old = work.get(kk, 0)
                new = (old - factor * c2) % p
                if new:
                    if not old:
                        heapq.heappush(heap, -kk)
                    work[kk] = new
                elif old:
                    del work[kk]
        else:
            gg = gcd(c, lc)
            a = lc // gg
            b = c // gg
            if a < 0:
                a = -a
                b = -b
            if a != 1:
                for k in work:
                    work[k] *= a
                for k in tail:
                    tail[k] *= a
                num *= a
            for j in range(1, len(g)):
                k2, c2 = g[j]
                kk = mul(q, k2)
                old = work.get(kk, 0)
                new = old - b * c2
                if new:
                    if not old:
                        heapq.heappush(heap, -kk)
                    work[kk] = new
                elif old:
                    del work[kk]
            # Keep integer growth in check.
            if num.bit_length() > 512:
                g2 = num
                for v in work.values():
                    g2 = gcd(g2, v)
                    if g2 == 1:
                        break
                else:
                    for v in tail.values():
                        g2 = gcd(g2, v)
                        if g2 == 1:
                            break
                if g2 > 1:
                    for k in work:
                        work[k] //= g2
                    for k in tail:
                        tail[k] //= g2
                    num //= g2
    out = _sorted_terms(tail)
    if not p:
        g3 = content(out)
        if g3 > 1:
            if num % g3 == 0:
                num //= g3
            else:
                den *= g3
            out = [(k, c // g3) for k, c in out]
        gg = gcd(num, den)
        num //= gg
        den //= gg
    return out, num, den


def reference_spoly(f, g, pk, p):
    """S-polynomial, primitive (char 0) or reduced mod p."""
    lmf, lcf = f[0]
    lmg, lcg = g[0]
    L = pk.lcm(lmf, lmg)
    qf = pk.quotient(L, lmf)
    qg = pk.quotient(L, lmg)
    mul = pk.mul
    acc = {}
    if p:
        for k, c in f:
            kk = mul(qf, k)
            acc[kk] = (acc.get(kk, 0) + lcg * c) % p
        for k, c in g:
            kk = mul(qg, k)
            acc[kk] = (acc.get(kk, 0) - lcf * c) % p
        return _sorted_terms(acc)
    gg = gcd(lcf, lcg)
    a = lcg // gg
    b = lcf // gg
    for k, c in f:
        kk = mul(qf, k)
        acc[kk] = acc.get(kk, 0) + a * c
    for k, c in g:
        kk = mul(qg, k)
        acc[kk] = acc.get(kk, 0) - b * c
    return normalize_int(_sorted_terms(acc))


def _random_poly(rng, pk, p, nterms, maxdeg, lead=None):
    """Sorted kernel terms; over QQ the lead coefficient may be any nonzero
    int, so the reduction's ``a != 1`` scaling runs."""
    n = pk.nvars
    terms = {}
    for _ in range(nterms):
        e = [0] * n
        for _ in range(rng.randrange(maxdeg + 1)):
            e[rng.randrange(n)] += 1
        terms[pk.pack(e)] = rng.randrange(1, p) if p else rng.choice([-6, -3, -1, 1, 2, 4, 5])
    out = sorted(terms.items(), reverse=True)
    if lead is not None:
        out[0] = (out[0][0], lead)
    return out


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("p", [0, 7, P])
@pytest.mark.parametrize("seed", range(4))
def test_nf_and_spoly_match_reference(order, p, seed):
    rng = random.Random(seed)
    pk = Packing(5, order)
    leads = [1, -1, 2, -3, 6, 10] if not p else [1, 2, p - 1]
    basis = [
        _random_poly(rng, pk, p, rng.randrange(1, 5), 3, rng.choice(leads))
        for _ in range(10)
    ]
    index = DivisorIndex(pk, [g[0][0] for g in basis])
    for _ in range(15):
        f = _random_poly(rng, pk, p, rng.randrange(1, 9), 5)
        assert nf(f, basis, pk, p, index) == reference_nf(f, basis, pk, p)
    for f in basis:
        for g in basis:
            s = spoly(f, g, pk.lcm(f[0][0], g[0][0]), pk, p)
            assert s == reference_spoly(f, g, pk, p)
            assert nf(s, basis, pk, p, index) == reference_nf(s, basis, pk, p)


# x^9 + y^8 reduced by lc*y + c2*z scales by about lc at each step of the
# chain y^8 -> y^7*z -> ... while x^9 waits in the tail; x reduced by A*x + y
# and then by y ends in zero, where num is whatever the bound left of it.
BIG = 1 << 600


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize(
    "case",
    [
        # the bound's gcd divides the working terms and the tail down
        ([((0, 1, 0), 3 << 510), ((0, 0, 1), 5 << 510)], [(9, 0, 0), (0, 8, 0)]),
        # coprime: the gcd stays 1 and num stays above the bound
        ([((0, 1, 0), (1 << 127) - 1), ((0, 0, 1), (1 << 89) - 1)], [(9, 0, 0), (0, 8, 0)]),
        # the bound is met again at a step whose reducer has lead coefficient 1
        ([((1, 0, 0), BIG + 1), ((0, 1, 0), 1)], [(1, 0, 0)]),
    ],
    ids=["gcd-divides", "gcd-one", "zero-remainder"],
)
def test_nf_numerator_past_512_bits_matches_reference(monkeypatch, order, case):
    pk = Packing(3, order)
    reducer, f = case
    basis = [[(pk.pack(e), c) for e, c in reducer], [(pk.pack((0, 1, 0)), 1)]]
    f = [(pk.pack(e), 1) for e in f]
    bits = []

    def spy(a, b):
        bits.append(a.bit_length())
        return math.gcd(a, b)

    monkeypatch.setattr(_pykernel, "gcd", spy)
    got = nf(f, basis, pk, 0)
    assert max(bits) > 512
    assert got == reference_nf(f, basis, pk, 0)


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


def pair_update_leads(rng, n):
    """Lists of 40 lead exponent tuples: small exponents, then the edges of
    the packed representation."""
    small = (0, 0, 1, 1, 2, 3)
    near = (MAXE - 2, MAXE - 1, MAXE)
    yield [tuple(rng.choice(small) for _ in range(n)) for _ in range(40)]

    # Half of the leads with one field near MAXE among small ones: a borrow
    # between fields in the per-field minimum would show.
    def one_near():
        e = [rng.choice(small) for _ in range(n)]
        if rng.random() < 0.5:
            e[rng.randrange(n)] = rng.choice(near)
        return tuple(e)

    yield [one_near() for _ in range(40)]
    # Several fields near MAXE: lcm degrees of 65535 and more, where
    # Packing.lcm takes its fallback.
    yield [tuple(rng.choice((0, 1) + near) for _ in range(n)) for _ in range(40)]
    # Repeated leads and equal lcms, for the F criterion.
    pool = [tuple(rng.choice((0, 1)) for _ in range(n)) for _ in range(6)]
    yield [rng.choice(pool) for _ in range(40)]


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("seed", range(6))
def test_update_pairs_matches_quadratic_reference(order, seed):
    rng = random.Random(seed)
    n = rng.choice([4, 5, 6])
    pk = Packing(n, order)
    for exps in pair_update_leads(rng, n):
        lms = [pk.pack(e) for e in exps]
        G = [None] * len(lms)
        heap = []
        for h in range(len(lms)):
            # as in buchberger: the queue as a heap-ordered list, some pairs popped
            pairs = list(heap)
            got = _update_pairs(heap, G, lms, h, pk)
            assert heap == pairs
            assert got == reference_update_pairs(pairs, G, lms, h, pk)
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
    lead, so it is reduced (grevlex and ("block", k) alike)."""
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
        """A monomial m with m * x_j^d < x_i^d for every j > i: in block k,
        any monomial of the second block below a lead of the first."""
        if order != "grevlex" and i < order[1]:
            return mono(order[1])
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
