import pytest

from latmod.indexset import IndexElem, enumerate_index_set, leq, pi_delta


def total_mass(e: IndexElem) -> int:
    return sum(a + b for a, b in e.pairs)


def first_mass(e: IndexElem) -> int:
    return sum(a for a, _ in e.pairs)


def test_count_2_1_1():
    assert len(enumerate_index_set(2, 1, 1)) == 7


def test_count_3_1_1():
    assert len(enumerate_index_set(3, 1, 1)) == 16


def test_all_mass_up_front_always_present():
    for n, r, N in [(2, 1, 1), (3, 2, 2), (4, 1, 3), (5, 4, 1)]:
        S = enumerate_index_set(n, r, N)
        probe = IndexElem(((n, 0),) + ((0, 0),) * N)
        assert probe in S


def test_rejects_bad_r():
    with pytest.raises(ValueError):
        enumerate_index_set(3, 0, 1)
    with pytest.raises(ValueError):
        enumerate_index_set(3, 3, 1)


def test_lex_sorted_no_duplicates():
    S = enumerate_index_set(3, 1, 2)
    flats = [e.flat() for e in S]
    assert flats == sorted(flats)
    assert len(set(flats)) == len(flats)


def test_defining_constraints_hold():
    for n, r, N in [(2, 1, 1), (3, 2, 1), (4, 2, 2)]:
        for e in enumerate_index_set(n, r, N):
            assert total_mass(e) == n
            assert first_mass(e) >= r


def test_leq_examples():
    a = IndexElem(((0, 2), (1, 0)))
    b = IndexElem(((1, 1), (1, 0)))
    assert leq(a, b)
    assert not leq(b, a)
    assert leq(a, a)
    c = IndexElem(((2, 0), (0, 1)))
    d = IndexElem(((0, 1), (2, 0)))
    assert not leq(c, d)  # slot masses differ


def test_leq_rejects_mismatched_N():
    a = IndexElem(((1, 0), (1, 0)))
    b = IndexElem(((1, 0), (1, 0), (0, 0)))
    with pytest.raises(ValueError):
        leq(a, b)


def test_partial_order_axioms_exhaustive():
    """Reflexive, antisymmetric, transitive on all of S for n <= 4, N <= 2."""
    for n in (2, 3, 4):
        for r in range(1, n):
            for N in (1, 2):
                S = enumerate_index_set(n, r, N)
                for a in S:
                    assert leq(a, a)
                for a in S:
                    for b in S:
                        if leq(a, b) and leq(b, a):
                            assert a == b
                # transitivity via neighbor lists to keep it near-quadratic
                below = {a: [b for b in S if leq(a, b)] for a in S}
                for a in S:
                    for b in below[a]:
                        for c in below[b]:
                            assert leq(a, c)


def test_pi_delta_examples():
    p0, d0 = pi_delta(2, 1, 0)
    assert p0 == IndexElem(((1, 0), (1, 0)))
    assert d0 == IndexElem(((0, 0), (2, 0)))
    p1, d1 = pi_delta(2, 1, 1)
    assert p1 == IndexElem(((1, 0), (1, 0)))  # cyclic wrap: slots 1 and 0
    assert d1 == IndexElem(((2, 0), (0, 0)))


def test_pi_delta_membership():
    for n, r, N in [(2, 1, 1), (3, 1, 2), (4, 3, 2)]:
        S = set(enumerate_index_set(n, r, N))
        for i in range(N + 1):
            p, d = pi_delta(n, N, i)
            assert p in S and d in S
            assert first_mass(p) == n >= r


def test_pi_delta_not_comparable():
    """pi_i and delta_i have different slot masses ((1, n-1) vs (0, n)),
    so they are incomparable; both still satisfy the set constraints."""
    for n, N in [(2, 1), (3, 2), (5, 1)]:
        for i in range(N + 1):
            p, d = pi_delta(n, N, i)
            assert not leq(p, d)
            assert not leq(d, p)
            assert total_mass(p) == total_mass(d) == n
