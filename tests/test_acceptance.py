"""Acceptance suite: one test per criterion.  Each test takes its
criterion's entries from ``default_config()``, asserts the exact spec set
they cover, runs them through ``suite.run_one`` (the code that writes the
report rows) and enforces the stated values and runtime budgets on the
rows; it prints one pass/fail line."""

import time

from latmod.chains import ParabolicShape
from latmod.ideals import PolyIdeal
from latmod.poly import MultiPoly
from latmod.schemes import (
    apply_cyclic_shift,
    apply_symplectic_involution,
    generators_match_exactly,
    generators_match_up_to_sign,
    mu_ideal,
)
from latmod.suite import CHECKS, default_config, run_one

# criterion -> (title, the suite checks that decide it)
CRITERIA = {
    1: ("symplectic fiber census", ("sigma_fiber",)),
    2: ("strong log-smoothness torus-kernel criterion", ("torus_kernel", "quotient_subtorus")),
    3: ("open-cell factorization", ("open_cell",)),
    4: ("chain normal form", ("chain_roundtrip", "chain_census")),
    5: ("generic-fiber smoothness", ("generic_fiber_mu", "generic_fiber_lm")),
    6: ("symmetry equivariance", ("shift_stability", "involution_stability")),
    7: ("blowup and saturation semantics",
        ("torsion_idempotent", "blowup_principal", "diagonal_identities")),
    8: ("oracle cross-checks", ("s_set_count", "glued_count", "mu_dimension")),
}

# criterion 8's checks -> (params, true value): with ``expected`` one off the
# true value, each must return a False verdict, so the criterion can fail
PLANTED = {
    "s_set_count": ({"n": 2, "r": 1, "N": 1}, 7),
    "glued_count": ({"n": 2, "r": 1, "N": 1, "d": [1, 1], "q": 2, "tau": 0}, 5),
    "mu_dimension": ({"n": 2, "r": 1, "N": 1}, 4),
}

MU_SPECS = [(2, 1, 1), (2, 1, 2), (3, 1, 1), (3, 1, 2), (3, 2, 1), (3, 2, 2)]
CHAIN_SPECS = [(2, 1, 1, (1, 1)), (3, 1, 1, (1, 2)), (3, 1, 1, (2, 1))]


def _entries(num):
    return [e for e in default_config()["checks"] if e["name"] in CRITERIA[num][1]]


def _specs(entries, name, *keys):
    """Sorted parameter tuples of one check's entries (lists as tuples)."""
    return sorted(
        tuple(tuple(v) if isinstance(v, list) else v for v in map(e["params"].get, keys))
        for e in entries if e["name"] == name
    )


def _report(num, ok, t0):
    title = CRITERIA[num][0]
    print(f"ACCEPTANCE {num} ({title}): {'PASS' if ok else 'FAIL'} "
          f"[{time.monotonic() - t0:.1f}s]")
    assert ok, f"criterion {num} ({title}) failed"


def test_every_check_belongs_to_exactly_one_criterion():
    names = [name for _, checks in CRITERIA.values() for name in checks]
    assert len(names) == len(set(names))
    assert set(names) == set(CHECKS)
    assert set(names) == {e["name"] for e in default_config()["checks"]}


def test_criterion_1_symplectic_fiber_census():
    """Free-coordinate counts 1, 5, 12 for g = 1, 2, 3, with the three
    displayed relation families consumed; < 5 s per genus."""
    t0, entries = time.monotonic(), _entries(1)
    assert _specs(entries, "sigma_fiber", "g") == [(1,), (2,), (3,)]
    ok = True
    for e in entries:
        g, row = e["params"]["g"], run_one(e)
        ok = ok and row.verdict and row.runtime_ms < 5000
        ok = ok and row.details["free_count"] == {1: 1, 2: 5, 3: 12}[g]
        ok = ok and row.details["families"] == dict.fromkeys((1, 2, 3), g * (g + 1) // 2)
    _report(1, ok, t0)


def test_criterion_2_torus_kernel_criteria():
    """Primitivity certificates, of the kernel and of the quotient, for all
    2 <= n <= 4, 1 <= r <= n-1, 1 <= N <= 2, with invariants in {0, 1};
    < 30 s total."""
    t0, entries = time.monotonic(), _entries(2)
    specs = [(n, r, N) for n in (2, 3, 4) for r in range(1, n) for N in (1, 2)]
    assert _specs(entries, "torus_kernel", "n", "r", "N") == specs
    assert _specs(entries, "quotient_subtorus", "n", "r", "N") == specs
    rows = [run_one(e) for e in entries]
    ok = all(row.verdict and set(row.details["invariants"]) <= {0, 1} for row in rows)
    _report(2, ok and sum(row.runtime_ms for row in rows) < 30000, t0)


def test_criterion_3_open_cell_factorization():
    """Symbolic open-cell substitution kills every generator for
    (n, N) in {(2,1), (2,2), (3,1)} and every r, with ratio invariance;
    < 2 min."""
    t0, entries = time.monotonic(), _entries(3)
    assert _specs(entries, "open_cell", "n", "r", "N") == [
        (2, 1, 1), (2, 1, 2), (3, 1, 1), (3, 2, 1)]
    rows = [run_one(e) for e in entries]
    both = {"factors_through": True, "ratio_invariance": True}
    ok = all(row.verdict and row.details == both for row in rows)
    _report(3, ok and sum(row.runtime_ms for row in rows) < 120000, t0)


def test_criterion_4_chain_normal_form():
    """100 seeded round trips over F_5 and F_7 per chain spec, with the
    report's seeds and with seeds 6007 + 13q + n + d[0], plus the census of
    the chart locus (a pruned complete enumeration) over F_2 for each chain
    spec and over F_3 for n = 2, with zero failures."""
    t0, entries = time.monotonic(), _entries(4)
    assert _specs(entries, "chain_roundtrip", "n", "r", "N", "d", "q", "trials") == [
        c + (q, 100) for c in CHAIN_SPECS for q in (5, 7)]
    assert _specs(entries, "chain_census", "n", "r", "N", "d", "q") == sorted(
        [c + (2,) for c in CHAIN_SPECS] + [CHAIN_SPECS[0] + (3,)])
    own_seeds = [
        dict(e, seed=6007 + 13 * e["params"]["q"] + e["params"]["n"] + e["params"]["d"][0])
        for e in entries if e["name"] == "chain_roundtrip"
    ]
    rows = [run_one(e) for e in entries + own_seeds]
    _report(4, all(row.verdict and row.details["failures"] == 0 for row in rows), t0)


def test_criterion_5_generic_fiber_smoothness():
    """Jacobian certificates with t inverted for the cyclic-product ideals
    (n <= 3, N <= 2) and seven chain-model charts; < 5 min total."""
    t0, entries = time.monotonic(), _entries(5)
    assert _specs(entries, "generic_fiber_mu", "n", "r", "N") == MU_SPECS
    assert _specs(entries, "generic_fiber_lm", "n", "r", "N", "d") == sorted(CHAIN_SPECS + [
        (3, 2, 1, (1, 2)), (3, 2, 1, (2, 1)), (3, 1, 2, (1, 1, 1)), (3, 2, 2, (1, 1, 1))])
    rows = [run_one(e) for e in entries]
    ok = all(row.verdict for row in rows)
    _report(5, ok and sum(row.runtime_ms for row in rows) < 300000, t0)


def test_criterion_6_symmetry_equivariance():
    """Reduced bases fixed by every cyclic shift (n <= 3, N <= 2) and by
    the symplectic involution (g <= 2, N <= 2): two bases computed
    directly and compared, which also tests the kernel's determinism."""
    t0, entries = time.monotonic(), _entries(6)
    shifts = _specs(entries, "shift_stability", "n", "r", "N")
    involutions = _specs(entries, "involution_stability", "g", "N")
    assert shifts == MU_SPECS and involutions == [(1, 1), (1, 2), (2, 1), (2, 2)]
    ok = True
    for (n, r, N) in shifts:
        mu = mu_ideal(n, r, N)
        base = mu.ideal.groebner_basis()
        for s in range(1, N + 1):
            ok = ok and apply_cyclic_shift(mu, s).ideal.groebner_basis() == base
    for (g, N) in involutions:
        mu = mu_ideal(2 * g, g, N)
        ok = ok and apply_symplectic_involution(mu).ideal.groebner_basis() == (
            mu.ideal.groebner_basis())
    _report(6, ok, t0)


def test_criterion_7_blowup_saturation():
    """Torsion-kill idempotence and monotonicity on the 20-ideal corpus,
    principal pulled-back centers on the g = 2 tower, exact diagonal
    identities and principal minor ideals for g = 1, 2, 3."""
    t0, entries = time.monotonic(), _entries(7)
    assert _specs(entries, "torsion_idempotent") == [()]
    assert _specs(entries, "blowup_principal", "g") == [(2,)]
    assert _specs(entries, "diagonal_identities", "g") == [(1,), (2,), (3,)]
    want = {
        "torsion_idempotent": lambda d: d == {"corpus_size": 20},
        "blowup_principal": lambda d: d["nonempty_charts"] > 0,
        "diagonal_identities": lambda d: d == {
            "product_identities": True, "minor_ideals_principal": True},
    }
    rows = [run_one(e) for e in entries]
    _report(7, all(row.verdict and want[row.check](row.details) for row in rows), t0)


def test_criterion_8_oracle_cross_checks():
    """Index-set counts 7 and 16, glued vs direct point counts 5 and 7
    over F_2 and F_3, and dimension 4 of the basic cyclic-product ideal,
    each by two independent methods."""
    t0 = time.monotonic()
    want = {
        ("s_set_count", "N=1,expected=7,n=2,r=1"): {"count": 7, "oracle_count": 7},
        ("s_set_count", "N=1,expected=16,n=3,r=1"): {"count": 16, "oracle_count": 16},
        ("glued_count", "N=1,d=[1, 1],n=2,q=2,r=1,tau=0"): {"glued": 5, "direct": 5},
        ("glued_count", "N=1,d=[1, 1],n=2,q=3,r=1,tau=0"): {"glued": 7, "direct": 7},
        ("mu_dimension", "N=1,expected=4,n=2,r=1"): {"groebner": 4, "growth_oracle": 4},
    }
    rows = [run_one(e) for e in _entries(8)]
    assert sorted((row.check, row.spec) for row in rows) == sorted(want)
    _report(8, all(row.verdict and row.details == want[row.check, row.spec]
                   for row in rows), t0)


def test_criterion_8_rejects_planted_counterexamples():
    """Every criterion-8 check fails its row when ``expected`` is off by
    one, and passes it at the true value."""
    assert set(PLANTED) == set(CRITERIA[8][1])
    for name, (params, value) in PLANTED.items():
        for expected, verdict in ((value - 1, False), (value, True), (value + 1, False)):
            row = run_one({"name": name, "params": dict(params, expected=expected)})
            assert row.verdict is verdict, (name, expected, row)


def test_criterion_6_rejects_planted_counterexamples():
    """The generator-set certificates of criterion 6 reject a planted image.

    Shift: the shifted generators of mu(3,1,2) without one rotation's
    entries match neither mu's set nor its reduced basis; without
    invertibility the rotations are not interdefinable.  Involution: the image of mu(2,1,1) with the sign of
    one term of one generator flipped does not match up to sign.
    """
    mu = mu_ideal(3, 1, 2)
    shifted = apply_cyclic_shift(mu, 1).generators
    assert generators_match_exactly(mu.generators, shifted)
    # rotation 0's entries come first, one per shape position
    dropped = shifted[len(ParabolicShape(3, 1).positions()):]
    assert not generators_match_exactly(mu.generators, dropped)
    assert PolyIdeal(mu.ring, dropped).groebner_basis() != mu.ideal.groebner_basis()

    mu = mu_ideal(2, 1, 1)
    first, *rest = apply_symplectic_involution(mu).generators
    assert generators_match_up_to_sign(mu.generators, [first] + rest)
    (e, c), *others = first.terms.items()
    assert others, "flipping the only term would flip the whole generator"
    flipped = MultiPoly(mu.ring, {**first.terms, e: -c})
    assert not generators_match_up_to_sign(mu.generators, [flipped] + rest)
