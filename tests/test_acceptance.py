"""Acceptance suite: one test per criterion, each printing a pass/fail
line and enforcing the stated tolerances and runtime budgets."""

import time

from latmod.chains import ChainSpec
from latmod.characters import (
    character_data,
    kernel_is_torus_check,
    quotient_by_subtorus_check,
)
from latmod.opencell import open_cell_factors_through_mu, open_cell_ratio_invariance
from latmod.resolution import diagonal_chart_ideals, sigma_fiber_freecount
from latmod.schemes import (
    apply_cyclic_shift,
    apply_symplectic_involution,
    mu_ideal,
    local_model_ideal,
)
from latmod.suite import (
    check_blowup_principal,
    check_chain_census,
    check_chain_roundtrip,
    check_glued_count,
    check_mu_dimension,
    check_s_set_count,
    torsion_test_corpus,
)
from latmod.verify import generic_fiber_smooth_check
from latmod.ideals import saturate


def _report(num, name, ok, elapsed):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} [{elapsed:.1f}s]")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_1_symplectic_fiber_census():
    """Free-coordinate counts 1, 5, 12 with the three displayed relation
    families consumed; < 5 s per genus."""
    ok = True
    t_total = time.monotonic()
    for g, expected in [(1, 1), (2, 5), (3, 12)]:
        t0 = time.monotonic()
        census = sigma_fiber_freecount(g)
        elapsed = time.monotonic() - t0
        per_family = g * (g + 1) // 2
        ok = ok and census.free_count == expected
        ok = ok and census.family_counts() == {
            1: per_family,
            2: per_family,
            3: per_family,
        }
        # every relation is consumed: used for an elimination or
        # verified redundant after the substitutions
        ok = ok and all(e.action in ("eliminated", "redundant") for e in census.log)
        ok = ok and elapsed < 5.0
    _report(1, "symplectic fiber census", ok, time.monotonic() - t_total)


def test_criterion_2_torus_kernel_criteria():
    """Primitivity certificates for all 2 <= n <= 4, 1 <= r <= n-1,
    1 <= N <= 2; < 30 s total."""
    t0 = time.monotonic()
    ok = True
    for n in (2, 3, 4):
        for r in range(1, n):
            for N in (1, 2):
                data = character_data(n, r, N)
                c1 = kernel_is_torus_check(data)
                c2 = quotient_by_subtorus_check(data)
                ok = ok and c1.verdict and c2.verdict
                ok = ok and all(d in (0, 1) for d in c1.invariants)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30.0
    _report(2, "strong log-smoothness torus-kernel criterion", ok, elapsed)


def test_criterion_3_open_cell_factorization():
    """Symbolic open-cell substitution kills every generator for
    (n, N) in {(2,1), (2,2), (3,1)}, with ratio invariance; < 2 min."""
    t0 = time.monotonic()
    ok = True
    for (n, N) in ((2, 1), (2, 2), (3, 1)):
        for r in range(1, n):
            ok = ok and open_cell_factors_through_mu(n, r, N)
            ok = ok and open_cell_ratio_invariance(n, r, N)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 120.0
    _report(3, "open-cell factorization", ok, elapsed)


def test_criterion_4_chain_normal_form():
    """100 seeded round trips over F_5 and F_7 per chain spec, plus the
    F_2 census of the chart locus (a pruned complete enumeration), with
    zero failures."""
    t0 = time.monotonic()
    ok = True
    for (n, r, N, d) in [(2, 1, 1, (1, 1)), (3, 1, 1, (1, 2)), (3, 1, 1, (2, 1))]:
        params = {"n": n, "r": r, "N": N, "d": list(d)}
        for q in (5, 7):
            passed, details = check_chain_roundtrip(
                dict(params, q=q, trials=100), 6007 + 13 * q + n + d[0]
            )
            ok = ok and passed and details["failures"] == 0
        passed, details = check_chain_census(dict(params, q=2), 0)
        ok = ok and passed and details["failures"] == 0
    _report(4, "chain normal form", ok, time.monotonic() - t0)


def test_criterion_5_generic_fiber_smoothness():
    """Jacobian certificates with t inverted for the cyclic-product
    ideals and the chain-model charts, n <= 3, N <= 2; < 5 min total."""
    t0 = time.monotonic()
    ok = True
    mu_specs = [(2, 1, 1), (2, 1, 2), (3, 1, 1), (3, 2, 1), (3, 1, 2), (3, 2, 2)]
    for (n, r, N) in mu_specs:
        cert, _ = generic_fiber_smooth_check(mu_ideal(n, r, N))
        ok = ok and cert.verdict
    lm_specs = [
        ChainSpec(2, 1, 1, (1, 1)),
        ChainSpec(3, 1, 1, (1, 2)),
        ChainSpec(3, 1, 1, (2, 1)),
        ChainSpec(3, 2, 1, (1, 2)),
        ChainSpec(3, 2, 1, (2, 1)),
        ChainSpec(3, 1, 2, (1, 1, 1)),
        ChainSpec(3, 2, 2, (1, 1, 1)),
    ]
    for spec in lm_specs:
        cert, _ = generic_fiber_smooth_check(local_model_ideal(spec))
        ok = ok and cert.verdict
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 300.0
    _report(5, "generic-fiber smoothness", ok, elapsed)


def test_criterion_6_symmetry_equivariance():
    """Reduced bases fixed by every cyclic shift (n <= 3, N <= 2) and by
    the symplectic involution (g <= 2, N <= 2)."""
    t0 = time.monotonic()
    ok = True
    for (n, r, N) in [(2, 1, 1), (2, 1, 2), (3, 1, 1), (3, 2, 1), (3, 1, 2), (3, 2, 2)]:
        mu = mu_ideal(n, r, N)
        base = mu.ideal.groebner_basis()
        for s in range(1, N + 1):
            shifted = apply_cyclic_shift(mu, s)
            ok = ok and shifted.ideal.groebner_basis() == base
    for (g, N) in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        mu = mu_ideal(2 * g, g, N)
        base = mu.ideal.groebner_basis()
        inv = apply_symplectic_involution(mu)
        ok = ok and inv.ideal.groebner_basis() == base
    _report(6, "symmetry equivariance", ok, time.monotonic() - t0)


def test_criterion_7_blowup_saturation():
    """Torsion-kill idempotence on the 20-ideal corpus, principal
    pulled-back centers on the g = 2 tower, exact diagonal identities."""
    t0 = time.monotonic()
    ok = True
    corpus = torsion_test_corpus()
    ok = ok and len(corpus) == 20
    for ideal in corpus:
        t = ideal.ring.var("t")
        once = saturate(ideal, t)
        twice = saturate(once, t)
        ok = ok and once.groebner_basis() == twice.groebner_basis()
    passed, details = check_blowup_principal({"g": 2}, 0)
    ok = ok and passed and details["nonempty_charts"] > 0
    for g in (1, 2, 3):
        data = diagonal_chart_ideals(g)
        ok = ok and data.product_identities_hold()
    _report(7, "blowup and saturation semantics", ok, time.monotonic() - t0)


def test_criterion_8_oracle_cross_checks():
    """Index-set counts, glued vs direct point counts, and the dimension
    of the basic cyclic-product ideal by two independent methods."""
    t0 = time.monotonic()
    ok = True
    # fast enumeration vs an exhaustive filter of the index-set constraints
    for (n, r, N, expected) in [(2, 1, 1, 7), (3, 1, 1, 16)]:
        passed, details = check_s_set_count(
            {"n": n, "r": r, "N": N, "expected": expected}, 0
        )
        ok = ok and passed and details == {"count": expected, "oracle_count": expected}
    for q, expected in [(2, 5), (3, 7)]:
        passed, details = check_glued_count(
            {"n": 2, "r": 1, "N": 1, "d": [1, 1], "q": q, "tau": 0, "expected": expected}, 0
        )
        ok = ok and passed and details == {"glued": expected, "direct": expected}
    passed, details = check_mu_dimension({"n": 2, "r": 1, "N": 1, "expected": 4}, 0)
    ok = ok and passed and details == {"groebner": 4, "growth_oracle": 4}
    _report(8, "oracle cross-checks", ok, time.monotonic() - t0)
