import random

import pytest

from latmod.chains import ChainSpec, shift_matrix_value
from latmod.chainnf import (
    chain_normal_form,
    conjugated_chain_point,
    point_in_mu_chart,
    random_frame,
)
from latmod.errors import NormalFormFailure
from latmod.gfq import mat_identity, mat_mul, mat_scale
from latmod.poly import GF


def verify_conjugation(spec, point, psi, tau, field):
    n = spec.n
    for i in range(spec.N + 1):
        lhs = mat_mul(point[i], psi[i], field)
        rhs = mat_mul(
            psi[(i - 1) % (spec.N + 1)],
            shift_matrix_value(n, spec.step(i), tau, field),
            field,
        )
        assert lhs == rhs


@pytest.mark.parametrize("q", [5, 7])
@pytest.mark.parametrize(
    "spec",
    [
        ChainSpec(2, 1, 1, (1, 1)),
        ChainSpec(3, 1, 1, (1, 2)),
        ChainSpec(3, 1, 1, (2, 1)),
    ],
)
def test_roundtrip_seeded(spec, q):
    field = GF(q)
    rng = random.Random(1000 + 31 * q + spec.n)
    for _ in range(25):
        tau = rng.randrange(q)
        frames = [random_frame(rng, spec.n, q) for _ in range(spec.N + 1)]
        point = conjugated_chain_point(spec, frames, tau, field)
        psi = chain_normal_form(spec, point, tau, field)
        verify_conjugation(spec, point, psi, tau, field)


def test_trivial_single_slot_chain():
    """tau a unit, Pi_0 = tau*Id with d = (n): T^n(tau) = tau*Id."""
    spec = ChainSpec(2, 1, 0, (2,))
    field = GF(5)
    tau = 3
    point = [mat_scale(mat_identity(2, field), tau, field)]
    psi = chain_normal_form(spec, point, tau, field)
    verify_conjugation(spec, point, psi, tau, field)


def test_rank_defect_fails():
    spec = ChainSpec(2, 1, 1, (1, 1))
    field = GF(5)
    zero = [[0, 0], [0, 0]]
    with pytest.raises(NormalFormFailure):
        chain_normal_form(spec, [zero, zero], 0, field)


def test_product_violation_fails():
    spec = ChainSpec(2, 1, 1, (1, 1))
    field = GF(5)
    eye = mat_identity(2, field)
    with pytest.raises(NormalFormFailure):
        chain_normal_form(spec, [eye, eye], 0, field)  # product is Id, not 0


def test_membership_census_2_1_1():
    """Every chart point over F_2 and F_3 admits a normal form."""
    from latmod.suite import check_chain_census

    for q in (2, 3):
        ok, details = check_chain_census(
            {"n": 2, "r": 1, "N": 1, "d": [1, 1], "q": q}, 0
        )
        assert ok, details
        assert details["chart_points"] > 0
        assert details["failures"] == 0


def test_chain_census_f3_n3():
    """The F_3 census of the chart locus for n = 3, N = 1: 2,400 points at
    tau = 0 and 864 at each unit tau, every one with a normal form."""
    from latmod.suite import check_chain_census

    ok, details = check_chain_census(
        {"n": 3, "r": 1, "N": 1, "d": [1, 2], "q": 3}, 0
    )
    assert ok, details
    assert details == {"q": 3, "chart_points": 4128, "failures": 0}


def test_point_in_mu_chart_checks():
    spec = ChainSpec(2, 1, 1, (1, 1))
    field = GF(3)
    # at tau = 0 the shift matrix is strictly upper, hence a chart point
    P0 = shift_matrix_value(2, 1, 0, field)
    assert point_in_mu_chart(spec, [P0, P0], 0, field)
    # at tau = 1 it picks up a lower-left entry and leaves the shape
    T1 = shift_matrix_value(2, 1, 1, field)
    assert not point_in_mu_chart(spec, [T1, T1], 1, field)
    # rank defect: the zero tuple is outside the chart
    zero = [[0, 0], [0, 0]]
    assert not point_in_mu_chart(spec, [zero, zero], 0, field)


def test_tau_zero_rank_dichotomy():
    """At tau = 0 every chart member has rank exactly n - d_i; the
    normal form succeeds on all of them (seeded conjugates)."""
    spec = ChainSpec(3, 1, 1, (1, 2))
    q = 5
    field = GF(q)
    rng = random.Random(99)
    for _ in range(20):
        frames = [random_frame(rng, 3, q) for _ in range(2)]
        point = conjugated_chain_point(spec, frames, 0, field)
        psi = chain_normal_form(spec, point, 0, field)
        verify_conjugation(spec, point, psi, 0, field)
