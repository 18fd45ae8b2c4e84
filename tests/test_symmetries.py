import hashlib

import pytest

from latmod.schemes import (
    apply_cyclic_shift,
    apply_symplectic_involution,
    generators_match_exactly,
    generators_match_up_to_sign,
    involution_permutation,
    mu_ideal,
)


def test_shift_zero_is_identity():
    mu = mu_ideal(2, 1, 1)
    sh = apply_cyclic_shift(mu, 0)
    assert list(sh.generators) == list(mu.generators)


def test_shift_full_cycle_is_identity():
    mu = mu_ideal(3, 1, 1)
    sh = apply_cyclic_shift(mu, 2)  # N+1 = 2 == 0 mod 2
    assert list(sh.generators) == list(mu.generators)


def test_shift_generator_set_fixed():
    for (n, r, N) in [(2, 1, 1), (2, 1, 2), (3, 1, 1), (3, 2, 2)]:
        mu = mu_ideal(n, r, N)
        for s in range(1, N + 1):
            sh = apply_cyclic_shift(mu, s)
            assert generators_match_exactly(mu.generators, sh.generators)


def test_shift_reduced_basis_equal_small():
    mu = mu_ideal(2, 1, 1)
    base = mu.ideal.groebner_basis()
    sh = apply_cyclic_shift(mu, 1)
    assert sh.ideal.groebner_basis() == base


def test_involution_permutation_shape():
    assert involution_permutation(1) == [0, 1]
    assert involution_permutation(2) == [0, 2, 1]
    assert involution_permutation(3) == [0, 3, 2, 1]


def test_involution_g1_basis_unchanged():
    mu = mu_ideal(2, 1, 1)
    inv = apply_symplectic_involution(mu)
    assert inv.ideal.groebner_basis() == mu.ideal.groebner_basis()


def test_involution_applied_twice_is_identity():
    for (g, N) in [(1, 1), (1, 2), (2, 1)]:
        mu = mu_ideal(2 * g, g, N)
        inv2 = apply_symplectic_involution(apply_symplectic_involution(mu))
        assert generators_match_exactly(mu.generators, inv2.generators)


def test_involution_signed_generator_set_fixed():
    for (g, N) in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        mu = mu_ideal(2 * g, g, N)
        inv = apply_symplectic_involution(mu)
        assert generators_match_up_to_sign(mu.generators, inv.generators)


@pytest.mark.parametrize(
    "g, N, digest",
    [
        (1, 1, "9eec8c5e8827c7a0ccd187e35309ec6ffc0625dfc68ffbf483340e2cfb2fe0f1"),
        (1, 2, "825e8fc58c9573d25caa4a296c5fae7c019e00367dd4051aa4b173679ac3ce2e"),
        (2, 1, "241695a7a16776f5bdfaef02c2c0479730625bee0fffbe2a7e77f9b4f5755434"),
        (2, 2, "b291e3081072c9b890000b990efabd838ee60eacc39a9817577c939403142be6"),
    ],
)
def test_involution_images_pinned(g, N, digest):
    """The sha256 of the involution's generators, in order."""
    inv = apply_symplectic_involution(mu_ideal(2 * g, g, N))
    text = "\n".join(map(str, inv.generators))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_involution_fixes_t():
    mu = mu_ideal(2, 1, 1)
    inv = apply_symplectic_involution(mu)
    t = mu.ring.var("t")
    # t appears in the transformed generators exactly as before
    for g in inv.generators:
        assert g.degree_in("t") <= 1


def test_involution_requires_symplectic_shape():
    mu = mu_ideal(3, 1, 1)
    with pytest.raises(ValueError):
        apply_symplectic_involution(mu)


def test_shift_requires_mu_chart():
    from latmod.chains import ChainSpec
    from latmod.schemes import local_model_ideal

    lm = local_model_ideal(ChainSpec(2, 1, 1, (1, 1)))
    with pytest.raises(ValueError):
        apply_cyclic_shift(lm, 1)
