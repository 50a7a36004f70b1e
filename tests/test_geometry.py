"""Covering morphisms: push-forwards, branch projections, twists."""

from fractions import Fraction

import pytest

from polydist.geometry import (
    conjugated_puncture_letter,
    galois_twist_delta,
    j_zeta_morphism,
    pi_morphism,
)
from polydist.ncseries import NCSeries
from polydist.scalars import QQ, PolyRing, UnknownSymbolError
from polydist.words import FLAVOR_STANDARD, FLAVOR_TILDE, parse_word


def test_conjugation_matches_exp_sandwich():
    # exp(kX) Y exp(-kX), expanded directly, for several k
    trunc = 6
    x = NCSeries.monomial(QQ, parse_word("n=1,std:X"), trunc)
    y = NCSeries.monomial(QQ, parse_word("n=1,std:Y0"), trunc)
    for k in (-2, -1, 0, 1, 3):
        sandwich = x.scale(Fraction(k)).exp() * y * x.scale(Fraction(-k)).exp()
        assert conjugated_puncture_letter(k, trunc) == sandwich


def test_pi_images_doubling():
    trunc = 3
    phi = pi_morphism(1, 2, trunc, FLAVOR_STANDARD)
    x = NCSeries.monomial(QQ, parse_word("n=1,std:X"), trunc)
    y = NCSeries.monomial(QQ, parse_word("n=1,std:Y0"), trunc)
    assert phi.images[0] == x.scale(Fraction(2))  # X
    assert phi.images[1] == y  # Y0
    assert phi.images[2] == x.exp() * y * (-x).exp()  # Y1


def test_pi_tilde_forgets_conjugation():
    trunc = 4
    phi = pi_morphism(2, 2, trunc, FLAVOR_TILDE)
    for j in range(4):
        img = phi.images[1 + j]
        want = NCSeries.monomial(QQ, parse_word(f"n=2,til:Y{j % 2}"), trunc)
        assert img == want


@pytest.mark.parametrize("flavor", [FLAVOR_STANDARD, FLAVOR_TILDE])
def test_pi_tower_composition(flavor):
    # pushing down r*n*m -> r*n -> r equals pushing r*n*m -> r directly
    trunc = 4
    for r, n, m in [(1, 2, 2), (1, 2, 3), (2, 2, 2), (1, 3, 2)]:
        lower = pi_morphism(r, n, trunc, flavor)
        upper = pi_morphism(r * n, m, trunc, flavor)
        direct = pi_morphism(r, n * m, trunc, flavor)
        for letter in range(r * n * m + 1):
            assert lower.apply(upper.images[letter]) == direct.images[letter]


def test_j_zeta_branch_projection():
    trunc = 4
    n = 3
    phi = j_zeta_morphism(n, 1, trunc, FLAVOR_STANDARD)
    x = NCSeries.monomial(QQ, parse_word("n=1,std:X"), trunc)
    y = NCSeries.monomial(QQ, parse_word("n=1,std:Y0"), trunc)
    assert phi.images[0] == x
    assert phi.images[2] == x.exp() * y * (-x).exp()  # Y1
    assert phi.images[1].is_zero()  # Y0
    assert phi.images[3].is_zero()  # Y2


def test_j_zeta_base_branch():
    trunc = 3
    phi = j_zeta_morphism(2, 0, trunc, FLAVOR_TILDE)
    y = NCSeries.monomial(QQ, parse_word("n=1,til:Y0"), trunc)
    assert phi.images[1] == y  # Y0
    assert phi.images[2].is_zero()  # Y1


def test_galois_twist():
    ring = PolyRing(["chi"])
    trunc = 3
    delta = galois_twist_delta(ring, 1, 2, trunc, FLAVOR_STANDARD)
    x1 = parse_word("n=1,std:X")
    assert delta.coefficient(x1) == (ring.sym("chi") - 1) * Fraction(1, 2)
    assert galois_twist_delta(ring, 1, 2, trunc, FLAVOR_TILDE).is_zero()
    with pytest.raises(UnknownSymbolError):
        galois_twist_delta(PolyRing(["rho"]), 1, 2, trunc, FLAVOR_STANDARD)

