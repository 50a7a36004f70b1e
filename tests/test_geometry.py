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
from polydist.words import (
    FLAVOR_STANDARD,
    FLAVOR_TILDE,
    alphabet,
    word_of,
    x_letter,
    y_letter,
)


def test_conjugation_matches_exp_sandwich():
    # exp(kX) Y exp(-kX), expanded directly, for several k
    trunc = 6
    x = NCSeries.monomial(QQ, word_of([x_letter(1)], 1), trunc)
    y = NCSeries.monomial(QQ, word_of([y_letter(0, 1)], 1), trunc)
    for k in (-2, -1, 0, 1, 3):
        sandwich = x.scale(Fraction(k)).exp() * y * x.scale(Fraction(-k)).exp()
        assert conjugated_puncture_letter(k, trunc) == sandwich


def test_pi_images_doubling():
    trunc = 3
    phi = pi_morphism(1, 2, trunc, FLAVOR_STANDARD)
    x2 = x_letter(2)
    y02, y12 = y_letter(0, 2), y_letter(1, 2)
    x = NCSeries.monomial(QQ, word_of([x_letter(1)], 1), trunc)
    y = NCSeries.monomial(QQ, word_of([y_letter(0, 1)], 1), trunc)
    assert phi.letter_image(x2) == x.scale(Fraction(2))
    assert phi.letter_image(y02) == y
    assert phi.letter_image(y12) == x.exp() * y * (-x).exp()


def test_pi_tilde_forgets_conjugation():
    trunc = 4
    phi = pi_morphism(2, 2, trunc, FLAVOR_TILDE)
    for j in range(4):
        img = phi.letter_image(y_letter(j, 4, FLAVOR_TILDE))
        want = NCSeries.monomial(
            QQ, word_of([y_letter(j % 2, 2, FLAVOR_TILDE)], 2, FLAVOR_TILDE), trunc
        )
        assert img == want


@pytest.mark.parametrize("flavor", [FLAVOR_STANDARD, FLAVOR_TILDE])
def test_pi_tower_composition(flavor):
    # pushing down r*n*m -> r*n -> r equals pushing r*n*m -> r directly
    trunc = 4
    for r, n, m in [(1, 2, 2), (1, 2, 3), (2, 2, 2), (1, 3, 2)]:
        lower = pi_morphism(r, n, trunc, flavor)
        upper = pi_morphism(r * n, m, trunc, flavor)
        direct = pi_morphism(r, n * m, trunc, flavor)
        composed = lower.compose(upper)
        for letter in alphabet(r * n * m, flavor):
            assert composed.letter_image(letter) == direct.letter_image(letter)


def test_j_zeta_branch_projection():
    trunc = 4
    n = 3
    phi = j_zeta_morphism(n, 1, trunc, FLAVOR_STANDARD)
    x = NCSeries.monomial(QQ, word_of([x_letter(1)], 1), trunc)
    y = NCSeries.monomial(QQ, word_of([y_letter(0, 1)], 1), trunc)
    assert phi.letter_image(x_letter(n)) == x
    assert phi.letter_image(y_letter(1, n)) == x.exp() * y * (-x).exp()
    assert phi.letter_image(y_letter(0, n)).is_zero()
    assert phi.letter_image(y_letter(2, n)).is_zero()


def test_j_zeta_base_branch():
    trunc = 3
    phi = j_zeta_morphism(2, 0, trunc, FLAVOR_TILDE)
    y = NCSeries.monomial(
        QQ, word_of([y_letter(0, 1, FLAVOR_TILDE)], 1, FLAVOR_TILDE), trunc
    )
    assert phi.letter_image(y_letter(0, 2, FLAVOR_TILDE)) == y
    assert phi.letter_image(y_letter(1, 2, FLAVOR_TILDE)).is_zero()


def test_galois_twist():
    ring = PolyRing(["chi"])
    trunc = 3
    delta = galois_twist_delta(ring, 1, 2, trunc, FLAVOR_STANDARD)
    x1 = word_of([x_letter(1)], 1)
    assert delta.coefficient(x1) == (ring.sym("chi") - 1) * Fraction(1, 2)
    assert galois_twist_delta(ring, 1, 2, trunc, FLAVOR_TILDE).is_zero()
    with pytest.raises(UnknownSymbolError):
        galois_twist_delta(PolyRing(["rho"]), 1, 2, trunc, FLAVOR_STANDARD)

