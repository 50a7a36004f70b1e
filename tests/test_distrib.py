"""Symbolic verification engines and character/value conversions."""

import os
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polydist import distrib
from polydist.distrib import (
    DegreeCapError,
    chi_from_li,
    derive_eisenstein_specialization,
    group_like_from_chi,
    li_from_chi,
    tangential_even_character,
    verify_bch_closed_form,
    verify_conversions,
    verify_formal_distribution,
    verify_homogeneous_polylog,
    verify_inhomogeneous_pipeline,
)
from polydist.geometry import pi_morphism
from polydist.ncseries import AlgebraMorphism, NCSeries
from polydist.scalars import PolyRing
from polydist.words import (
    FLAVOR_STANDARD,
    FLAVOR_TILDE,
    empty_word,
    parse_word,
    words_up_to_degree,
    x_letter,
    y_letter,
)

fractions = st.fractions(min_value=-8, max_value=8, max_denominator=6)


@given(fractions, st.lists(fractions, min_size=5, max_size=5))
@settings(max_examples=40)
def test_chi_li_roundtrip_rational(rho, li_values):
    chi = [chi_from_li(rho, li_values, m) for m in range(1, 6)]
    for m in range(1, 6):
        assert li_from_chi(rho, chi, m) == li_values[m - 1]


def test_li_chi_roundtrip_symbolic():
    depth = 6
    names = ["rho"] + [f"x{m}" for m in range(1, depth + 1)]
    ring = PolyRing(names)
    rho = ring.sym("rho")
    chi_values = [ring.sym(f"x{m}") for m in range(1, depth + 1)]
    li = [li_from_chi(rho, chi_values, m) for m in range(1, depth + 1)]
    for m in range(1, depth + 1):
        assert chi_from_li(rho, li, m) == chi_values[m - 1]


def test_depth_two_conversion_spot_check():
    # chi_2 = -li_2 - (rho/2) li_1, worked by hand from the recursion
    ring = PolyRing(["rho", "l1", "l2"])
    rho, l1, l2 = (ring.sym(s) for s in ("rho", "l1", "l2"))
    got = chi_from_li(rho, [l1, l2], 2)
    assert got == -l2 - rho * l1 * Fraction(1, 2)
    assert chi_from_li(rho, [l1], 1) == l1


def test_group_like_coefficients():
    depth = 5
    ring = PolyRing(["rho"] + [f"x{m}" for m in range(1, depth + 1)])
    rho = ring.sym("rho")
    chi_values = [ring.sym(f"x{m}") for m in range(1, depth + 1)]
    g = group_like_from_chi(ring, rho, chi_values, depth)
    fact = [1, 1, 2, 6, 24, 120]
    for i in range(depth + 1):
        xi = parse_word("n=1,std:" + ".".join(["X"] * i)) if i else empty_word(1)
        assert g.coefficient(xi) == (-rho) ** i * Fraction(1, fact[i])
    for i in range(depth):
        w = parse_word("n=1,std:" + ".".join(["Y0"] + ["X"] * i))
        assert g.coefficient(w) == -chi_values[i] * Fraction(1, fact[i])


def test_formal_distribution_tilde_small():
    rep = verify_formal_distribution(r=1, n=2, degree=4, flavor="til")
    assert rep.ok
    names = [c.name for c in rep.checks]
    assert "empty-word-normalized" in names
    assert "all-residuals-zero" in names


def test_formal_distribution_standard_residual_frozen():
    """Doubling at level 1: the Y0.X residual is exactly -c[Y1].

    Push of the generic series minus the lift-sum prediction, computed
    independently here with a 2-truncated morphism.
    """
    rep = verify_formal_distribution(r=1, n=2, degree=3, flavor="std")
    assert rep.ok
    # independent recomputation at degree 2
    trunc = 2
    source_words = words_up_to_degree(2, FLAVOR_STANDARD, trunc, 1)
    ring = PolyRing([f"c[{w}]" for w in source_words])
    gen = NCSeries.one(ring, 2, FLAVOR_STANDARD, trunc)
    for w in source_words:
        gen = gen + NCSeries.monomial(ring, w, trunc, ring.sym(f"c[{w}]"))
    pushed = pi_morphism(1, 2, trunc, FLAVOR_STANDARD).apply(gen)
    yx = parse_word("n=1,std:Y0.X")
    actual = pushed.coefficient(yx)
    predicted = (
        ring.sym("c[n=2,std:Y0.X]") + ring.sym("c[n=2,std:Y1.X]")
    ) * Fraction(2)
    assert actual - predicted == -ring.sym("c[n=2,std:Y1]")


@pytest.mark.parametrize(
    "flavor, corrupt_x, failing",
    [
        (FLAVOR_TILDE, True, "all-residuals-zero"),
        (FLAVOR_STANDARD, False, "x-free-words-exact"),
        (FLAVOR_STANDARD, True, "residual-support-shorter-words"),
    ],
)
def test_formal_distribution_negative_control(monkeypatch, flavor, corrupt_x, failing):
    """One corrupted letter image of the push-forward must fail the report:
    X -> (n+1)·X, or Y_0 -> 2·Y_0."""

    def corrupted_pi(r, n, trunc, flavor):
        phi = pi_morphism(r, n, trunc, flavor)
        if corrupt_x:
            letter, factor = x_letter(r * n, flavor), Fraction(n + 1, n)
        else:
            letter, factor = y_letter(0, r * n, flavor), Fraction(2)
        images = dict(phi.images)
        images[letter] = images[letter].scale(factor)
        return AlgebraMorphism(r * n, flavor, r, flavor, images, trunc)

    monkeypatch.setattr(distrib, "pi_morphism", corrupted_pi)
    rep = verify_formal_distribution(r=1, n=2, degree=3, flavor=flavor)
    assert not rep.ok
    assert failing in [c.name for c in rep.checks if not c.ok]


def test_bch_closed_form_unique_winner():
    rep = verify_bch_closed_form(degree=5)
    assert rep.ok
    by_name = {c.name: c for c in rep.checks}
    assert "base-denominator" in by_name["right-shift-unique-candidate"].detail
    assert by_name["unit-law-alpha-zero"].ok


def test_conversions_engine():
    rep = verify_conversions(depth=6)
    assert rep.ok
    names = [c.name for c in rep.checks]
    for expected in (
        "roundtrip-chi-li-chi",
        "roundtrip-li-chi-li",
        "group-like-x-coefficients",
        "group-like-y-coefficients",
        "single-y-log-extraction",
        "extraction-consistent-with-conversion",
    ):
        assert expected in names


def test_inhomogeneous_pipeline_small():
    rep = verify_inhomogeneous_pipeline(n=2, depth=4)
    assert rep.ok
    names = [c.name for c in rep.checks]
    assert "main-distribution-statement" in names
    assert "naive-guess-error-series" in names
    assert "value-series-closed-form" in names


def test_homogeneous_small():
    rep = verify_homogeneous_polylog(n=3, depth=4)
    assert rep.ok
    names = [c.name for c in rep.checks]
    assert "homogeneous-character-collapse" in names


def test_tangential_even_character_frozen():
    ring = PolyRing(["chi"])
    chi = ring.sym("chi")
    assert tangential_even_character(ring, 2) == (chi * chi - 1) * Fraction(1, 24)
    with pytest.raises(ValueError):
        tangential_even_character(ring, 3)


def test_eisenstein_values_frozen():
    rep = derive_eisenstein_specialization(k_max=3)
    assert rep.ok
    detail = {c.name: c.detail for c in rep.checks}
    assert "1/48" in detail["minus-one-depth2-value"]
    assert "-7/1920" in detail["minus-one-even-depth-values"]
    assert "31/16128" in detail["minus-one-even-depth-values"]


def test_degree_cap_env(monkeypatch):
    monkeypatch.setenv("POLYDIST_MAX_DEGREE", "3")
    with pytest.raises(DegreeCapError):
        verify_formal_distribution(r=1, n=2, degree=4, flavor="til")
    monkeypatch.delenv("POLYDIST_MAX_DEGREE")
    assert os.environ.get("POLYDIST_MAX_DEGREE") is None
