"""Finite-level measures: moments, push-forwards, congruences."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polydist.measures import (
    FiniteMeasure,
    MeasureError,
    bernoulli_congruence_check,
    moment_exact,
    pushforward_mul,
    random_measure,
    translate_chi,
    verify_measure_pushforward,
)

fractions = st.fractions(min_value=-5, max_value=5, max_denominator=8)


def test_measure_validation():
    mu = FiniteMeasure(3, 1, Fraction(0), (1, 2, 3))
    assert mu.mass() == 6
    with pytest.raises(MeasureError):
        FiniteMeasure(3, 1, Fraction(0), (1, 2))  # wrong grid size
    with pytest.raises(MeasureError):
        FiniteMeasure(4, 1, Fraction(0), (1, 2, 3, 4))  # 4 is not prime


def test_measure_add_and_json_roundtrip():
    a = FiniteMeasure(2, 2, Fraction(1, 3), (1, 0, 2, 5))
    b = FiniteMeasure(2, 2, Fraction(1, 3), (0, 1, 1, 1))
    s = a.add(b)
    assert s.values == (1, 1, 3, 6)
    assert FiniteMeasure.from_json_dict(a.to_json_dict()) == a
    with pytest.raises(MeasureError):
        a.add(FiniteMeasure(2, 2, Fraction(0), (0, 0, 0, 0)))


def test_moment_exact_by_hand():
    # sum of v_a (o + a)^(k-1) over the level-ell^m grid
    mu = FiniteMeasure(3, 1, Fraction(1, 2), (1, 0, 4))
    assert moment_exact(mu, 1) == 5
    assert moment_exact(mu, 2) == Fraction(1, 2) + 4 * Fraction(5, 2)
    assert moment_exact(mu, 3) == Fraction(1, 4) + 4 * Fraction(25, 4)


def _moment_exact_oracle(mu, k):
    """The moment as a sum of Fraction powers, one per grid point."""
    total = Fraction(0)
    for a, v in enumerate(mu.values):
        if v:
            total += v * (mu.offset + a) ** (k - 1)
    return total


@st.composite
def small_measures(draw):
    ell = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.integers(0, 3))
    offset = Fraction(draw(st.integers(-40, 40)), draw(st.integers(1, 12)))
    values = draw(
        st.lists(st.integers(-30, 30), min_size=ell**m, max_size=ell**m)
    )
    return FiniteMeasure(ell, m, offset, tuple(values))


@given(small_measures(), st.integers(1, 8))
@settings(max_examples=120, deadline=None)
def test_moment_exact_matches_fraction_oracle(mu, k):
    got = moment_exact(mu, k)
    assert isinstance(got, Fraction)
    assert got == _moment_exact_oracle(mu, k)
    with pytest.raises(MeasureError):
        moment_exact(mu, 0)


def test_pushforward_by_hand():
    mu = FiniteMeasure(3, 2, Fraction(0), tuple(range(9)))
    nu = pushforward_mul(mu, 3)
    # multiplication by 3 sends a to 3a mod 9, then the grid coarsens to 3
    assert nu.m == 1 and nu.offset == 0
    assert nu.mass() == mu.mass()
    want = [0] * 3
    for a in range(9):
        want[(3 * a) % 3 * 0 + (0 + 3 * a) % 3] += mu.values[a]
    # 3a mod 3 == 0 for every a: everything lands on the zero class
    assert nu.values == (36, 0, 0)


def test_pushforward_unit_multiplier_permutes():
    mu = FiniteMeasure(5, 1, Fraction(0), (1, 2, 3, 4, 5))
    nu = pushforward_mul(mu, 2)
    assert nu.m == 1
    assert sorted(nu.values) == sorted(mu.values)
    assert nu.values[0] == mu.values[0]  # 0 stays put
    assert nu.values[2] == mu.values[1]  # 1 -> 2


def test_pushforward_error_contracts():
    mu = FiniteMeasure(3, 1, Fraction(1, 2), (1, 1, 1))
    with pytest.raises(MeasureError):
        pushforward_mul(mu, 3)  # n*offset = 3/2 not integral
    shallow = FiniteMeasure(3, 0, Fraction(0), (7,))
    with pytest.raises(MeasureError):
        pushforward_mul(shallow, 3)  # m - v_3(3) < 0


def test_pushforward_moment_scaling_congruence():
    """moment_k(push) = n^(k-1) moment_k(mu) holds mod ell^m', not exactly:
    the grid reduction folds representatives back into [0, ell^m')."""
    rng = random.Random(11)
    mu = random_measure(3, 3, Fraction(1, 2), rng)
    nu = pushforward_mul(mu, 2)
    for k in range(1, 7):
        diff = 2 ** (k - 1) * moment_exact(mu, k) - moment_exact(nu, k)
        assert diff.denominator == 1
        assert diff.numerator % 3**3 == 0


@given(st.lists(fractions, min_size=4, max_size=4), fractions, fractions)
@settings(max_examples=60)
def test_translate_chi_is_an_action(chi, a, b):
    once = translate_chi(translate_chi(chi, a, 4), b, 4)
    assert once == translate_chi(chi, a + b, 4)
    assert translate_chi(chi, Fraction(0), 4) == list(chi)


def test_translate_chi_binomial_spot():
    chi = [Fraction(0), Fraction(1), Fraction(0)]
    # depth 3 with shift t: sum_i C(2, i) t^(2-i) chi_(i+1) = 2t
    got = translate_chi(chi, Fraction(3), 3)
    assert got[2] == 6


def test_verify_pushforward_engine():
    rep = verify_measure_pushforward(3, 2, 2, trials=10, seed=5, depth=4)
    assert rep.ok
    names = [c.name for c in rep.checks]
    assert "branch-moment-scaling" in names
    assert "summed-moment-distribution" in names
    assert "corruption-detected" in names


def test_verify_pushforward_determinism():
    a = verify_measure_pushforward(2, 3, 2, trials=8, seed=3)
    b = verify_measure_pushforward(2, 3, 2, trials=8, seed=3)
    assert [(c.name, c.ok, c.detail) for c in a.checks] == [
        (c.name, c.ok, c.detail) for c in b.checks
    ]


def test_bernoulli_congruence_frozen_value():
    """The lattice membership is an exact equality: T = -(c^2-1)/24."""
    for q, c in [(8, 3), (9, 5), (16, 7), (27, 25)]:
        rep = bernoulli_congruence_check(q, c)
        assert rep.ok
        observed = [r for r in rep.residuals if r["kind"] == "observed-difference"]
        assert observed and observed[0]["value"] == "0"


def test_bernoulli_congruence_rejects_bad_input():
    with pytest.raises(MeasureError):
        bernoulli_congruence_check(10, 3)  # 10 is not a prime power
    with pytest.raises(MeasureError):
        bernoulli_congruence_check(9, 4)  # even c
    with pytest.raises(MeasureError):
        bernoulli_congruence_check(9, 3)  # gcd(3, 18) > 1


def test_random_measure_respects_seed():
    a = random_measure(5, 2, Fraction(0), random.Random(1))
    b = random_measure(5, 2, Fraction(0), random.Random(1))
    assert a == b
