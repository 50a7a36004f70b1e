"""Floating-point evaluators: series, classical sums, quadrature."""

import cmath
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.polynomial import legendre as npleg

from polydist import polylog_num
from polydist.polylog_num import (
    ConvergenceError,
    DivergentWordError,
    MPLQuery,
    PathError,
    iterint_quadrature,
    li_classical,
    mpl_series,
    verify_numeric_calibration,
    verify_numeric_classical,
    verify_numeric_cross_oracle,
    verify_numeric_distribution,
)
from polydist.report import ParameterError
from polydist.words import FLAVOR_STANDARD, Word, parse_word


# Reference route for the spectral matrix: one Legendre refit per panel.
def _integral_from_oracle(eps, word, z, zeta, nodes):
    """Iterated integral along t -> t·z for t in [eps, 1], collocation on
    Gauss-Legendre panels with spectral cumulative integration."""
    glx, _ = npleg.leggauss(nodes)
    bounds = polylog_num._panel_bounds(eps)
    panels = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        t = a + (b - a) * (glx + 1.0) / 2.0
        panels.append((a, b, t))

    level_vals = [np.ones(nodes, dtype=complex) for _ in panels]
    for letter in word.letters:
        if letter == 0:
            forms = [1.0 / t for (_, _, t) in panels]
        else:
            pole = zeta ** (letter - 1)
            forms = [z / (t * z - pole) for (_, _, t) in panels]
        start = 0j
        new_vals = []
        for (a, b, t), prev, f in zip(panels, level_vals, forms):
            g = prev * f
            coeffs = npleg.legfit(2.0 * (t - a) / (b - a) - 1.0, g, nodes - 1)
            anti = npleg.legint(coeffs, lbnd=-1.0)
            scale = (b - a) / 2.0
            cumulative = scale * npleg.legval(2.0 * (t - a) / (b - a) - 1.0, anti)
            new_vals.append(start + cumulative)
            start = start + scale * npleg.legval(1.0, anti)
        level_vals = new_vals
    return start


# Reference route for the unit circle: direct summation of the series up to
# the Abel bound 4/(|1-z|·M^k), before the tail became exact corrections.
def _li_classical_direct(k, z, tol=1e-12, max_terms=8_000_000):
    z = complex(z)
    az = abs(z)
    if az > 1 + 1e-15:
        raise ConvergenceError("classical series needs |z| <= 1")
    if z == 1 and k < 3:
        if k == 1:
            raise DivergentWordError("depth-1 value at z = 1 diverges")
        raise ConvergenceError(
            "depth-2 at z = 1 is out of certified reach of direct summation"
        )
    if az < 1:
        if az == 0:
            return 0j
        terms = int(math.ceil(math.log(tol * (1 - az)) / math.log(az))) + 1
    elif z == 1:
        terms = int(math.ceil((1.0 / (tol * (k - 1))) ** (1.0 / (k - 1)))) + 1
    else:
        if k < 2:
            raise ConvergenceError("need k >= 2 on the unit circle")
        bound = 4.0 / abs(1 - z)
        terms = int(math.ceil((bound / tol) ** (1.0 / k))) + 1
    if terms > max_terms:
        raise ConvergenceError(
            f"would need {terms} terms (> max_terms={max_terms})"
        )
    chunk = 1 << 16  # a few full-size complex temporaries per chunk
    partials = []
    for start in range(1, terms + 1, chunk):
        stop = min(start + chunk, terms + 1)
        m = np.arange(start, stop, dtype=float)
        vals = np.power(z, np.arange(start, stop)) / m**k
        partials.append(complex(np.sum(vals)))
    return complex(
        math.fsum(p.real for p in partials), math.fsum(p.imag for p in partials)
    )


@st.composite
def standard_words(draw, max_degree=6, max_depth=4):
    """Convergent standard words at levels 1-3: a Y first, at most
    ``max_depth`` Y letters in all."""
    level = draw(st.integers(1, 3))
    degree = draw(st.integers(1, max_degree))
    letters = [draw(st.integers(1, level))]
    for _ in range(degree - 1):
        if sum(1 for a in letters if a) < max_depth:
            letters.append(draw(st.integers(0, level)))
        else:
            letters.append(0)
    return Word(level, FLAVOR_STANDARD, tuple(letters))


def disc_points(r_min, r_max):
    return st.builds(
        lambda r, theta: r * cmath.exp(1j * theta),
        st.floats(r_min, r_max),
        st.floats(0.0, 2 * math.pi),
    )


def test_depth1_word_is_minus_li1():
    w = parse_word("n=1,std:Y0")
    got = mpl_series(MPLQuery(w, 0.5))
    assert abs(got - (-math.log(2.0))) < 1e-12  # -Li_1(1/2) = ln(1/2)


def test_depth2_word_against_classical():
    w = parse_word("n=1,std:Y0.X")
    for z in (0.3, -0.6, 0.2 + 0.5j):
        got = mpl_series(MPLQuery(w, z, tol=1e-13))
        want = -li_classical(2, z, tol=1e-13)
        assert abs(got - want) < 1e-12


def test_level2_depth1_picks_rotated_argument():
    # Y_i X^(k-1) at level n evaluates to -Li_k(z * zeta^(-i))
    w = parse_word("n=2,std:Y1.X")
    z = 0.35 + 0.1j
    got = mpl_series(MPLQuery(w, z, tol=1e-13))
    want = -li_classical(2, -z, tol=1e-13)  # zeta = -1 at level 2
    assert abs(got - want) < 1e-12


def test_word_validation_errors():
    with pytest.raises(DivergentWordError):
        mpl_series(MPLQuery(parse_word("n=1,std:X.Y0"), 0.5))
    with pytest.raises(DivergentWordError):
        mpl_series(MPLQuery(parse_word("n=1,std:"), 0.5))
    with pytest.raises(DivergentWordError):
        w = parse_word("n=1,til:Y0")
        mpl_series(MPLQuery(w, 0.5))


def test_series_domain_errors():
    w = parse_word("n=1,std:Y0")
    with pytest.raises(ConvergenceError):
        mpl_series(MPLQuery(w, 1.0))
    with pytest.raises(ConvergenceError):
        mpl_series(MPLQuery(w, 0.999999, max_terms=100))
    assert mpl_series(MPLQuery(w, 0.0)) == 0


def test_li_classical_boundary_domains():
    assert abs(li_classical(4, 1.0, tol=1e-10) - math.pi**4 / 90) < 1e-10
    with pytest.raises(DivergentWordError):
        li_classical(1, 1.0)
    with pytest.raises(ConvergenceError):
        li_classical(2, 1.0)
    with pytest.raises(ConvergenceError):
        li_classical(2, 1.5)
    # unit circle away from 1: Abel bound applies
    got = li_classical(2, 1j, tol=1e-10)
    catalan = 0.915965594177219015
    want = -(math.pi**2) / 48 + 1j * catalan
    assert abs(got - want) < 1e-9
    # zeta(3) by direct summation: 0.71 M terms, so the sum runs over
    # several chunks of the evaluator; the integral bound is sharp at z = 1,
    # so rounding may add a few ulps to the truncation error
    assert abs(li_classical(3, 1.0, tol=1e-12) - 1.2020569031595942) < 1e-12 + 1e-14


@pytest.mark.parametrize(
    "theta, tol",
    [(t, 1e-10) for t in (0.5, math.pi / 3, 2.0, math.pi, 4.0, 6.0)]
    + [(t, 1e-12) for t in (math.pi / 3, math.pi, 1e-3, 2 * math.pi - 1e-3)],
)
def test_li_classical_on_the_unit_circle_matches_the_closed_form(theta, tol):
    # Re Li_2(e^{i theta}) = pi^2/6 - pi theta/2 + theta^2/4 on (0, 2 pi).
    # At theta = 1e-3 and 2 pi - 1e-3 direct summation would need 63 M
    # terms, past max_terms; with the Abel corrections 23 k terms suffice.
    got = li_classical(2, cmath.exp(1j * theta), tol=tol)
    want = math.pi**2 / 6 - math.pi * theta / 2 + theta**2 / 4
    assert abs(got.real - want) < tol


@given(st.integers(2, 5), st.floats(0.3, 2 * math.pi - 0.3))
@settings(max_examples=30, deadline=None)
def test_li_classical_on_the_unit_circle_matches_direct_summation(k, theta):
    z = cmath.exp(1j * theta)
    # where e^(i theta) rounds to |z| < 1, direct summation takes the
    # geometric route and refuses (see the next test)
    assume(abs(z) >= 1)
    got = li_classical(k, z, tol=1e-10)
    assert abs(got - _li_classical_direct(k, z, tol=1e-10)) <= 2e-10


def test_li_classical_takes_a_modulus_rounded_below_one_as_the_unit_circle():
    theta = math.pi / 3
    z = cmath.exp(1j * theta) * (1 - 2.0**-52)
    assert abs(z) < 1
    with pytest.raises(ConvergenceError):
        _li_classical_direct(2, z, tol=1e-12)
    got = li_classical(2, z, tol=1e-12)
    want = math.pi**2 / 6 - math.pi * theta / 2 + theta**2 / 4
    assert abs(got.real - want) < 1e-12


def test_li_classical_on_the_unit_circle_refuses_past_max_terms():
    z = cmath.exp(1e-3j)
    assert li_classical(2, z, tol=1e-12, max_terms=30_000)
    with pytest.raises(ConvergenceError, match="max_terms"):
        li_classical(2, z, tol=1e-12, max_terms=20_000)


@pytest.mark.parametrize("k, theta", [(1, 0.3), (2, 1.0), (3, 2.5)])
def test_li_classical_inside_the_disk_abel_matches_direct_summation(k, theta):
    # at |z| = 1 - 1e-4 the geometric bound sums about 3e5 terms, the Abel
    # plan about 100: both routes must agree within their tolerances
    z = (1 - 1e-4) * cmath.exp(1j * theta)
    with mock.patch.object(
        polylog_num, "_abel_tail", wraps=polylog_num._abel_tail
    ) as tail:
        got = li_classical(k, z, tol=1e-10)
    assert tail.call_count == 1
    assert abs(got - _li_classical_direct(k, z, tol=1e-10)) <= 2e-10
    if k == 1:
        assert abs(got + cmath.log(1 - z)) <= 1e-10


def test_li_classical_certifies_just_inside_the_unit_circle():
    # the geometric bound would need 41,446,512 terms here
    z = (1 - 1e-6) * cmath.exp(1j)
    with pytest.raises(ConvergenceError, match="41446512 terms"):
        _li_classical_direct(2, z, tol=1e-12)
    assert abs(li_classical(1, z) + cmath.log(1 - z)) < 1e-12
    # the distribution relation Li_2(z^2) = 2 (Li_2(z) + Li_2(-z))
    lhs = li_classical(2, z * z)
    assert abs(lhs - 2 * (li_classical(2, z) + li_classical(2, -z))) < 1e-11


@pytest.mark.parametrize("tol", [1e-10, 1e-12, 1e-13, 1e-15])
def test_li_classical_keeps_the_geometric_route_up_to_modulus_0_81(tol):
    with mock.patch.object(
        polylog_num, "_abel_plan", wraps=polylog_num._abel_plan
    ) as plan:
        for k in range(1, 6):
            for r in (0.1, 0.5, 0.7, 0.81):
                for theta in (0.0, 0.5, 2.0, math.pi):
                    z = r * cmath.exp(1j * theta)
                    assert li_classical(k, z, tol=tol) == _li_classical_direct(
                        k, z, tol=tol
                    )
    assert plan.call_count == 0


def test_kubert_identity_for_classical_li():
    # Li_k(z^2) = 2^(k-1) (Li_k(z) + Li_k(-z))
    for k in (1, 2, 3):
        for z in (0.4, 0.3 + 0.2j):
            lhs = li_classical(k, z**2, tol=1e-13)
            rhs = 2 ** (k - 1) * (
                li_classical(k, z, tol=1e-13) + li_classical(k, -z, tol=1e-13)
            )
            assert abs(lhs - rhs) < 1e-11


def test_quadrature_agrees_with_series():
    for text, z in [
        ("n=1,std:Y0.X", 0.4),
        ("n=2,std:Y0.X.Y1", 0.3 + 0.25j),
        ("n=1,std:Y0.X.X", -0.55),
    ]:
        q = MPLQuery(parse_word(text), z, tol=1e-10)
        assert abs(mpl_series(q) - iterint_quadrature(q)) < 1e-9


def test_evaluators_agree_at_origin():
    for text in ["n=1,std:Y0.X", "n=2,std:Y1", "n=3,std:Y2.X.Y0", "n=1,std:Y0.Y0.X"]:
        q = MPLQuery(parse_word(text), 0)
        assert iterint_quadrature(q) == mpl_series(q) == 0
    # word validation still comes first
    with pytest.raises(DivergentWordError):
        iterint_quadrature(MPLQuery(parse_word("n=1,std:X.Y0"), 0))


def test_quadrature_rejects_close_puncture():
    w = parse_word("n=1,std:Y0.X")
    with pytest.raises(PathError):
        iterint_quadrature(MPLQuery(w, 0.95))  # endpoint 0.05 from puncture 1
    with pytest.raises(PathError):
        iterint_quadrature(MPLQuery(w, 1.2))


def test_quadrature_rejects_divergent_word():
    with pytest.raises(DivergentWordError):
        iterint_quadrature(MPLQuery(parse_word("n=1,std:X.Y0"), 0.4))


def test_calibration_engine_tight():
    rep = verify_numeric_calibration(k_max=4, tol=1e-10)
    assert rep.ok
    worst = [r for r in rep.residuals if r["kind"] == "worst-deviation"]
    assert worst and worst[0]["value"] < 1e-12


def test_distribution_engine_points():
    for n, z in [(2, 0.5), (3, -0.3), (2, 0.3 + 0.2j)]:
        rep = verify_numeric_distribution(1, n, z, tol=1e-10)
        assert rep.ok, rep.failures()


def test_classical_constants_engine():
    rep = verify_numeric_classical()
    assert rep.ok
    assert abs(li_classical(2, -1.0, tol=1e-13) + math.pi**2 / 12) < 1e-12


def test_spectral_rule_matches_legendre_refit():
    x, S, w = polylog_num._spectral_rule(14)
    rng = np.random.default_rng(5)
    g = rng.standard_normal(14) + 1j * rng.standard_normal(14)
    anti = npleg.legint(npleg.legfit(x, g, 13), lbnd=-1.0)
    assert np.allclose(S @ g, npleg.legval(x, anti), rtol=0, atol=1e-13)
    assert abs(w @ g - npleg.legval(1.0, anti)) < 1e-13
    assert polylog_num._spectral_rule(14) is polylog_num._spectral_rule(14)


@given(standard_words(), disc_points(0.05, 0.6))
@settings(max_examples=20, deadline=None)
def test_spectral_panels_match_refit_oracle(word, z):
    """Every epsilon level the quadrature asks for agrees with the per-panel
    refit, and so does the extrapolated value with the refit swapped in."""
    spectral = polylog_num._integral_from

    def checked_oracle(eps, word, z, zeta, nodes):
        want = _integral_from_oracle(eps, word, z, zeta, nodes)
        assert abs(spectral(eps, word, z, zeta, nodes) - want) <= 1e-12
        return want

    query = MPLQuery(word, z)
    fast = iterint_quadrature(query)
    with mock.patch.object(polylog_num, "_integral_from", checked_oracle):
        slow = iterint_quadrature(query)
    assert abs(fast - slow) <= 1e-12


@given(standard_words(max_degree=8, max_depth=8), disc_points(0.0, 0.95))
@settings(max_examples=80, deadline=None)
def test_series_tail_premise_holds_for_ordinary_words(word, z):
    mpl_series(MPLQuery(word, z))


def test_series_refuses_when_tail_premise_breaks(monkeypatch):
    # a "root of unity" of modulus 1/2 makes |alpha_m| = 2^m/m for Y1
    word = parse_word("n=2,std:Y1")
    assert abs(mpl_series(MPLQuery(word, 0.3)) - math.log(1.3)) < 1e-12
    monkeypatch.setattr(
        polylog_num, "_root_of_unity", lambda n: 0.5 * cmath.exp(2j * cmath.pi / n)
    )
    with pytest.raises(ConvergenceError, match="tail bound"):
        mpl_series(MPLQuery(word, 0.3))


@pytest.mark.parametrize("seed", [0, 20171109])
def test_cross_oracle_depth4_reach(seed):
    rep = verify_numeric_cross_oracle(
        trials=200, seed=seed, max_depth=4, max_degree=6
    )
    assert rep.ok, rep.failures()
    assert rep.params["tol"] == 1e-8


@pytest.mark.parametrize(
    "engine, kwargs, message",
    [
        (verify_numeric_calibration, {"k_max": 0}, "k_max = 0 must be >= 1"),
        (verify_numeric_cross_oracle, {"trials": 0}, "trials = 0 must be >= 1"),
        (verify_numeric_cross_oracle, {"trials": -3}, "trials = -3 must be >= 1"),
        (verify_numeric_distribution, {"r": 1, "n": 2, "z": 0}, r"0 < \|z\| < 1"),
        (verify_numeric_distribution, {"r": 1, "n": 2, "z": 1.5}, r"0 < \|z\| < 1"),
        (verify_numeric_distribution, {"r": 1, "n": 2, "z": 0.6 + 0.8j},
         r"0 < \|z\| < 1"),
        (verify_numeric_distribution,
         {"r": 1, "n": 2, "z": 0.5, "words": [parse_word("n=1,til:Y0")]},
         "standard-flavor words"),
        (verify_numeric_distribution,
         {"r": 1, "n": 2, "z": 0.5, "words": [parse_word("n=1,std:")]},
         "the empty word"),
        (verify_numeric_distribution,
         {"r": 1, "n": 2, "z": 0.5, "words": [parse_word("n=1,std:X.Y0")]},
         "starts with X"),
    ],
)
def test_vacuous_numeric_certificates_are_refused_before_any_work(
    monkeypatch, engine, kwargs, message
):
    # with no point or no query these reports would pass on nothing; a point
    # outside the unit disc or a word the evaluators refuse ends in an engine
    # error
    def no_work(*args, **kwargs):
        raise AssertionError("a value was evaluated")

    monkeypatch.setattr(polylog_num, "mpl_series", no_work)
    with pytest.raises(ParameterError, match=message):
        engine(**kwargs)


@pytest.mark.parametrize("r, n", [(0, 2), (1, 0), (1, -1), (-1, 3)])
def test_numeric_distribution_refuses_a_level_below_1_before_any_work(
    monkeypatch, r, n
):
    # n = 0 would evaluate at z^0 = 1 and fail as a convergence error
    def no_work(*args, **kwargs):
        raise AssertionError("a value was evaluated")

    monkeypatch.setattr(polylog_num, "mpl_series", no_work)
    monkeypatch.setattr(polylog_num, "enumerate_lifts", no_work)
    with pytest.raises(ParameterError, match=f"got r = {r}, n = {n}"):
        verify_numeric_distribution(r, n, 0.5)
