"""Floating-point evaluators: series, classical sums, quadrature."""

import math

import pytest

from polydist.polylog_num import (
    ConvergenceError,
    DivergentWordError,
    MPLQuery,
    PathError,
    QuadratureOptions,
    iterint_quadrature,
    li_classical,
    mpl_series,
    verify_numeric_calibration,
    verify_numeric_classical,
    verify_numeric_distribution,
)
from polydist.words import empty_word, parse_word


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
        mpl_series(MPLQuery(empty_word(1), 0.5))
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


def test_quadrature_rejects_close_puncture():
    w = parse_word("n=1,std:Y0.X")
    with pytest.raises(PathError):
        iterint_quadrature(MPLQuery(w, 0.95))  # endpoint 0.05 from puncture 1
    with pytest.raises(PathError):
        iterint_quadrature(MPLQuery(w, 1.2))
    # a tighter option threshold rejects a previously fine path
    opts = QuadratureOptions(min_puncture_distance=0.7)
    with pytest.raises(PathError):
        iterint_quadrature(MPLQuery(w, 0.5), opts)


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
