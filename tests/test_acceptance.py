"""Acceptance suite: the ten headline guarantees, one test each.

Every test drives a verification engine at its full advertised parameters
and tolerances; `pytest -v tests/test_acceptance.py` prints one pass/fail
line per criterion.  These are intentionally end-to-end — unit-level
coverage lives in the sibling test modules.
"""

import math
import time

from polydist.distrib import (
    derive_eisenstein_specialization,
    verify_bch_closed_form,
    verify_conversions,
    verify_formal_distribution,
    verify_homogeneous_polylog,
    verify_inhomogeneous_pipeline,
)
from polydist.measures import bernoulli_congruence_check, verify_measure_pushforward
from polydist.polylog_num import (
    li_classical,
    verify_numeric_calibration,
    verify_numeric_classical,
    verify_numeric_cross_oracle,
    verify_numeric_distribution,
)
from polydist.words import parse_word


def certify(report):
    assert report.ok, (
        f"{report.statement} {report.params}: "
        + "; ".join(f"{c.name}: {c.detail}" for c in report.failures())
    )
    print(report.summary())
    return report


def names_of(report):
    return [c.name for c in report.checks]


def test_01_generic_distribution_exact_in_tilde_flavor():
    t0 = time.time()
    for r, n in [(1, 2), (1, 3), (2, 2), (1, 4)]:
        rep = certify(verify_formal_distribution(r=r, n=n, degree=6, flavor="til"))
        assert "all-residuals-zero" in names_of(rep)
    assert time.time() - t0 < 120.0


def test_02_standard_flavor_residual_is_shorter_word_supported():
    for r, n in [(1, 2), (1, 3)]:
        rep = certify(verify_formal_distribution(r=r, n=n, degree=5, flavor="std"))
        assert "x-free-words-exact" in names_of(rep)
        assert "residual-support-shorter-words" in names_of(rep)
        counts = [x for x in rep.residuals if x["kind"] == "residual-count"]
        assert counts and counts[0]["nonzero"] > 0


def test_03_inhomogeneous_pipeline_with_specializations():
    for n in (2, 3):
        rep = certify(verify_inhomogeneous_pipeline(n=n, depth=6))
        got = names_of(rep)
        for needed in (
            "branch-generating-identity",
            "character-series-collapse",
            "main-distribution-statement",
            "naive-guess-error-series",
            "value-series-closed-form",
            "depth-1-specialization",
            "depth-2-specialization",
        ):
            assert needed in got, needed
        if n == 2:
            assert "doubling-general-depth" in got


def test_04_bch_closed_form_has_unique_denominator():
    rep = certify(verify_bch_closed_form(degree=6, candidate="both"))
    by_name = {c.name: c for c in rep.checks}
    assert by_name["left-shift-closed-form"].ok
    detail = by_name["right-shift-unique-candidate"].detail
    assert detail == "matching candidates: ['base-denominator']"
    assert by_name["unit-law-alpha-zero"].ok


def test_05_conversions_roundtrip_and_group_like_depth8():
    rep = certify(verify_conversions(depth=8))
    got = names_of(rep)
    for needed in (
        "roundtrip-chi-li-chi",
        "roundtrip-li-chi-li",
        "group-like-x-coefficients",
        "group-like-y-coefficients",
        "single-y-log-extraction",
        "extraction-consistent-with-conversion",
    ):
        assert needed in got, needed


def test_06_homogeneous_collapse():
    for n in (2, 3):
        rep = certify(verify_homogeneous_polylog(n=n, depth=6))
        got = names_of(rep)
        assert "specialization-common-kummer" in got
        assert "homogeneous-character-collapse" in got


def test_07_even_character_values_and_translation():
    rep = certify(derive_eisenstein_specialization(k_max=3))
    got = names_of(rep)
    for needed in (
        "minus-one-depth2-value",
        "minus-one-even-depth-values",
        "translation-kummer-cancellation",
        "translation-matches-homogeneous",
    ):
        assert needed in got, needed
    detail = {c.name: c.detail for c in rep.checks}
    assert "1/48" in detail["minus-one-depth2-value"]


def test_08_measure_pushforward_exact_with_negative_control():
    for ell, m, n in [(3, 3, 2), (3, 2, 3), (2, 4, 2), (5, 2, 2)]:
        rep = certify(
            verify_measure_pushforward(ell=ell, m=m, n=n, trials=100, seed=0, depth=6)
        )
        got = names_of(rep)
        assert "branch-moment-scaling" in got
        assert "summed-moment-distribution" in got
        assert "corruption-detected" in got


def test_09_bernoulli_congruence_exhaustive():
    for q in (8, 9, 16, 27):
        admissible = [
            c for c in range(1, 2 * q) if c % 2 and math.gcd(c, 2 * q) == 1
        ]
        assert admissible
        for c in admissible:
            certify(bernoulli_congruence_check(q, c))


def test_10_numerics_calibration_distribution_and_cross_oracle():
    certify(verify_numeric_calibration(k_max=5, tol=1e-10))

    kubert_words = [parse_word("n=1,std:Y0" + ".X" * (k - 1)) for k in range(1, 6)]
    for n in (2, 3):
        for z in (0.5, -0.3, 0.3 + 0.2j):
            certify(
                verify_numeric_distribution(1, n, z, words=kubert_words, tol=1e-10)
            )

    depth2_level2 = [
        parse_word(t)
        for t in (
            "n=2,std:Y0.Y0",
            "n=2,std:Y0.Y1",
            "n=2,std:Y1.Y0",
            "n=2,std:Y1.Y1",
            "n=2,std:Y0.X.Y1",
            "n=2,std:Y1.X.Y0",
        )
    ]
    assert len(depth2_level2) >= 5
    certify(
        verify_numeric_distribution(
            2, 2, 0.45 + 0.1j, words=depth2_level2, tol=1e-10
        )
    )

    assert abs(li_classical(2, -1.0, tol=1e-13) + math.pi**2 / 12) <= 1e-12
    certify(verify_numeric_classical(tol=1e-12))

    rep = certify(verify_numeric_cross_oracle(trials=20, seed=7, tol=1e-8))
    assert "20 random queries" in rep.checks[0].detail
