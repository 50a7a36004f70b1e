"""Symbolic verification engines and character/value conversions."""

import os
from fractions import Fraction
from unittest import mock

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
from polydist.lie import bernoulli_number, beta_series
from polydist.ncseries import AlgebraMorphism, NCSeries
from polydist.report import ParameterError, VerificationReport
from polydist.scalars import QQ, PolyRing
from polydist.words import (
    FLAVOR_STANDARD,
    FLAVOR_TILDE,
    enumerate_lifts,
    parse_word,
    render_letters,
    wt_x,
    words_up_to_degree,
)

fractions = st.fractions(min_value=-8, max_value=8, max_denominator=6)


@given(fractions, st.lists(fractions, min_size=5, max_size=5))
@settings(max_examples=40)
def test_chi_li_roundtrip_rational(rho, li_values):
    chi = [chi_from_li(QQ, rho, li_values, m) for m in range(1, 6)]
    for m in range(1, 6):
        assert li_from_chi(QQ, rho, chi, m) == li_values[m - 1]


def test_li_chi_roundtrip_symbolic():
    depth = 6
    names = ["rho"] + [f"x{m}" for m in range(1, depth + 1)]
    ring = PolyRing(names)
    rho = ring.sym("rho")
    chi_values = [ring.sym(f"x{m}") for m in range(1, depth + 1)]
    li = [li_from_chi(ring, rho, chi_values, m) for m in range(1, depth + 1)]
    for m in range(1, depth + 1):
        assert chi_from_li(ring, rho, li, m) == chi_values[m - 1]


def test_depth_two_conversion_spot_check():
    # chi_2 = -li_2 - (rho/2) li_1, worked by hand from the recursion
    ring = PolyRing(["rho", "l1", "l2"])
    rho, l1, l2 = (ring.sym(s) for s in ("rho", "l1", "l2"))
    got = chi_from_li(ring, rho, [l1, l2], 2)
    assert got == -l2 - rho * l1 * Fraction(1, 2)
    assert chi_from_li(ring, rho, [l1], 1) == l1


def test_group_like_coefficients():
    depth = 5
    ring = PolyRing(["rho"] + [f"x{m}" for m in range(1, depth + 1)])
    rho = ring.sym("rho")
    chi_values = [ring.sym(f"x{m}") for m in range(1, depth + 1)]
    g = group_like_from_chi(ring, rho, chi_values, depth)
    fact = [1, 1, 2, 6, 24, 120]
    for i in range(depth + 1):
        xi = parse_word("n=1,std:" + ".".join(["X"] * i))
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


def test_formal_engine_makes_one_series_product_per_source_word(monkeypatch):
    calls = []
    mul = NCSeries.__mul__

    def counted(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(NCSeries, "__mul__", counted)
    for r, n, degree, flavor in [(1, 2, 5, "til"), (1, 3, 4, "std"), (2, 2, 3, "til")]:
        calls.clear()
        assert verify_formal_distribution(r, n, degree, flavor).ok
        source_words = sum((r * n + 1) ** d for d in range(1, degree + 1))
        assert len(calls) == source_words, (r, n, degree, flavor)


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


def _corrupted_pi(letter, factor, extra=()):
    """``pi_morphism`` with the image of the int ``letter`` (0 is X, 1 + i
    is Y_i) scaled by ``factor`` and the ``(word, coefficient)`` terms of
    ``extra`` added to it."""

    def corrupted(r, n, trunc, flavor=FLAVOR_STANDARD):
        phi = pi_morphism(r, n, trunc, flavor)
        images = dict(phi.images)
        images[letter] = images[letter].scale(factor) + NCSeries(
            QQ, r, flavor, trunc, {w.letters: c for w, c in extra}
        )
        return AlgebraMorphism(r * n, flavor, r, flavor, images, trunc)

    return corrupted


def _x_times_n_plus_1(n):
    """X -> (n+1)·X instead of n·X."""
    return _corrupted_pi(0, Fraction(n + 1, n))


def _y0_doubled():
    return _corrupted_pi(1, 2)


@pytest.mark.parametrize(
    "flavor, corrupt_x, failing",
    [
        (FLAVOR_TILDE, True, "all-residuals-zero"),
        (FLAVOR_STANDARD, False, "x-free-words-exact"),
        (FLAVOR_STANDARD, True, "residual-support-shorter-words"),
    ],
)
def test_formal_distribution_negative_control(monkeypatch, flavor, corrupt_x, failing):
    """One corrupted letter image of the push-forward must fail the report,
    exactly as it fails the generic-symbol oracle: X -> (n+1)·X, or
    Y_0 -> 2·Y_0."""
    corrupted_pi = _x_times_n_plus_1(2) if corrupt_x else _y0_doubled()
    monkeypatch.setattr(distrib, "pi_morphism", corrupted_pi)
    rep = _engine_matches_oracle(1, 2, 3, flavor)
    assert rep["status"] == "fail"
    assert failing in [f["name"] for f in rep["failures"]]


@pytest.mark.parametrize(
    "engine, failing",
    [
        (verify_homogeneous_polylog, "pushforward-x-scaling"),
        (verify_inhomogeneous_pipeline, "pushforward-kummer-scaling"),
    ],
)
@pytest.mark.parametrize("n", [2, 3])
def test_polylog_pipeline_negative_control(monkeypatch, engine, failing, n):
    """X -> (n+1)·X in the push-forward must fail the X-coefficient check."""
    monkeypatch.setattr(distrib, "pi_morphism", _x_times_n_plus_1(n))
    rep = engine(n=n, depth=4)
    assert not rep.ok
    assert failing in [c.name for c in rep.checks if not c.ok]


def _beta_t2_shifted(ring, degree):
    """beta(t) with its t^2 coefficient raised by 1/5."""
    beta = beta_series(ring, degree)
    beta.coeffs[2] = beta.coeffs[2] + Fraction(1, 5)
    return beta


def _bernoulli_b2_shifted(k):
    """B_k with B_2 raised by 1/7."""
    return bernoulli_number(k) + (Fraction(1, 7) if k == 2 else 0)


def _tangential_doubled(ring, k):
    return tangential_even_character(ring, k) * 2


@pytest.mark.parametrize(
    "source, corrupted, engine, kwargs, failing",
    [
        ("beta_series", _beta_t2_shifted, verify_bch_closed_form, {"degree": 5},
         {"left-shift-closed-form"}),
        ("bernoulli_number", _bernoulli_b2_shifted, verify_conversions, {"depth": 6},
         {"roundtrip-chi-li-chi", "single-y-log-extraction"}),
        ("tangential_even_character", _tangential_doubled,
         derive_eisenstein_specialization, {"k_max": 3},
         {"minus-one-depth2-value"}),
    ],
    ids=["bch-closed-form", "conversions", "eisenstein-specialization"],
)
def test_coefficient_source_negative_control(
    monkeypatch, source, corrupted, engine, kwargs, failing
):
    """One corrupted coefficient source in ``distrib`` must fail the report."""
    monkeypatch.setattr(distrib, source, corrupted)
    rep = engine(**kwargs)
    assert rep.to_json_dict()["status"] == "fail"
    assert failing <= {c.name for c in rep.checks if not c.ok}


# -- the generic-symbol route, kept as the oracle of the word-by-word engine --


def _formal_distribution_oracle(r, n, degree, flavor):
    """``verify_formal_distribution`` by the generic-symbol route: one
    polynomial generator c[u] per source word u, the generic group-like
    series pushed forward through ``apply``, and every residual read off as
    a polynomial in those generators."""
    rn = r * n
    report = VerificationReport(
        "formal-distribution",
        {"r": r, "n": n, "degree": degree, "flavor": flavor},
    )
    source_words = words_up_to_degree(rn, flavor, degree, min_degree=1)
    names = ["c[" + render_letters(w.letters) + "]" for w in source_words]
    ring = PolyRing(names)
    sym_of = {}
    len_of_gen = {}
    coeffs = {(): ring.one}
    for w, name in zip(source_words, names):
        s = ring.sym(name)
        sym_of[w] = s
        len_of_gen[ring.index[name]] = len(w.letters)
        coeffs[w.letters] = s
    generic = NCSeries(ring, rn, flavor, degree, coeffs)

    push = distrib.pi_morphism(r, n, degree, flavor)
    image = push.apply(generic)

    target_words = words_up_to_degree(r, flavor, degree, min_degree=1)
    exact_failures = []
    support_failures = []
    nonzero_residuals = 0
    sample = None
    for w in target_words:
        actual = image.coefficient(w)
        scale = n ** wt_x(w)
        expected = ring.lincomb((sym_of[u], scale) for u in enumerate_lifts(w, n))
        residual = actual - expected
        if flavor == FLAVOR_TILDE or wt_x(w) == 0:
            if not residual.is_zero():
                exact_failures.append(str(w))
            continue
        if residual.is_zero():
            continue
        nonzero_residuals += 1
        max_len = 0
        clean = True
        for mono in residual.terms:
            for idx in mono:
                max_len = max(max_len, len_of_gen[idx])
                if len_of_gen[idx] >= len(w.letters):
                    clean = False
        if not clean:
            support_failures.append(str(w))
        if sample is None:
            sample = {
                "word": str(w),
                "max_symbol_word_length": max_len,
                "word_length": len(w.letters),
            }
    report.add(
        "empty-word-normalized",
        image.constant_term() == ring.one,
        "push-forward preserves the augmentation",
    )
    if flavor == FLAVOR_TILDE:
        report.add(
            "all-residuals-zero",
            not exact_failures,
            f"{len(target_words)} words checked"
            + (f"; first failure {exact_failures[0]}" if exact_failures else ""),
        )
    else:
        report.add(
            "x-free-words-exact",
            not exact_failures,
            "zero residual on every word with no X letter"
            + (f"; first failure {exact_failures[0]}" if exact_failures else ""),
        )
        report.add(
            "residual-support-shorter-words",
            not support_failures,
            f"{nonzero_residuals} nonzero residuals, all on strictly "
            "shorter-word symbols"
            + (f"; first failure {support_failures[0]}" if support_failures else ""),
        )
        if sample is not None:
            report.add_residual(kind="shorter-word-residual", **sample)
        report.add_residual(
            kind="residual-count",
            nonzero=nonzero_residuals,
            words_checked=len(target_words),
        )
    return report


def _without_ms(report):
    out = report.to_json_dict()
    del out["ms"]
    return out


def _engine_matches_oracle(r, n, degree, flavor):
    got = _without_ms(verify_formal_distribution(r=r, n=n, degree=degree, flavor=flavor))
    assert got == _without_ms(_formal_distribution_oracle(r, n, degree, flavor))
    return got


@pytest.mark.parametrize("flavor", [FLAVOR_TILDE, FLAVOR_STANDARD])
@pytest.mark.parametrize("r, n", [(1, 2), (1, 3), (2, 2), (1, 4), (2, 3), (3, 2)])
@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_formal_distribution_matches_generic_symbol_oracle(r, n, degree, flavor):
    assert _engine_matches_oracle(r, n, degree, flavor)["status"] == "pass"


@st.composite
def _corruptions(draw):
    r, n = draw(st.sampled_from([(1, 2), (1, 3), (2, 2)]))
    flavor = draw(st.sampled_from([FLAVOR_TILDE, FLAVOR_STANDARD]))
    degree = draw(st.integers(1, 3))
    letter = draw(st.sampled_from(range(r * n + 1)))
    factor = draw(st.sampled_from([0, 1, 2, Fraction(-1, 2)]) | fractions)
    targets = words_up_to_degree(r, flavor, 2, min_degree=1)
    extra = draw(st.lists(st.tuples(st.sampled_from(targets), fractions), max_size=2))
    return (r, n, degree, flavor), _corrupted_pi(letter, factor, extra)


@given(_corruptions())
@settings(max_examples=40, deadline=None)
def test_formal_distribution_matches_oracle_on_corrupted_images(case):
    """One letter image scaled and perturbed by a few low-degree terms."""
    params, corrupted_pi = case
    with mock.patch.object(distrib, "pi_morphism", corrupted_pi):
        _engine_matches_oracle(*params)


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


@pytest.mark.parametrize("k_max", [0, -1])
def test_eisenstein_refuses_a_vacuous_depth_before_any_work(monkeypatch, k_max):
    # with k_max < 1 no even depth is solved, so the report would pass on nothing
    def no_work(*args, **kwargs):
        raise AssertionError("a pipeline was built")

    monkeypatch.setattr(distrib, "_inhomogeneous_checks", no_work)
    monkeypatch.setattr(distrib, "_homogeneous_checks", no_work)
    with pytest.raises(ParameterError, match=f"k_max = {k_max} must be >= 1"):
        derive_eisenstein_specialization(k_max=k_max)


def _no_work(*args, **kwargs):
    raise AssertionError("work was started")


@pytest.mark.parametrize("r, n", [(0, 2), (1, 0), (2, -1)])
def test_formal_distribution_refuses_a_level_below_1_before_any_work(
    monkeypatch, r, n
):
    monkeypatch.setattr(distrib, "pi_morphism", _no_work)
    with pytest.raises(ParameterError, match=f"got r = {r}, n = {n}"):
        verify_formal_distribution(r=r, n=n, degree=2)


def test_eisenstein_is_capped_at_twice_k_max_before_any_work(monkeypatch):
    monkeypatch.setattr(distrib, "_inhomogeneous_checks", _no_work)
    monkeypatch.setattr(distrib, "_homogeneous_checks", _no_work)
    monkeypatch.setenv("POLYDIST_MAX_DEGREE", "13")
    with pytest.raises(DegreeCapError, match="degree 14 exceeds"):
        derive_eisenstein_specialization(k_max=7)
