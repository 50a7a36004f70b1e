"""Finite-level measures: moments, push-forwards, congruences."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from polydist import measures
from polydist.lie import bernoulli_poly_eval
from polydist.measures import (
    FiniteMeasure,
    MeasureError,
    bernoulli_congruence_check,
    moment_exact,
    power_sums,
    pushforward_mul,
    random_measure,
    translate_chi,
    verify_measure_pushforward,
)
from polydist.report import ParameterError, VerificationReport, timed
from polydist.scalars import QQ

fractions = st.fractions(min_value=-5, max_value=5, max_denominator=8)


def test_measure_validation():
    mu = FiniteMeasure(3, 1, Fraction(0), (1, 2, 3))
    assert mu.mass() == 6
    with pytest.raises(MeasureError):
        FiniteMeasure(3, 1, Fraction(0), (1, 2))  # wrong grid size
    with pytest.raises(MeasureError):
        FiniteMeasure(4, 1, Fraction(0), (1, 2, 3, 4))  # 4 is not prime


def test_measure_add():
    a = FiniteMeasure(2, 2, Fraction(1, 3), (1, 0, 2, 5))
    b = FiniteMeasure(2, 2, Fraction(1, 3), (0, 1, 1, 1))
    s = a.add(b)
    assert s.values == (1, 1, 3, 6)
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


@given(small_measures(), st.integers(1, 8))
@settings(max_examples=120, deadline=None)
def test_power_sums_are_the_cleared_moments_of_every_depth(mu, depth):
    sums = power_sums(mu, depth)
    assert len(sums) == depth
    q = mu.offset.denominator
    for k, total in enumerate(sums, start=1):
        assert type(total) is int
        assert total == moment_exact(mu, k) * q ** (k - 1)
        assert total == _moment_exact_oracle(mu, k) * q ** (k - 1)


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
    once = translate_chi(QQ, translate_chi(QQ, chi, a, 4), b, 4)
    assert once == translate_chi(QQ, chi, a + b, 4)
    assert translate_chi(QQ, chi, Fraction(0), 4) == list(chi)


def test_translate_chi_binomial_spot():
    chi = [Fraction(0), Fraction(1), Fraction(0)]
    # depth 3 with shift t: sum_i C(2, i) t^(2-i) chi_(i+1) = 2t
    got = translate_chi(QQ, chi, Fraction(3), 3)
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
    with pytest.raises(ParameterError):
        bernoulli_congruence_check(10, 3)  # 10 is not a prime power
    with pytest.raises(ParameterError):
        bernoulli_congruence_check(9, 4)  # even c
    with pytest.raises(ParameterError):
        bernoulli_congruence_check(9, 3)  # gcd(3, 18) > 1


@pytest.mark.parametrize(
    "ell, m, n, depth",
    [(4, 2, 2, 6), (1, 2, 2, 6), (3, 2, 0, 6), (3, 2, 2, 0), (3, 0, 3, 6), (2, 1, 4, 6),
     # m - v_ell(n) = 0: modulo ell^0 = 1 every congruence holds vacuously
     (3, 0, 2, 6), (3, 1, 3, 6), (2, 2, 4, 6), (5, 1, 10, 6)],
)
def test_verify_pushforward_refuses_parameters_before_any_work(
    monkeypatch, ell, m, n, depth
):
    def no_work(*args, **kwargs):
        raise AssertionError("a measure was drawn")

    monkeypatch.setattr(measures, "random_measure", no_work)
    with pytest.raises(ParameterError):
        verify_measure_pushforward(ell, m, n, trials=3, depth=depth)


def _bernoulli_congruence_oracle(q, c):
    """The congruence report with every B2 value a Fraction from
    ``bernoulli_poly_eval``, as the engine computed it before its sums moved
    to integers over one common denominator."""
    report = VerificationReport("bernoulli-congruence", {"q": q, "c": c})
    with timed(report):
        cinv = pow(c, -1, 2 * q)

        def frac_part(x):
            return x - (x.numerator // x.denominator)

        def b2(x):
            return bernoulli_poly_eval(2, frac_part(Fraction(x)))

        total = Fraction(0)
        for b in range(q):
            total += Fraction(q, 2) * (
                c * c * b2(Fraction(1 + 2 * cinv * b, 2 * q))
                - b2(Fraction(2 * b + c, 2 * q))
            )
        target = Fraction(c * c - 1, 2) * bernoulli_poly_eval(2, Fraction(1, 2))
        diff = total - target
        member = (diff * Fraction(48, q)).denominator == 1
        report.add(
            "difference-in-lattice",
            member,
            f"T - target = {diff}, target lattice (q/48)Z",
        )
        report.add_residual(kind="observed-difference", value=str(diff))
        odd_sum = sum(b2(Fraction(rr, 2 * q)) for rr in range(1, 2 * q, 2))
        s1 = sum(b2(Fraction(1 + 2 * cinv * b, 2 * q)) for b in range(q))
        s2 = sum(b2(Fraction(2 * b + c, 2 * q)) for b in range(q))
        report.add(
            "index-bijections-telescope",
            s1 == odd_sum == s2 == Fraction(-1, 12 * q),
            "both weighted index families sweep the odd residues",
        )

        def fold(mm):
            return mm % (2 * q)

        ok_pair = all(
            fold(mm) + fold(-mm) == 2 * q
            for mm in list(range(1, 2 * q)) + [2 * q + 3, 6 * q + 1, -7]
            if fold(mm) != 0
        )
        report.add("folding-pairing", ok_pair, "<m> + <-m> = 2q off the kernel")
    return report


def _without_ms(report):
    out = report.to_json_dict()
    del out["ms"]
    return out


def _checks(report):
    return [(c.name, c.ok, c.detail) for c in report.checks]


@pytest.mark.parametrize("q", [8, 9, 16, 27, 25, 32, 49, 81])
def test_bernoulli_congruence_matches_fraction_oracle(q):
    # q = 8, 9, 16, 27 with every unit c are the 48 reports of measures --all
    for c in range(1, 2 * q, 2):
        if gcd(c, 2 * q) == 1:
            got = bernoulli_congruence_check(q, c)
            want = _bernoulli_congruence_oracle(q, c)
            assert _without_ms(got) == _without_ms(want)
            assert _checks(got) == _checks(want)


def _pushforward_oracle(ell, m, n, trials=100, seed=0, depth=6):
    """The push-forward report with every moment a ``moment_exact`` Fraction,
    one call per depth, as the engine computed it before the integer power
    sums; measures come through the module, so a patched push-forward
    reaches this route too."""
    report = VerificationReport(
        "measure-pushforward",
        {"ell": ell, "m": m, "n": n, "trials": trials, "seed": seed, "depth": depth},
    )
    with timed(report):
        m_new = m - measures.padic_valuation(n, ell)
        modulus = ell**m_new
        rng = random.Random(seed)
        ok_branch = ok_sum = ok_mass = True
        first_bad = None
        for trial in range(trials):
            branches = [
                random_measure(ell, m, Fraction(s, n), rng) for s in range(n)
            ]
            pushed = [measures.pushforward_mul(mu, n) for mu in branches]
            total = pushed[0]
            for p in pushed[1:]:
                total = total.add(p)
            if total.mass() != sum(mu.mass() for mu in branches):
                ok_mass = False
            for k in range(1, depth + 1):
                rhs_all = Fraction(0)
                for mu, p in zip(branches, pushed):
                    lhs = moment_exact(p, k)
                    rhs = Fraction(n) ** (k - 1) * moment_exact(mu, k)
                    rhs_all += rhs
                    diff = lhs - rhs
                    if diff.denominator != 1 or diff.numerator % modulus:
                        ok_branch = False
                        if first_bad is None:
                            first_bad = (trial, k)
                diff = moment_exact(total, k) - rhs_all
                if diff.denominator != 1 or diff.numerator % modulus:
                    ok_sum = False
        report.add(
            "branch-moment-scaling",
            ok_branch,
            f"moments scale by n^(k-1) mod ell^{m_new} for k <= {depth}; "
            f"{trials} seeded trials"
            + (f"; first failure {first_bad}" if first_bad else ""),
        )
        report.add(
            "summed-moment-distribution",
            ok_sum,
            "branch-summed push-forward satisfies the same congruences",
        )
        report.add("mass-preserved", ok_mass, "total mass is preserved")
        mu = random_measure(ell, m, Fraction(0), rng)
        vals = list(mu.values)
        vals[rng.randrange(len(vals))] += 1
        corrupted = FiniteMeasure(ell, m, Fraction(0), tuple(vals))
        detected = False
        for k in range(1, depth + 1):
            diff = moment_exact(
                measures.pushforward_mul(corrupted, n), k
            ) - Fraction(n) ** (k - 1) * moment_exact(mu, k)
            if diff.denominator != 1 or diff.numerator % modulus:
                detected = True
        report.add(
            "corruption-detected",
            detected,
            "a single-mass corruption breaks at least one congruence",
        )
    return report


MEASURES_ALL = [(3, 3, 2), (3, 2, 3), (2, 4, 2), (5, 2, 2)]


@pytest.mark.parametrize("seed", [0, 1, 20171109])
@pytest.mark.parametrize("ell, m, n", MEASURES_ALL)
def test_verify_pushforward_matches_fraction_oracle(ell, m, n, seed):
    got = verify_measure_pushforward(ell, m, n, trials=100, seed=seed)
    want = _pushforward_oracle(ell, m, n, trials=100, seed=seed)
    assert got.ok
    assert _without_ms(got) == _without_ms(want)
    assert _checks(got) == _checks(want)


@pytest.mark.parametrize("ell, m, n", MEASURES_ALL)
def test_verify_pushforward_detects_a_corrupted_pushforward(monkeypatch, ell, m, n):
    """A push-forward that moves one unit of mass off its image point breaks
    the moment congruences, and both routes say so in the same words."""
    honest = measures.pushforward_mul

    def shifted(mu, n):
        nu = honest(mu, n)
        values = list(nu.values)
        values[0] -= 1
        values[-1] += 1
        return FiniteMeasure(nu.ell, nu.m, nu.offset, tuple(values))

    monkeypatch.setattr(measures, "pushforward_mul", shifted)
    got = verify_measure_pushforward(ell, m, n, trials=5, seed=3)
    want = _pushforward_oracle(ell, m, n, trials=5, seed=3)
    failed = [c.name for c in got.failures()]
    assert "branch-moment-scaling" in failed
    assert "first failure (0, 2)" in got.checks[0].detail
    assert _without_ms(got) == _without_ms(want)
    assert _checks(got) == _checks(want)


def test_random_measure_respects_seed():
    a = random_measure(5, 2, Fraction(0), random.Random(1))
    b = random_measure(5, 2, Fraction(0), random.Random(1))
    assert a == b


@pytest.mark.parametrize("trials", [0, -1])
def test_verify_pushforward_refuses_a_vacuous_trial_count(monkeypatch, trials):
    def no_work(*args, **kwargs):
        raise AssertionError("a measure was drawn")

    monkeypatch.setattr(measures, "random_measure", no_work)
    with pytest.raises(ParameterError, match=f"trials = {trials} must be >= 1"):
        verify_measure_pushforward(3, 3, 2, trials=trials)
