"""Free-Lie/BCH calculus, quotient ideals, Bernoulli machinery."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from polydist.lie import (
    MOD_IY,
    MOD_JY,
    GenSeries,
    NotPolylogError,
    bch,
    bernoulli_number,
    bernoulli_poly_eval,
    beta_series,
    exp_mod,
    log_mod,
    mul_mod,
    polylog_element,
    polylog_part,
    reduce_mod_ideal,
)
from polydist.distrib import group_like_from_chi, li_from_chi
from polydist.ncseries import NCSeries, SeriesError
from polydist.scalars import QQ, PolyRing, SymbolicPoly
from polydist.words import FLAVOR_STANDARD, FLAVORS, parse_word

X = parse_word("n=1,std:X")
Y = parse_word("n=1,std:Y0")


def mono(w, trunc, c=1):
    return NCSeries.monomial(QQ, w, trunc, Fraction(c))


def ad_pow(ring, m, trunc):
    """ad(X)^(m-1)(Y) at level 1: sum_j (-1)^j C(m-1, j) X^(m-1-j).Y.X^j."""
    coeffs = {
        (0,) * (m - 1 - j) + (1,) + (0,) * j:
        ring.coerce((-1) ** j * comb(m - 1, j))
        for j in range(m)
    }
    return NCSeries(ring, 1, FLAVOR_STANDARD, trunc, coeffs)


def test_bch_degree_two():
    got = bch(mono(X, 2), mono(Y, 2))
    assert got.coefficient(X) == 1
    assert got.coefficient(Y) == 1
    assert got.coefficient(X * Y) == Fraction(1, 2)
    assert got.coefficient(Y * X) == Fraction(-1, 2)
    assert got.coefficient(X * X) == 0


def test_bch_inverse_law():
    s = mono(X, 4) + mono(Y, 4).scale(Fraction(1, 3))
    z = bch(s, -s)
    assert z.is_zero()


def test_bch_with_zero_is_identity():
    s = mono(Y, 5) + mono(X, 5) * mono(Y, 5)
    zero = NCSeries.zero(QQ, 1, FLAVOR_STANDARD, 5)
    assert bch(s, zero) == s
    assert bch(zero, s) == s


coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@given(coeffs, coeffs, coeffs, coeffs)
@settings(max_examples=15, deadline=None)
def test_bch_associativity(a, b, c, d):
    trunc = 5
    s = mono(X, trunc, a) + mono(Y, trunc, b)
    t = mono(Y, trunc, c) + mono(X, trunc, d) * mono(Y, trunc)
    u = mono(X, trunc).scale(Fraction(1, 2))
    left = bch(bch(s, t), u)
    right = bch(s, bch(t, u))
    assert left == right


def test_ad_pow_three():
    got = ad_pow(QQ, 3, 4)
    xxy = parse_word("n=1,std:X.X.Y0")
    xyx = parse_word("n=1,std:X.Y0.X")
    yxx = parse_word("n=1,std:Y0.X.X")
    assert got.coefficient(xxy) == 1
    assert got.coefficient(xyx) == -2
    assert got.coefficient(yxx) == 1


def test_ad_pow_matches_conjugation_expansion():
    # ad^m(y) = sum_j (-1)^j C(m-1, j) x^(m-1-j) y x^j
    trunc = 6
    x = mono(X, trunc)
    y = mono(Y, trunc)
    for m in range(1, 6):
        brk = y
        for _ in range(m - 1):
            brk = x * brk - brk * x
        assert ad_pow(QQ, m, trunc) == brk


def test_ideal_reduction_iy():
    trunc = 4
    s = mono(Y, trunc) * mono(Y, trunc) + mono(X, trunc) + mono(Y, trunc)
    r = reduce_mod_ideal(s, MOD_IY)
    assert r.coefficient(Y * Y) == 0
    assert r.coefficient(X) == 1
    assert r.coefficient(Y) == 1


def test_ideal_reduction_jy():
    trunc = 3
    s = mono(X, trunc) * mono(Y, trunc) + mono(Y, trunc) * mono(X, trunc)
    r = reduce_mod_ideal(s, MOD_JY)
    # XY dies, YX survives
    assert r.coefficient(X * Y) == 0
    assert r.coefficient(Y * X) == 1
    lvl2 = NCSeries.monomial(QQ, parse_word("n=2,std:Y1"), 3)
    with pytest.raises(ValueError):
        reduce_mod_ideal(lvl2, MOD_JY)


# -- quotient products against the old route: full product, then reduce --

PQ = PolyRing(["p", "q"])
# (ideal, level): IY at every level, JY at level 1 only
QUOTIENTS = [(MOD_IY, 1), (MOD_IY, 2), (MOD_IY, 3), (MOD_JY, 1)]


def _coefficient(draw, ring):
    if ring == QQ:
        return draw(coeffs)
    return PQ.sym("p") * draw(coeffs) + PQ.sym("q") * draw(coeffs) + draw(coeffs)


@st.composite
def _series(draw, ring, level, flavor, trunc, min_degree=0, max_terms=6):
    """A sparse series whose words are drawn freely, so it is not reduced."""
    word = st.integers(min_degree, trunc).flatmap(
        lambda d: st.lists(st.integers(0, level), min_size=d, max_size=d)
    )
    words = draw(st.lists(word, min_size=1, max_size=max_terms))
    return NCSeries(ring, level, flavor, trunc, {
        tuple(w): _coefficient(draw, ring) for w in words
    })


@st.composite
def _quotient_case(draw, n_series, min_degree, max_trunc, max_terms):
    """An ideal, and ``n_series`` series of one algebra over QQ or PQ, each
    with its own truncation."""
    which, level = draw(st.sampled_from(QUOTIENTS))
    flavor = draw(st.sampled_from(FLAVORS))
    ring = draw(st.sampled_from([QQ, PQ]))
    series = [
        draw(_series(ring, level, flavor, draw(st.integers(2, max_trunc)),
                     min_degree, max_terms))
        for _ in range(n_series)
    ]
    return which, series


@given(_quotient_case(2, 0, 5, 6))
@settings(max_examples=80, deadline=None)
def test_mul_mod_equals_reduced_full_product(case):
    which, (a, b) = case
    assert mul_mod(a, b, which) == reduce_mod_ideal(a * b, which)


@given(_quotient_case(2, 1, 5, 3))
@settings(max_examples=40, deadline=None)
def test_exp_log_bch_mod_equal_reduced_full_computation(case):
    which, (s, t) = case
    assert exp_mod(s, which) == reduce_mod_ideal(exp_mod(s), which)
    g = s + NCSeries.one(s.ring, s.level, s.flavor, s.trunc)
    assert log_mod(g, which) == reduce_mod_ideal(log_mod(g), which)
    assert bch(s, t, which) == reduce_mod_ideal(bch(s, t), which)


@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("depth", [1, 4, 6])
def test_group_like_from_chi_is_the_full_exp_reduced_mod_jy(depth, flavor):
    ring = PolyRing(["rho"] + [f"c{k}" for k in range(1, depth + 1)])
    rho = ring.sym("rho")
    cs = [ring.sym(f"c{k}") for k in range(1, depth + 1)]
    li = [li_from_chi(ring, rho, cs, m) for m in range(1, depth + 1)]
    lam = polylog_element(ring, 1, flavor, depth, rho, {0: li})
    assert group_like_from_chi(ring, rho, cs, depth, flavor) == reduce_mod_ideal(
        (-lam).exp(), MOD_JY
    )


def test_quotient_products_reject_unknown_ideals_and_jy_above_level_one():
    a = mono(X, 3) + mono(Y, 3)
    with pytest.raises(ValueError, match="unknown ideal"):
        mul_mod(a, a, "KY")
    with pytest.raises(ValueError, match="unknown ideal"):
        reduce_mod_ideal(a, "KY")
    lvl2 = NCSeries.monomial(QQ, parse_word("n=2,std:Y1"), 3)
    for f in (lambda: mul_mod(lvl2, lvl2, MOD_JY), lambda: exp_mod(lvl2, MOD_JY),
              lambda: reduce_mod_ideal(lvl2, MOD_JY)):
        with pytest.raises(SeriesError, match="level 1 only"):
            f()


def _y_count(w):
    return sum(1 for a in w if a)


def test_bch_mod_iy_multiplies_only_surviving_pairs(monkeypatch):
    """Each quotient product multiplies exactly the coefficient pairs of its
    reduced operands whose product fits the truncation and has at most one
    Y; the pairs the old route multiplied and then threw away are skipped."""
    ring = PolyRing(["a", "b", "c"])
    a, b, c = (ring.sym(v) for v in "abc")

    def term(text, coeff):
        return NCSeries.monomial(ring, parse_word("n=2,std:" + text), 5, coeff)

    # Y0.Y1 lies in IY, so the inputs are not reduced
    s = term("X", a) + term("Y0", b) + term("Y0.Y1", c)
    t = term("Y1", c) + term("X.Y0", a) + term("X", b)

    products = 0
    mul = SymbolicPoly.__mul__

    def counted_mul(self, other):
        nonlocal products
        products += 1
        return mul(self, other)

    calls = []
    product = NCSeries._product

    def recorded_product(self, other, partners=None):
        before = products
        out = product(self, other, partners)
        calls.append((self, other, products - before))
        return out

    monkeypatch.setattr(SymbolicPoly, "__mul__", counted_mul)
    monkeypatch.setattr(NCSeries, "_product", recorded_product)
    got = bch(s, t, MOD_IY)
    monkeypatch.undo()

    assert got == reduce_mod_ideal(bch(s, t), MOD_IY)
    assert calls
    surviving = every = 0
    for left, right, made in calls:
        fit = [
            (w1, w2)
            for w1 in left.coeffs for w2 in right.coeffs
            if len(w1) + len(w2) <= min(left.trunc, right.trunc)
        ]
        kept = sum(1 for w1, w2 in fit if _y_count(w1) + _y_count(w2) <= 1)
        assert made == kept
        surviving += kept
        every += len(fit)
    assert surviving < every


def test_exp_log_mod_ideal_roundtrip():
    trunc = 6
    s = mono(X, trunc).scale(Fraction(2, 3)) + mono(Y, trunc)
    g = exp_mod(s, MOD_IY)
    assert log_mod(g, MOD_IY) == reduce_mod_ideal(s, MOD_IY)


def test_beta_series_coefficients():
    # t/(e^t - 1) = sum B_k t^k / k!
    beta = beta_series(QQ, 8)
    facts = [1, 1, 2, 6, 24, 120, 720, 5040, 40320]
    for k in range(9):
        assert beta.coeffs[k] == bernoulli_number(k) / facts[k]
    assert beta.coeffs[1] == Fraction(-1, 2)
    assert beta.coeffs[2] == Fraction(1, 12)
    assert beta.coeffs[3] == 0


def test_beta_functional_equation():
    # beta(t) * (e^t - 1)/t = 1  and  beta(-t) = beta(t) * e^t
    deg = 8
    beta = beta_series(QQ, deg)
    expm1_over_t = GenSeries(QQ, [Fraction(1, f) for f in
                                  [1, 2, 6, 24, 120, 720, 5040, 40320, 362880]])
    assert beta * expm1_over_t == GenSeries(QQ, [1] + [0] * deg)
    exp_t = GenSeries.exp_linear(QQ, Fraction(1), deg)
    assert beta.compose_linear(Fraction(-1)) == beta * exp_t


def test_bernoulli_numbers_frozen():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(2) == Fraction(1, 6)
    assert bernoulli_number(3) == 0
    assert bernoulli_number(4) == Fraction(-1, 30)
    assert bernoulli_number(6) == Fraction(1, 42)
    assert bernoulli_number(12) == Fraction(-691, 2730)


def test_bernoulli_poly_difference_equation():
    # B_k(x+1) - B_k(x) = k x^(k-1)
    for k in range(1, 9):
        for x in (Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 3),
                  Fraction(-7, 5), Fraction(11, 4)):
            diff = bernoulli_poly_eval(k, x + 1) - bernoulli_poly_eval(k, x)
            assert diff == k * x ** (k - 1)


def test_bernoulli_poly_eval_frozen():
    assert bernoulli_poly_eval(2, Fraction(1, 2)) == Fraction(-1, 12)
    assert bernoulli_poly_eval(1, Fraction(0)) == Fraction(-1, 2)
    assert bernoulli_poly_eval(4, Fraction(1)) == Fraction(-1, 30)


def test_polylog_part_roundtrip():
    ring = PolyRing(["rho", "c1", "c2", "c3"])
    trunc = 6
    lam = NCSeries.monomial(ring, X, trunc, ring.sym("rho"))
    for m in (1, 2, 3):
        lam = lam + ad_pow(ring, m, trunc).scale(ring.sym(f"c{m}"))
    x_coeff, branches = polylog_part(lam)
    assert x_coeff == ring.sym("rho")
    assert branches[0] == (
        ring.sym("c1"), ring.sym("c2"), ring.sym("c3"),
        ring.zero, ring.zero, ring.zero,
    )
    assert polylog_element(ring, 1, FLAVOR_STANDARD, trunc, x_coeff, branches) == (
        reduce_mod_ideal(lam, MOD_IY)
    )


def test_polylog_part_rejects_non_lie_junk():
    trunc = 4
    bad = mono(X, trunc) * mono(X, trunc)  # X^2 is not rho*X + ad-terms
    with pytest.raises(NotPolylogError) as exc:
        polylog_part(bad)
    assert exc.value.word is not None


def test_gen_series_arithmetic():
    f = GenSeries(QQ, [Fraction(1), Fraction(2), Fraction(3)])
    g = GenSeries(QQ, [Fraction(1), Fraction(-1)])
    assert (f * g).coeffs[1] == Fraction(1)
    assert f.mul_t().coeffs[0] == 0 and f.mul_t().coeffs[1] == 1
    inv = f.inverse()
    degree = min(len(f.coeffs), len(inv.coeffs)) - 1
    assert (f * inv) == GenSeries(QQ, [1] + [0] * degree)
    with pytest.raises(ValueError):
        GenSeries(QQ, [Fraction(0), Fraction(1)]).inverse()
