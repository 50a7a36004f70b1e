"""Exact scalars against the routes they replaced.

A ``SymbolicPoly`` keeps integer numerators over one denominator in lowest
terms, so sums, products and ``PolyRing.lincomb`` are integer work, and
``NCSeries.scale`` by a rational goes through ``lincomb``.  The first
oracles are the old bodies, which combined ``Fraction``s pair by pair (and
scaled a series through a product with a constant polynomial); the
properties after them check that every result is in the canonical form.

A monomial is the sorted tuple of its generator indices; the
``(index, exponent)`` form it replaced, with its product rule, is kept
below as the oracle for products, sums, ``lincomb``, ``substitute``,
``coefficient_of`` and printing.  ``QQ`` values are plain
``int``s until a division makes them ``Fraction``s; the ``RationalField``
that coerced every value into a ``Fraction`` is kept as the oracle for
series products, morphisms, exp, log and BCH over ``QQ``.
"""

from contextlib import ExitStack
from fractions import Fraction
from math import gcd
from unittest import mock

from hypothesis import given, settings, strategies as st

from polydist.geometry import j_zeta_morphism, pi_morphism
from polydist.lie import MOD_IY, MOD_JY, bch, bernoulli_number, exp_mod, log_mod
from polydist.ncseries import NCSeries
from polydist.scalars import QQ, PolyRing, RationalField, SymbolicPoly
from polydist.words import FLAVOR_TILDE, FLAVORS


def _mul_monomials(m1, m2):
    """The product of two ``(index, exponent)`` monomials, the form a
    monomial had before it became the sorted tuple of its indices."""
    if not m1:
        return m2
    if not m2:
        return m1
    exps = dict(m1)
    for i, e in m2:
        exps[i] = exps.get(i, 0) + e
    return tuple(sorted(exps.items()))


def _pairs(m):
    """Index tuple -> ``(index, exponent)`` pairs: (0, 0, 2) -> ((0, 2), (2, 1))."""
    return tuple((i, m.count(i)) for i in sorted(set(m)))


def _indices(pairs):
    """``(index, exponent)`` pairs -> the sorted index tuple."""
    return tuple(i for i, e in pairs for _ in range(e))


def _add_oracle(self, other):
    other = self._check(other)
    if other is None:
        return NotImplemented
    terms = dict(self.terms)
    for m, c in other.terms.items():
        s = terms.get(m, Fraction(0)) + c
        if s:
            terms[m] = s
        else:
            terms.pop(m, None)
    return SymbolicPoly(self.ring, terms)


def _mul_oracle(self, other):
    other = self._check(other)
    if other is None:
        return NotImplemented
    terms = {}
    for m1, c1 in self.terms.items():
        for m2, c2 in other.terms.items():
            m = _indices(_mul_monomials(_pairs(m1), _pairs(m2)))
            s = terms.get(m, Fraction(0)) + c1 * c2
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
    return SymbolicPoly(self.ring, terms)


def _lincomb_oracle(ring, pairs):
    terms = {}
    for p, q in pairs:
        for m, c in ring.coerce(p).terms.items():
            terms[m] = terms.get(m, 0) + q * c
    return SymbolicPoly(ring, terms)


def _scale_oracle(series, c):
    c = series.ring.coerce(c)
    if series.ring.is_zero(c):
        return NCSeries.zero(series.ring, series.level, series.flavor, series.trunc)
    return series._like({w: c * v for w, v in series.coeffs.items()})


def _old_route():
    """Patches that put every polynomial sum and product on the oracles."""
    return [
        mock.patch.object(SymbolicPoly, "__add__", _add_oracle),
        mock.patch.object(SymbolicPoly, "__radd__", _add_oracle),
        mock.patch.object(SymbolicPoly, "__mul__", _mul_oracle),
        mock.patch.object(SymbolicPoly, "__rmul__", _mul_oracle),
        mock.patch.object(PolyRing, "lincomb", _lincomb_oracle),
        mock.patch.object(NCSeries, "scale", _scale_oracle),
    ]


RING = PolyRing(["a", "b", "c"])
# large coprime denominators (Mersenne primes among them) next to small ones
DENOMINATORS = [1, 2, 3, 4, 6, 12, 35, 10**9 + 7, 2**61 - 1, 2**89 - 1]
rationals = st.one_of(
    st.fractions(min_value=-50, max_value=50, max_denominator=40),
    st.builds(
        Fraction,
        st.integers(-(10**30), 10**30),
        st.sampled_from(DENOMINATORS),
    ),
)
# exponents 0..2 in a, b, c; the empty monomial is the constant term
monomials = st.tuples(*[st.integers(0, 2)] * 3).map(
    lambda es: tuple(i for i, e in enumerate(es) for _ in range(e))
)
polys = st.dictionaries(monomials, rationals, max_size=6).map(
    lambda terms: SymbolicPoly(RING, terms)
)
constants = rationals.map(RING.from_fraction)
operands = st.one_of(polys, constants, st.just(RING.zero))


@given(operands, operands, operands)
@settings(max_examples=150, deadline=None)
def test_product_and_sum_match_the_fraction_route(p, q, r):
    assert p * q == _mul_oracle(p, q)
    assert p + q == _add_oracle(p, q)
    # (p + r)(p - r): the cross terms p·r and -r·p cancel
    assert (p + r) * (p - r) == _mul_oracle(p + r, p - r)
    assert p * (q - q) == RING.zero


@given(st.lists(st.tuples(operands, st.one_of(rationals, st.integers(-5, 5)))))
@settings(max_examples=150, deadline=None)
def test_lincomb_matches_the_fraction_route(pairs):
    assert RING.lincomb(pairs) == _lincomb_oracle(RING, pairs)
    # each pair cancelled by its negative: every term sums to zero
    both = pairs + [(p, -q) for p, q in pairs]
    assert RING.lincomb(both) == _lincomb_oracle(RING, both) == RING.zero


@st.composite
def _series(draw, level, flavor, trunc, min_degree=0):
    word = st.integers(min_degree, trunc).flatmap(
        lambda d: st.lists(st.integers(0, level), min_size=d, max_size=d)
    )
    words = draw(st.lists(word, min_size=1, max_size=5))
    return NCSeries(RING, level, flavor, trunc, {
        tuple(w): draw(operands) for w in words
    })


@given(
    st.sampled_from(FLAVORS).flatmap(lambda f: _series(1, f, 4)),
    st.one_of(rationals, st.integers(-5, 5), st.just(0)),
)
@settings(max_examples=100, deadline=None)
def test_scale_matches_the_constant_polynomial_product(series, c):
    want = _scale_oracle(series, c)
    assert series.scale(c) == want
    assert series * c == want
    assert c * series == want


@st.composite
def _bch_case(draw):
    level = draw(st.integers(1, 2))
    flavor = draw(st.sampled_from(FLAVORS))
    trunc = draw(st.integers(2, 4))
    return [draw(_series(level, flavor, trunc, min_degree=1)) for _ in range(2)]


@given(_bch_case())
@settings(max_examples=40, deadline=None)
def test_bch_mod_iy_matches_the_fraction_route(case):
    s, t = case
    got = bch(s, t, which=MOD_IY)
    with ExitStack() as stack:
        for patch in _old_route():
            stack.enter_context(patch)
        want = bch(s, t, which=MOD_IY)
    assert got == want


def _assert_canonical(p):
    assert p.den > 0
    assert gcd(p.den, *p.nums.values()) == 1
    assert all(p.nums.values())
    if not p.nums:
        assert p.den == 1


@given(operands, operands, rationals, st.lists(st.tuples(operands, rationals)))
@settings(max_examples=150, deadline=None)
def test_every_result_is_in_lowest_terms(p, q, c, pairs):
    for r in (p, p * q, p + q, p - q, -p, p - p, p * c, c - p, RING.lincomb(pairs)):
        _assert_canonical(r)
    _assert_canonical(p.substitute({"a": c, "b": q}))
    series = NCSeries(RING, 1, FLAVORS[0], 3, {(0,): p})
    for v in series.scale(c).coeffs.values():
        _assert_canonical(v)


@given(operands, operands)
@settings(max_examples=150, deadline=None)
def test_equal_polynomials_hash_alike_across_construction_routes(p, q):
    built = SymbolicPoly(RING, (p * q).terms)  # the Fraction constructor
    assert built == p * q == q * p
    assert hash(built) == hash(p * q) == hash(q * p)
    assert hash(p + q - q) == hash(p)
    assert hash(RING.lincomb([(p, 1), (q, 1)])) == hash(p + q)
    assert hash(p - p) == hash(RING.zero) == hash(SymbolicPoly(RING, {}))


@given(rationals, st.integers(-(10**20), 10**20), polys)
@settings(max_examples=150, deadline=None)
def test_comparison_with_fractions_and_ints(c, n, p):
    assert RING.from_fraction(c) == c
    assert RING.from_fraction(c) != c + Fraction(1, 3)
    assert RING.from_fraction(n) == n and n == RING.from_fraction(n)
    assert RING.from_fraction(n) != n + 1
    assert (RING.zero == 0) and not (RING.sym("a") == 0)
    # a polynomial equals a number exactly when it is that constant
    constant = set(p.terms) <= {()}
    value = p.terms.get((), Fraction(0))
    assert (p == value) == constant


# -- monomials: the (index, exponent) form as the oracle -------------------


def _pair_terms(p):
    """``p`` as ``{(index, exponent) monomial: Fraction}``."""
    return {_pairs(m): c for m, c in p.terms.items()}


def _pair_lincomb(pairs):
    out = {}
    for terms, q in pairs:
        for m, c in terms.items():
            out[m] = out.get(m, 0) + q * c
    return {m: c for m, c in out.items() if c}


def _pair_mul(t1, t2):
    out = {}
    for m1, c1 in t1.items():
        for m2, c2 in t2.items():
            m = _mul_monomials(m1, m2)
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _pair_substitute(terms, by_index):
    pairs = []
    for m, c in terms.items():
        factor = {tuple((i, e) for i, e in m if i not in by_index): Fraction(1)}
        for i, e in m:
            if i in by_index:
                for _ in range(e):
                    factor = _pair_mul(factor, by_index[i])
        pairs.append((factor, c))
    return _pair_lincomb(pairs)


def _pair_coefficient_of(terms, idx):
    out = {}
    for m, c in terms.items():
        if [e for i, e in m if i == idx] == [1]:
            rest = tuple((i, e) for i, e in m if i != idx)
            out[rest] = out.get(rest, 0) + c
    return {m: c for m, c in out.items() if c}


def _pair_str(ring, terms):
    if not terms:
        return "0"
    parts = []
    # graded order: total degree first, then exponent vector
    for m, c in sorted(terms.items(), key=lambda t: (sum(e for _, e in t[0]), t[0])):
        names = "*".join(
            f"{ring.gens[i]}^{e}" if e > 1 else ring.gens[i] for i, e in m
        )
        if not names:
            parts.append(str(c))
        elif c == 1:
            parts.append(names)
        elif c == -1:
            parts.append(f"-{names}")
        else:
            parts.append(f"{c}*{names}")
    return " + ".join(parts).replace("+ -", "- ")


@given(
    polys,
    polys,
    operands,
    st.lists(st.tuples(operands, st.one_of(rationals, st.integers(-5, 5))), max_size=4),
    st.sampled_from(RING.gens),
)
@settings(max_examples=150, deadline=None)
def test_index_tuple_monomials_match_the_pair_form(p, q, c, pairs, name):
    tp, tq = _pair_terms(p), _pair_terms(q)
    assert SymbolicPoly(RING, {_indices(m): v for m, v in tp.items()}) == p
    assert _pair_terms(p * q) == _pair_mul(tp, tq)
    assert _pair_terms(p + q) == _pair_lincomb([(tp, 1), (tq, 1)])
    assert _pair_terms(p - q) == _pair_lincomb([(tp, 1), (tq, -1)])
    assert _pair_terms(RING.lincomb(pairs)) == _pair_lincomb(
        [(_pair_terms(RING.coerce(a)), v) for a, v in pairs]
    )
    point = {name: q, "c": c}
    by_index = {RING.index[k]: _pair_terms(RING.coerce(v)) for k, v in point.items()}
    assert _pair_terms(p.substitute(point)) == _pair_substitute(tp, by_index)
    for r in (p, p * q, p * p * q):
        tr = _pair_terms(r)
        assert _pair_terms(r.coefficient_of(name)) == _pair_coefficient_of(
            tr, RING.index[name]
        )
        assert str(r) == _pair_str(RING, tr)


def test_a_monomial_is_the_sorted_tuple_of_its_generator_indices():
    a, b, c = (RING.sym(g) for g in RING.gens)
    assert (c * a * a * b).nums == {(0, 0, 1, 2): 1}
    assert str(a * a * b + a * b * b + c) == "c + a*b^2 + a^2*b"


# -- QQ: the Fraction-coercing RationalField as the oracle -----------------


class _FractionField:
    """The ``RationalField`` bodies that turned every int into a Fraction."""

    zero = property(lambda self: Fraction(0))
    one = property(lambda self: Fraction(1))

    def coerce(self, x):
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into QQ")

    def lincomb(self, pairs):
        total = Fraction(0)
        for p, q in pairs:
            total += self.coerce(p) * q
        return total


def _fraction_field():
    """Patches that put ``QQ`` back on the Fraction-coercing bodies."""
    return [
        mock.patch.object(RationalField, name, getattr(_FractionField, name))
        for name in ("zero", "one", "coerce", "lincomb")
    ]


qq_values = st.one_of(
    st.integers(-6, 6), st.fractions(min_value=-6, max_value=6, max_denominator=6)
)


@st.composite
def _qq_case(draw):
    """Raw coefficient dicts for two Lie-degree series and one source series
    of a covering or specialization morphism, with that morphism's recipe."""
    flavor = draw(st.sampled_from(FLAVORS))
    trunc = draw(st.integers(2, 4))
    level = draw(st.integers(1, 2))
    which = draw(st.sampled_from([None, MOD_IY] + ([MOD_JY] if level == 1 else [])))

    def raw(level, min_degree):
        word = st.integers(min_degree, trunc).flatmap(
            lambda d: st.lists(st.integers(0, level), min_size=d, max_size=d)
        )
        picks = draw(st.lists(st.tuples(word, qq_values), min_size=1, max_size=5))
        return {tuple(w): c for w, c in picks}

    if draw(st.booleans()):
        r, n = draw(st.sampled_from([(1, 2), (1, 3), (2, 2)]))
        morphism, source_level = (pi_morphism, (r, n, trunc, flavor)), r * n
    else:
        n = draw(st.integers(2, 3))
        recipe = (n, draw(st.integers(0, n - 1)), trunc, flavor)
        morphism, source_level = (j_zeta_morphism, recipe), n
    return {
        "level": level,
        "flavor": flavor,
        "trunc": trunc,
        "which": which,
        "s": raw(level, 1),
        "t": raw(level, 1),
        "source": raw(source_level, 0),
        "source_level": source_level,
        "morphism": morphism,
    }


def _qq_results(case):
    """Every QQ result the case asks for, built from its raw dicts through
    ``QQ`` so that the ring in force decides the coefficient types."""
    level, flavor, trunc = case["level"], case["flavor"], case["trunc"]
    which = case["which"]

    def series(raw, level):
        coeffs = {w: QQ.coerce(c) for w, c in raw.items()}
        return NCSeries(QQ, level, flavor, trunc, coeffs)

    s, t = series(case["s"], level), series(case["t"], level)
    build, recipe = case["morphism"]
    phi = build(*recipe)
    return [
        s * t,
        s.scale(Fraction(1, 3)) + t.scale(2),
        exp_mod(s, which),
        log_mod(NCSeries.one(QQ, level, flavor, trunc) + s, which),
        bch(s, t, which),
        phi.apply(series(case["source"], case["source_level"])),
        phi.images[1],
    ]


@given(_qq_case())
@settings(max_examples=80, deadline=None)
def test_qq_results_match_the_fraction_field(case):
    got = _qq_results(case)
    with ExitStack() as stack:
        for patch in _fraction_field():
            stack.enter_context(patch)
        want = _qq_results(case)
        assert all(type(c) is Fraction for r in want for c in r.coeffs.values())
    assert got == want
    assert [str(r) for r in got] == [str(r) for r in want]
    # every QQ coefficient is an int or a Fraction: never a float or a bool
    assert all(type(c) in (int, Fraction) for r in got for c in r.coeffs.values())


@given(_qq_case())
@settings(max_examples=40, deadline=None)
def test_tilde_images_of_integer_series_stay_int(case):
    build, (*head, trunc, _) = case["morphism"]
    phi = build(*head, trunc, FLAVOR_TILDE)
    raw = {w: c for w, c in case["source"].items() if type(c) is int}
    out = phi.apply(NCSeries(QQ, phi.source_level, FLAVOR_TILDE, trunc, raw))
    assert all(type(c) is int for c in out.coeffs.values())


def test_qq_is_plain_ints_and_fractions():
    assert type(QQ.zero) is int and type(QQ.one) is int
    for x in (0, -3, 10**40, Fraction(2, 4)):
        assert QQ.coerce(x) is x
    assert type(QQ.lincomb([])) is int
    assert type(QQ.lincomb([(3, 2), (5, -1)])) is int
    assert QQ.lincomb([(3, 2), (Fraction(1, 2), 4)]) == 8
    assert [type(bernoulli_number(k)) for k in range(21)] == [Fraction] * 21
