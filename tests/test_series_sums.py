"""Series sums against the routes they replaced.

Every series sum is one ``ring.lincomb`` per coefficient (``NCSeries.lincomb``
behind ``+``, ``-``, negation, rational ``scale``, exp, log and
``AlgebraMorphism.apply``), and only the ``NCSeries`` constructor drops
zero and over-degree terms.  The oracles below are the bodies these
replaced: ``__add__`` with its own get/``is_zero``/``pop`` loop, exp and
log folding ``acc = acc + term`` over rescaled terms, ``apply`` with its
private dict of pairs, and ``_product`` dropping each cancelled sum as it
goes.  Each result must equal the oracle's, store no zero coefficient and
no word beyond its truncation, and over ``QQ`` keep ``int``/``Fraction``
values, with an integer series staying ``int``.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from polydist.lie import MOD_IY, MOD_JY, bch, exp_mod, log_mod, mul_mod, reduce_mod_ideal
from polydist.ncseries import AlgebraMorphism, NCSeries, SeriesError
from polydist.scalars import QQ, PolyRing
from polydist.words import FLAVORS

# -- the replaced bodies, kept as oracles --


def _add_oracle(self, other):
    other = self._check(other)
    trunc = min(self.trunc, other.trunc)
    coeffs = {w: c for w, c in self.coeffs.items() if len(w) <= trunc}
    for w, c in other.coeffs.items():
        if len(w) > trunc:
            continue
        s = coeffs.get(w)
        s = c if s is None else s + c
        if self.ring.is_zero(s):
            coeffs.pop(w, None)
        else:
            coeffs[w] = s
    return NCSeries(self.ring, self.level, self.flavor, trunc, coeffs)


def _neg_oracle(self):
    return self._like({w: -c for w, c in self.coeffs.items()})


def _sub_oracle(self, other):
    return _add_oracle(self, _neg_oracle(other))


def _scale_oracle(self, c):
    if isinstance(c, (int, Fraction)):
        lincomb = self.ring.lincomb
        return self._like({w: lincomb(((v, c),)) for w, v in self.coeffs.items()})
    c = self.ring.coerce(c)
    if self.ring.is_zero(c):
        return NCSeries.zero(self.ring, self.level, self.flavor, self.trunc)
    return self._like({w: c * v for w, v in self.coeffs.items()})


def _product_oracle(self, other, partners=None):
    trunc = min(self.trunc, other.trunc)
    coeffs = {}
    terms = other.coeffs.items()
    for w1, c1 in self.coeffs.items():
        d1 = len(w1)
        if d1 > trunc:
            continue
        for w2, c2 in terms if partners is None else partners(w1):
            if d1 + len(w2) > trunc:
                continue
            w = w1 + w2
            c = c1 * c2
            s = coeffs.get(w)
            s = c if s is None else s + c
            if self.ring.is_zero(s):
                coeffs.pop(w, None)
            else:
                coeffs[w] = s
    return NCSeries(self.ring, self.level, self.flavor, trunc, coeffs)


def _apply_oracle(self, series):
    trunc = min(self.trunc, series.trunc)
    coeffs = series.coeffs
    pairs = {}
    for w, image in self.word_images(sorted(coeffs)):
        c = coeffs[w]
        for w2, q in image.coeffs.items():
            pairs.setdefault(w2, []).append((c, q))
    ring = series.ring
    return NCSeries(
        ring,
        self.target_level,
        self.target_flavor,
        trunc,
        {w2: ring.lincomb(p) for w2, p in pairs.items()},
    )


def _mul_mod_oracle(a, b, which=None):
    # ``mul_mod`` only chooses the pairs ``_product`` forms; the full
    # product, reduced, is the same element of the quotient
    product = _product_oracle(a, b)
    return product if which is None else reduce_mod_ideal(product, which)


def _exp_mod_oracle(s, which=None):
    if not s.ring.is_zero(s.constant_term()):
        raise SeriesError("exp needs zero constant term")
    acc = NCSeries.one(s.ring, s.level, s.flavor, s.trunc)
    term = acc
    for k in range(1, s.trunc + 1):
        term = _scale_oracle(_mul_mod_oracle(term, s, which), Fraction(1, k))
        if term.is_zero():
            break
        acc = _add_oracle(acc, term)
    return acc


def _log_mod_oracle(g, which=None):
    u = _sub_oracle(g, NCSeries.one(g.ring, g.level, g.flavor, g.trunc))
    if not g.ring.is_zero(u.constant_term()):
        raise SeriesError("log needs constant term one")
    acc = NCSeries.zero(g.ring, g.level, g.flavor, g.trunc)
    power = NCSeries.one(g.ring, g.level, g.flavor, g.trunc)
    for k in range(1, g.trunc + 1):
        power = _mul_mod_oracle(power, u, which)
        if power.is_zero():
            break
        acc = _add_oracle(acc, _scale_oracle(power, Fraction(-1 if k % 2 == 0 else 1, k)))
    return acc


def _bch_oracle(s, t, which=None):
    return _log_mod_oracle(
        _mul_mod_oracle(_exp_mod_oracle(s, which), _exp_mod_oracle(t, which), which),
        which,
    )


# -- strategies --

POLY = PolyRing(["a", "b"])
A, B = POLY.sym("a"), POLY.sym("b")
# (ideal, level): none and IY at levels 1 and 2, JY at level 1 only
QUOTIENTS = [(None, 1), (None, 2), (MOD_IY, 1), (MOD_IY, 2), (MOD_JY, 1)]

# few values, each with its negative, so that sums and products cancel often
INTEGERS = [1, -1, 2, -2]
RATIONALS = INTEGERS + [Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3), Fraction(-2, 3)]
POLYS = [A, -A, B, -B, A + B, -A - B, A * B - 1, 1 - A * B]
POLY_FRACTIONS = POLYS + [A * Fraction(1, 2) - B, B - A * Fraction(1, 2)]


def _coefficients(ring, integral):
    if ring == QQ:
        return st.sampled_from(INTEGERS if integral else RATIONALS)
    return st.sampled_from(POLYS if integral else POLY_FRACTIONS)


@st.composite
def _series(draw, ring, level, flavor, trunc, integral, min_degree=0, max_terms=6):
    word = st.integers(min_degree, max(min_degree, trunc)).flatmap(
        lambda d: st.lists(st.integers(0, level), min_size=d, max_size=d).map(tuple)
    )
    words = draw(st.lists(word, max_size=max_terms))
    values = _coefficients(ring, integral)
    return NCSeries(ring, level, flavor, trunc, {w: draw(values) for w in words})


@st.composite
def _case(draw, n_series, min_degree=0, max_trunc=4, max_terms=6):
    """An ideal (or None), whether every coefficient is integral, and
    ``n_series`` series of one algebra over QQ or POLY, each with its own
    truncation."""
    which, level = draw(st.sampled_from(QUOTIENTS))
    flavor = draw(st.sampled_from(FLAVORS))
    ring = draw(st.sampled_from([QQ, POLY]))
    integral = draw(st.booleans())
    series = [
        draw(_series(ring, level, flavor, draw(st.integers(0, max_trunc)),
                     integral, min_degree, max_terms))
        for _ in range(n_series)
    ]
    return which, integral, series


def _same(got, want, integral=False):
    """``got`` equals the oracle's ``want`` and is in canonical form."""
    assert got == want
    ring = got.ring
    for w, c in got.coeffs.items():
        assert not ring.is_zero(c), w
        assert len(w) <= got.trunc, w
        if ring == QQ:
            assert type(c) is int if integral else type(c) in (int, Fraction), (w, c)


# -- sums, scaling and products --


@given(_case(2), st.sampled_from(RATIONALS + [0]))
@settings(max_examples=80, deadline=None)
def test_sums_and_rational_scaling_match_the_replaced_loops(case, q):
    _, integral, (a, b) = case
    _same(a + b, _add_oracle(a, b), integral)
    _same(a - b, _sub_oracle(a, b), integral)
    _same(-a, _neg_oracle(a), integral)
    _same(a - a, NCSeries.zero(a.ring, a.level, a.flavor, a.trunc))
    _same(a.scale(q), _scale_oracle(a, q), integral and type(q) is int)
    _same(a * q, _scale_oracle(a, q), integral and type(q) is int)
    weights = (q, -1, 2)
    pairs = list(zip((a, b, a), weights))
    want = _add_oracle(_add_oracle(_scale_oracle(a, q), _scale_oracle(b, -1)),
                       _scale_oracle(a, 2))
    _same(NCSeries.lincomb(pairs), want, integral and type(q) is int)


@given(_case(1), st.sampled_from(POLYS))
@settings(max_examples=40, deadline=None)
def test_ring_scaling_and_truncation_match_the_replaced_filters(case, p):
    _, integral, (a,) = case
    if a.ring == POLY:
        _same(a.scale(p), _scale_oracle(a, p))
        _same(a.scale(POLY.zero), _scale_oracle(a, POLY.zero))
    for trunc in range(a.trunc + 1):
        want = NCSeries(a.ring, a.level, a.flavor, trunc,
                        {w: c for w, c in a.coeffs.items() if len(w) <= trunc})
        _same(a.truncate(trunc), want, integral)
    # a map that sends some coefficients to zero: none of them is stored
    kill = a.ring.coerce(1 if a.ring == QQ else A)
    want = NCSeries(a.ring, a.level, a.flavor, a.trunc,
                    {w: c for w, c in a.coeffs.items() if c != kill})
    _same(a.map_coefficients(lambda c: c - kill if c == kill else c), want, integral)


@st.composite
def _planted(draw):
    """Two series of one algebra with a product term planted to cancel:
    u·(v.w) and (u.v)·w meet at u.v.w with coefficients c·d and d·(-c)."""
    which, integral, (a, b) = draw(_case(2, max_terms=6))
    trunc = min(a.trunc, b.trunc)
    if trunc >= 1:

        def word(min_size, max_size):
            letters = st.integers(0, a.level)
            return draw(st.lists(letters, min_size=min_size, max_size=max_size).map(tuple))

        v = word(1, trunc)
        u = word(0, trunc - len(v))
        w = word(0, trunc - len(v) - len(u))
        c, d = draw(_coefficients(a.ring, integral)), draw(_coefficients(a.ring, integral))
        a = NCSeries(a.ring, a.level, a.flavor, a.trunc, {**a.coeffs, u: c, u + v: d})
        b = NCSeries(b.ring, b.level, b.flavor, b.trunc, {**b.coeffs, v + w: d, w: -c})
    return which, integral, (a, b)


@given(_planted(), st.integers(0, 3))
@settings(max_examples=80, deadline=None)
def test_products_match_the_replaced_pair_loop(case, parity):
    which, integral, (a, b) = case
    _same(a * b, _product_oracle(a, b), integral)
    _same(mul_mod(a, b, which), _mul_mod_oracle(a, b, which), integral)

    # a partner list that leaves pairs out
    def partners(w1):
        return [t for t in b.coeffs.items() if (len(w1) + len(t[0])) % 4 != parity]

    _same(a._product(b, partners), _product_oracle(a, b, partners), integral)


@st.composite
def _morphism_case(draw):
    """A series and a morphism from its algebra whose nonzero letter images
    come from a pool of two, so that the images of different words meet and
    cancel."""
    _, integral, (series,) = draw(_case(1))
    level, flavor = series.level, series.flavor
    trunc = draw(st.integers(1, 4))
    image = _series(QQ, level, flavor, trunc, integral, 1, 3)
    pool = [draw(image.filter(lambda s: not s.is_zero())) for _ in range(2)]
    images = {letter: draw(st.sampled_from(pool)) for letter in range(level + 1)}
    phi = AlgebraMorphism(level, flavor, level, flavor, images, trunc)
    return integral, phi, series


@given(_morphism_case())
@settings(max_examples=80, deadline=None)
def test_apply_matches_the_replaced_pair_dict(case):
    integral, phi, series = case
    _same(phi.apply(series), _apply_oracle(phi, series), integral)


# -- exp, log and BCH --


@given(_case(2, min_degree=1, max_terms=4))
@settings(max_examples=40, deadline=None)
def test_exp_log_bch_match_the_replaced_folds(case):
    which, _, (s, t) = case
    _same(exp_mod(s, which), _exp_mod_oracle(s, which))
    g = s + NCSeries.one(s.ring, s.level, s.flavor, s.trunc)
    _same(log_mod(g, which), _log_mod_oracle(g, which))
    _same(bch(s, t, which), _bch_oracle(s, t, which))
    one = NCSeries.one(s.ring, s.level, s.flavor, s.trunc)
    _same(log_mod(one, which), NCSeries.zero(s.ring, s.level, s.flavor, s.trunc))
