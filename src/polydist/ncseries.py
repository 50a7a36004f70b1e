"""Degree-truncated non-commutative power series over a coefficient ring.

A series is a sparse dict letters -> coefficient, keyed by the
``Word.letters`` of words of its level and flavor (degree is length) and
truncated at a total degree bound ``trunc``.  Only the constructor drops
terms (zeros, and degree > trunc).  Every sum (``lincomb``, ``+``, ``-``,
rational ``scale``, ``AlgebraMorphism.apply``) is one ``ring.lincomb`` per
coefficient; only ``_product`` adds its pairs one by one, because collecting
each word's pairs for a ``lincomb`` slows the formal engine's ``QQ`` products.

``AlgebraMorphism`` is a ring map determined by letter images with zero
constant term (so it preserves the augmentation and interacts correctly with
exp/log).  The letter images have rational coefficients, so one morphism
applies to series over any coefficient ring: ``word_images`` yields the
images of source words over ``QQ``, each one product of a shared prefix
image and a letter image, and ``apply`` is the linear combination of word
images.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction

from .scalars import QQ
from .words import Word, render_letters

class SeriesError(ValueError):
    """Raised for level/flavor/ring mismatches and degree overflows."""


class NCSeries:
    __slots__ = ("ring", "level", "flavor", "trunc", "coeffs")

    def __init__(self, ring, level, flavor, trunc, coeffs=None):
        if trunc < 0:
            raise SeriesError("truncation degree must be >= 0")
        self.ring = ring
        self.level = level
        self.flavor = flavor
        self.trunc = trunc
        self.coeffs = {}
        if coeffs:
            for w, c in coeffs.items():
                if w and not 0 <= min(w) <= max(w) <= level:
                    raise SeriesError(f"word {w} outside the level-{level} alphabet")
                if len(w) <= trunc and not ring.is_zero(c):
                    self.coeffs[w] = c

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, ring, level, flavor, trunc):
        return cls(ring, level, flavor, trunc)

    @classmethod
    def one(cls, ring, level, flavor, trunc):
        return cls(ring, level, flavor, trunc, {(): ring.one})

    @classmethod
    def monomial(cls, ring, word, trunc, coeff=None):
        c = ring.one if coeff is None else ring.coerce(coeff)
        return cls(ring, word.level, word.flavor, trunc, {word.letters: c})

    def _like(self, coeffs):
        return NCSeries(self.ring, self.level, self.flavor, self.trunc, coeffs)

    def _check(self, other):
        if not isinstance(other, NCSeries):
            raise SeriesError(f"expected NCSeries, got {type(other).__name__}")
        if (
            other.level != self.level
            or other.flavor != self.flavor
            or other.ring != self.ring
        ):
            raise SeriesError("series live in different algebras")
        return other

    # -- inspection -------------------------------------------------------

    def coefficient(self, word):
        """Coefficient of a Word or letters; degree beyond trunc is an error."""
        if isinstance(word, Word):
            if word.level != self.level or word.flavor != self.flavor:
                raise SeriesError(f"word {word} does not match level/flavor")
            word = word.letters
        if len(word) > self.trunc:
            raise SeriesError(
                f"word degree {len(word)} exceeds truncation {self.trunc}"
            )
        return self.coeffs.get(word, self.ring.zero)

    def constant_term(self):
        return self.coeffs.get((), self.ring.zero)

    def support(self):
        return sorted(self.coeffs, key=lambda w: (len(w), w))  # length, then letters

    def is_zero(self):
        return not self.coeffs

    def homogeneous_component(self, d):
        return self._like({w: c for w, c in self.coeffs.items() if len(w) == d})

    # -- arithmetic -------------------------------------------------------

    @staticmethod
    def lincomb(pairs):
        """The sum of q·s over ``(series, rational)`` pairs from one algebra,
        truncated at the lowest ``trunc``."""
        pairs = list(pairs)
        s0 = pairs[0][0]
        trunc = min(s0._check(s).trunc for s, _ in pairs)
        terms = ((w, c, q) for s, q in pairs for w, c in s.coeffs.items())
        return _summed(s0.ring, s0.level, s0.flavor, trunc, terms)

    def __add__(self, other):
        return NCSeries.lincomb(((self, 1), (other, 1)))

    def __neg__(self):
        return NCSeries.lincomb(((self, -1),))

    def __sub__(self, other):
        return NCSeries.lincomb(((self, 1), (other, -1)))

    def __mul__(self, other):
        if isinstance(other, NCSeries):
            return self._product(self._check(other))
        return self.scale(other)

    def _product(self, other, partners=None):
        """The truncated product ``self * other``.

        ``partners``, when given, maps each word of ``self`` to the
        ``(word, coefficient)`` terms of ``other`` it is multiplied with;
        the pairs it leaves out are skipped before their coefficients are
        multiplied.  Without it every pair is formed.
        """
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
                coeffs[w] = c if s is None else s + c
        return NCSeries(self.ring, self.level, self.flavor, trunc, coeffs)

    def __rmul__(self, other):
        # scalars commute with every coefficient ring we use
        return self.scale(other)

    def scale(self, c):
        if isinstance(c, (int, Fraction)):
            # a rational factor only rescales coefficients: no ring product
            return NCSeries.lincomb(((self, c),))
        c = self.ring.coerce(c)
        return self._like({w: c * v for w, v in self.coeffs.items()})

    def truncate(self, trunc):
        if trunc > self.trunc:
            raise SeriesError(
                f"cannot extend truncation {self.trunc} to {trunc}"
            )
        return NCSeries(self.ring, self.level, self.flavor, trunc, self.coeffs)

    def map_coefficients(self, f, ring=None):
        """Apply f to every coefficient (e.g. a substitution)."""
        out = {w: f(c) for w, c in self.coeffs.items()}
        return NCSeries(ring or self.ring, self.level, self.flavor, self.trunc, out)

    def __eq__(self, other):
        if not isinstance(other, NCSeries):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.level == other.level
            and self.flavor == other.flavor
            and self.trunc == other.trunc
            and self.coeffs == other.coeffs
        )

    # -- exp / log --------------------------------------------------------

    def exp(self):
        """exp of a series with zero constant term (``lie.exp_mod``)."""
        from .lie import exp_mod  # lie imports this module

        return exp_mod(self)

    def log(self):
        """log of a series with constant term one (``lie.log_mod``)."""
        from .lie import log_mod  # lie imports this module

        return log_mod(self)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for w in self.support():
            c = self.coeffs[w]
            body = render_letters(w) or "1"
            parts.append(f"({c})*{body}")
        return " + ".join(parts)

    __repr__ = __str__


class AlgebraMorphism:
    """Algebra map between truncated series algebras, given on letters.

    ``images`` maps every source letter, an int in ``range(source_level + 1)``,
    to an image (possibly zero) over ``QQ`` with zero constant term, living
    in the target algebra.  Application to a series over any ring is
    multiplicative substitution with truncation at min(source trunc, map
    trunc); composition composes letter images.
    """

    def __init__(
        self,
        source_level,
        source_flavor,
        target_level,
        target_flavor,
        images,
        trunc,
    ):
        self.source_level = source_level
        self.source_flavor = source_flavor
        self.target_level = target_level
        self.target_flavor = target_flavor
        self.trunc = trunc
        if set(images) != set(range(source_level + 1)):
            raise SeriesError(
                f"images must be given for exactly the letters 0..{source_level}"
            )
        self.images = {}
        for letter, img in images.items():
            name = render_letters((letter,))
            if img.level != target_level or img.flavor != target_flavor:
                raise SeriesError(f"image of {name} is not in the target algebra")
            if img.ring != QQ:
                raise SeriesError(f"image of {name} is not over QQ")
            if img.constant_term():
                raise SeriesError(
                    f"image of {name} has nonzero constant term "
                    "(augmentation not preserved)"
                )
            self.images[letter] = img.truncate(min(trunc, img.trunc))

    def word_images(self, words):
        """Yield ``(letters, image)`` for each source letter tuple, in order.

        The image of a word is the product of its letter images over ``QQ``,
        truncated at the map's degree.  A stack holds the images of the
        prefixes of the last word, so a word sharing a prefix with it costs
        one product per letter past that prefix.  Given in plain letter-tuple
        order, which visits the word trie depth first, every trie node costs
        exactly one ``NCSeries`` product and the stack never holds more than
        one image per degree.
        """
        # stack[i] is the image of prev[:i]
        prev = ()
        stack = [NCSeries.one(QQ, self.target_level, self.target_flavor, self.trunc)]
        for letters in words:
            k = 0
            for a, b in zip(prev, letters):
                if a != b:
                    break
                k += 1
            del stack[k + 1 :]
            for letter in letters[k:]:
                stack.append(stack[-1] * self.images[letter])
            prev = letters
            yield letters, stack[-1]

    def apply(self, series):
        """The image of ``series``, over the series' own ring."""
        if series.level != self.source_level or series.flavor != self.source_flavor:
            raise SeriesError("series does not live in the source algebra")
        coeffs = series.coeffs
        terms = (
            (w2, coeffs[w], q)
            for w, image in self.word_images(sorted(coeffs))
            for w2, q in image.coeffs.items()
        )
        trunc = min(self.trunc, series.trunc)
        return _summed(series.ring, self.target_level, self.target_flavor, trunc, terms)

    __call__ = apply

    def __repr__(self):
        return (
            f"AlgebraMorphism(n={self.source_level},{self.source_flavor} -> "
            f"n={self.target_level},{self.target_flavor}, D<={self.trunc})"
        )


def _summed(ring, level, flavor, trunc, terms):
    """The series whose coefficient at w sums q·c over the ``(w, c, q)``
    terms, q rational: one ``ring.lincomb`` per word."""
    pairs = defaultdict(list)
    for w, c, q in terms:
        pairs[w].append((c, q))
    lincomb = ring.lincomb
    return NCSeries(
        ring, level, flavor, trunc, {w: lincomb(p) for w, p in pairs.items()}
    )
