"""Degree-truncated non-commutative power series over a coefficient ring.

A series is a sparse dict Word -> coefficient, truncated at a total degree
bound ``trunc`` (terms of degree > trunc are dropped by every operation, so
arithmetic is exact in the quotient by words of degree > trunc).

``AlgebraMorphism`` is a ring map determined by letter images with zero
constant term (so it preserves the augmentation and interacts correctly with
exp/log); application substitutes images letter by letter with early
truncation.
"""

from __future__ import annotations

from .words import alphabet, empty_word

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
                if w.level != level or w.flavor != flavor:
                    raise SeriesError(f"word {w} does not match level/flavor")
                if w.degree() <= trunc and not ring.is_zero(c):
                    self.coeffs[w] = c

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, ring, level, flavor, trunc):
        return cls(ring, level, flavor, trunc)

    @classmethod
    def one(cls, ring, level, flavor, trunc):
        return cls(ring, level, flavor, trunc, {empty_word(level, flavor): ring.one})

    @classmethod
    def monomial(cls, ring, word, trunc, coeff=None):
        c = ring.one if coeff is None else ring.coerce(coeff)
        return cls(ring, word.level, word.flavor, trunc, {word: c})

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
        """Coefficient of a word; degree beyond trunc is an error (unknown)."""
        if word.level != self.level or word.flavor != self.flavor:
            raise SeriesError(f"word {word} does not match level/flavor")
        if word.degree() > self.trunc:
            raise SeriesError(
                f"word degree {word.degree()} exceeds truncation {self.trunc}"
            )
        return self.coeffs.get(word, self.ring.zero)

    def constant_term(self):
        return self.coeffs.get(empty_word(self.level, self.flavor), self.ring.zero)

    def support(self):
        return sorted(self.coeffs)

    def is_zero(self):
        return not self.coeffs

    def min_degree(self):
        """Smallest degree with a nonzero term; trunc+1 for the zero series."""
        if not self.coeffs:
            return self.trunc + 1
        return min(w.degree() for w in self.coeffs)

    def homogeneous_component(self, d):
        return self._like({w: c for w, c in self.coeffs.items() if w.degree() == d})

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = self._check(other)
        trunc = min(self.trunc, other.trunc)
        coeffs = {w: c for w, c in self.coeffs.items() if w.degree() <= trunc}
        for w, c in other.coeffs.items():
            if w.degree() > trunc:
                continue
            s = coeffs.get(w)
            s = c if s is None else s + c
            if self.ring.is_zero(s):
                coeffs.pop(w, None)
            else:
                coeffs[w] = s
        return NCSeries(self.ring, self.level, self.flavor, trunc, coeffs)

    def __neg__(self):
        return self._like({w: -c for w, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, NCSeries):
            other = self._check(other)
            trunc = min(self.trunc, other.trunc)
            coeffs = {}
            for w1, c1 in self.coeffs.items():
                d1 = w1.degree()
                if d1 > trunc:
                    continue
                for w2, c2 in other.coeffs.items():
                    if d1 + w2.degree() > trunc:
                        continue
                    w = w1 * w2
                    c = c1 * c2
                    s = coeffs.get(w)
                    s = c if s is None else s + c
                    if self.ring.is_zero(s):
                        coeffs.pop(w, None)
                    else:
                        coeffs[w] = s
            return NCSeries(self.ring, self.level, self.flavor, trunc, coeffs)
        return self.scale(other)

    def __rmul__(self, other):
        # scalars commute with every coefficient ring we use
        return self.scale(other)

    def scale(self, c):
        c = self.ring.coerce(c)
        if self.ring.is_zero(c):
            return NCSeries.zero(self.ring, self.level, self.flavor, self.trunc)
        return self._like({w: c * v for w, v in self.coeffs.items()})

    def truncate(self, trunc):
        if trunc > self.trunc:
            raise SeriesError(
                f"cannot extend truncation {self.trunc} to {trunc}"
            )
        return NCSeries(
            self.ring,
            self.level,
            self.flavor,
            trunc,
            {w: c for w, c in self.coeffs.items() if w.degree() <= trunc},
        )

    def map_coefficients(self, f, ring=None):
        """Apply f to every coefficient (e.g. a substitution)."""
        ring = ring or self.ring
        out = {}
        for w, c in self.coeffs.items():
            v = f(c)
            if not ring.is_zero(v):
                out[w] = v
        return NCSeries(ring, self.level, self.flavor, self.trunc, out)

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
            body = ".".join(l.render() for l in w.letters) or "1"
            parts.append(f"({c})*{body}")
        return " + ".join(parts)

    __repr__ = __str__


class AlgebraMorphism:
    """Algebra map between truncated series algebras, given on letters.

    Every source letter must have an image (possibly zero) with zero
    constant term, living in the target algebra.  Application is
    multiplicative substitution with truncation at min(source trunc, map
    trunc); composition composes letter images.
    """

    def __init__(
        self,
        ring,
        source_level,
        source_flavor,
        target_level,
        target_flavor,
        images,
        trunc,
    ):
        self.ring = ring
        self.source_level = source_level
        self.source_flavor = source_flavor
        self.target_level = target_level
        self.target_flavor = target_flavor
        self.trunc = trunc
        self.images = {}
        for letter in alphabet(source_level, source_flavor):
            if letter not in images:
                raise SeriesError(f"no image given for letter {letter}")
        for letter, img in images.items():
            if letter.level != source_level or letter.flavor != source_flavor:
                raise SeriesError(f"letter {letter} is not in the source alphabet")
            if img.level != target_level or img.flavor != target_flavor:
                raise SeriesError(f"image of {letter} is not in the target algebra")
            if img.ring != ring:
                raise SeriesError("image coefficients live in the wrong ring")
            if not ring.is_zero(img.constant_term()):
                raise SeriesError(
                    f"image of {letter} has nonzero constant term "
                    "(augmentation not preserved)"
                )
            self.images[letter] = img.truncate(min(trunc, img.trunc))

    def letter_image(self, letter):
        try:
            return self.images[letter]
        except KeyError:
            raise SeriesError(f"letter {letter} is not in the source alphabet")

    def apply(self, series):
        if series.level != self.source_level or series.flavor != self.source_flavor:
            raise SeriesError("series does not live in the source algebra")
        if series.ring != self.ring:
            raise SeriesError("series coefficients live in the wrong ring")
        trunc = min(self.trunc, series.trunc)
        one = NCSeries.one(self.ring, self.target_level, self.target_flavor, trunc)
        acc = {}
        for w, c in series.coeffs.items():
            img = one
            for letter in w.letters:
                img = img * self.images[letter]
                if img.is_zero():
                    break
            for w2, c2 in img.coeffs.items():
                s = acc.get(w2)
                s = c * c2 if s is None else s + c * c2
                if self.ring.is_zero(s):
                    acc.pop(w2, None)
                else:
                    acc[w2] = s
        return NCSeries(
            self.ring, self.target_level, self.target_flavor, trunc, acc
        )

    __call__ = apply

    def compose(self, inner):
        """self ∘ inner (apply ``inner`` first)."""
        if (
            inner.target_level != self.source_level
            or inner.target_flavor != self.source_flavor
        ):
            raise SeriesError("morphism endpoints do not compose")
        if inner.ring != self.ring:
            raise SeriesError("morphism rings differ")
        images = {l: self.apply(img) for l, img in inner.images.items()}
        return AlgebraMorphism(
            self.ring,
            inner.source_level,
            inner.source_flavor,
            self.target_level,
            self.target_flavor,
            images,
            min(self.trunc, inner.trunc),
        )

    def __repr__(self):
        return (
            f"AlgebraMorphism(n={self.source_level},{self.source_flavor} -> "
            f"n={self.target_level},{self.target_flavor}, D<={self.trunc})"
        )
