"""Morphisms induced by the multiplication-by-n covering and by
specialization at a root of unity.

Conventions (fixed throughout the package):

- Every letter image below has rational coefficients, so the morphisms take
  no coefficient ring: they are built over ``QQ`` and apply to series over
  any ring.
- Unit roots at level n are indexed anticlockwise, s <-> exp(2*pi*i*s/n).
- ``pi_morphism(r, n)`` is the push-forward along z -> z^n from level r*n
  to level r.  Standard flavor: X -> n*X and the puncture letter with index
  j = i + k*r (0 <= i < r) maps to the conjugate exp(kX)·Y_i·exp(-kX) — the
  correction accounts for transporting each upstairs puncture to its
  downstairs representative.  Tilde (homogeneized) flavor: X -> n*X and
  Y_j -> Y_(j mod r) with no correction.
- ``j_zeta_morphism(n, s)`` specializes at the n-th unit root with applied
  index s (i.e. multiplication of the coordinate by exp(-2*pi*i*s/n), whose
  surviving upstairs puncture is the one indexed s).  X -> X; the surviving
  puncture letter maps to Y for s = 0 and to exp(X)·Y·exp(-X) for s != 0
  (base-path transport around the translated puncture); all other puncture
  letters map to 0.  Tilde flavor: the surviving letter maps straight to Y.
- ``galois_twist_delta(ring, s, n)`` is the level-1 translation-correction
  Lie element (s/n)(chi - 1)·X attached to the arc reaching the s-indexed
  unit root; it vanishes in tilde flavor.  Its coefficient is not rational,
  so it takes the coefficient ring, which must have the cyclotomic-character
  symbol ``chi`` registered.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .ncseries import AlgebraMorphism, NCSeries, SeriesError
from .scalars import QQ
from .words import FLAVOR_STANDARD, FLAVOR_TILDE, Word


def conjugated_puncture_letter(k, trunc, level=1, flavor=FLAVOR_STANDARD, y_index=0):
    """exp(kX)·Y_s·exp(-kX) expanded in the word basis, k an integer.

    Equals sum over a+b <= trunc-1 of k^a (-k)^b / (a! b!) X^a . Y_s . X^b,
    over ``QQ``.
    """
    coeffs = {}
    for a in range(trunc):
        for b in range(trunc - a):
            c = Fraction(k**a * (-k) ** b, factorial(a) * factorial(b))
            if not c:
                continue
            coeffs[(0,) * a + (1 + y_index,) + (0,) * b] = c
    return NCSeries(QQ, level, flavor, trunc, coeffs)


def pi_morphism(r, n, trunc, flavor=FLAVOR_STANDARD):
    """Push-forward along z -> z^n, from level r*n down to level r."""
    if r < 1 or n < 1:
        raise SeriesError("levels must be positive")
    rn = r * n
    images = {}
    for letter in range(rn + 1):
        k, i = divmod(letter - 1, r)  # Y_j with j = i + k*r
        if letter == 0:
            img = NCSeries.monomial(QQ, Word(r, flavor, (0,)), trunc, n)
        elif flavor == FLAVOR_TILDE:
            img = NCSeries.monomial(QQ, Word(r, flavor, (1 + i,)), trunc)
        else:
            img = conjugated_puncture_letter(k, trunc, r, flavor, i)
        images[letter] = img
    return AlgebraMorphism(rn, flavor, r, flavor, images, trunc)


def j_zeta_morphism(n, s, trunc, flavor=FLAVOR_STANDARD):
    """Specialization at the n-th unit root with applied index s, to level 1."""
    if not 0 <= s < n:
        raise SeriesError(f"applied index {s} out of range for level {n}")
    images = {}
    for letter in range(n + 1):
        if letter == 0:
            img = NCSeries.monomial(QQ, Word(1, flavor, (0,)), trunc)
        elif letter != 1 + s:
            img = NCSeries.zero(QQ, 1, flavor, trunc)
        elif flavor == FLAVOR_TILDE or s == 0:
            img = NCSeries.monomial(QQ, Word(1, flavor, (1,)), trunc)
        else:
            img = conjugated_puncture_letter(1, trunc, 1, flavor, 0)
        images[letter] = img
    return AlgebraMorphism(n, flavor, 1, flavor, images, trunc)


def galois_twist_delta(ring, s, n, trunc, flavor=FLAVOR_STANDARD):
    """Translation-correction Lie element (s/n)(chi - 1)·X at level 1.

    Zero in tilde flavor.  The ring must have the symbol ``chi`` registered.
    """
    if flavor == FLAVOR_TILDE:
        return NCSeries.zero(ring, 1, flavor, trunc)
    chi = ring.sym("chi")
    coeff = (chi - 1) * Fraction(s, n)
    return NCSeries.monomial(ring, Word(1, flavor, (0,)), trunc, coeff)
