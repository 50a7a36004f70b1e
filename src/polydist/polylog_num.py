"""Numerical evaluation of multiple polylogarithm iterated integrals.

Conventions, fixed across the package:

- A standard-flavor word at level n labels an iterated integral from 0 to z
  along the straight ray, letters read left to right in integration order
  (first letter innermost, i.e. nearest 0).  The letter X contributes the
  form dt/t; the letter Y_i contributes dt/(t - zeta^i) with
  zeta = exp(2*pi*i/n).
- A word is convergent iff its first letter is a Y; leading-X words diverge
  at the base point and are rejected.
- Depth-1 calibration: the word Y_i.X^(k-1) evaluates to
  -Li_k(z·zeta^(-i)); in particular Y_0.X^(k-1) at level 1 is -Li_k(z).

Two independent evaluators are provided: ``mpl_series`` (Taylor recursion
with a tail bound whose premise is checked at run time, |z| < 1) and
``iterint_quadrature`` (panel Gauss-Legendre collocation from a cut-off
epsilon, Richardson-extrapolated to epsilon -> 0).  On fixed Gauss-Legendre
nodes, cumulative integration of the interpolant is one fixed matrix, so
the quadrature integrates all panels of a cut-off level with one matrix
product per letter.  ``li_classical`` sums the classical series with proven
truncation bounds and is the oracle for calibration; on the unit circle it
replaces the tail by exact Abel corrections (summation by parts), whose
remainder bound is checked at run time.

numpy is imported inside the functions that use it, so the exact engines
run without it and a run pays its import only at the first numeric task.
The Legendre module stays reachable as the module attribute ``npleg``,
bound on first access, because the benchmark tracer counts the Legendre
kernels through that attribute.
"""

from __future__ import annotations

import cmath
import functools
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

from .report import ParameterError, VerificationReport, timed
from .words import FLAVOR_STANDARD, Word, enumerate_lifts, wt_x


def __getattr__(name):
    # called only while ``npleg`` is unbound: import it and bind it for good
    if name == "npleg":
        global npleg
        from numpy.polynomial import legendre as npleg

        return npleg
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class DivergentWordError(ValueError):
    """Raised for words whose iterated integral diverges at the base point."""


class ConvergenceError(ValueError):
    """Raised when a requested tolerance cannot be certified."""


class PathError(ValueError):
    """Raised when the integration path comes too close to a puncture."""


@dataclass
class MPLQuery:
    word: Word
    z: complex
    tol: float = 1e-12
    max_terms: int = 4_000_000

    def __post_init__(self):
        self.z = complex(self.z)


def _root_of_unity(n):
    """zeta = exp(2*pi*i/n), the generator of the level-n punctures."""
    return cmath.exp(2j * cmath.pi / n)


def _validate_word(word):
    if word.flavor != FLAVOR_STANDARD:
        raise DivergentWordError(
            "numeric evaluation is defined for standard-flavor words"
        )
    if not word.letters:
        raise DivergentWordError("the empty word has no iterated integral")
    if word.letters[0] == 0:
        raise DivergentWordError(
            f"word {word} starts with X: the integral diverges at the base point"
        )


def mpl_series(query):
    """Taylor-coefficient recursion for the iterated integral, |z| < 1.

    Processing the word left to right keeps the coefficient array of the
    partial integral as a function of the upper endpoint: an X letter
    divides coefficient m by m; a Y_i letter maps the array through a
    prefix-sum twisted by zeta^i.  All coefficients stay bounded by 1 in
    modulus, giving the tail bound |z|^(M+1)/(1-|z|).  That premise is
    checked after every letter; ConvergenceError is raised if it fails.
    """
    import numpy as np

    _validate_word(query.word)
    z = complex(query.z)
    az = abs(z)
    if az >= 1:
        raise ConvergenceError(f"series evaluator needs |z| < 1, got {az}")
    if az == 0:
        return 0j
    need = query.tol * (1 - az)
    terms = int(math.ceil(math.log(need) / math.log(az))) + 1
    terms = max(terms, len(query.word.letters) + 1)
    if terms > query.max_terms:
        raise ConvergenceError(
            f"would need {terms} terms (> max_terms={query.max_terms})"
        )
    n = query.word.level
    zeta = _root_of_unity(n)

    letters = query.word.letters
    # innermost letter: Y_i gives alpha_m = -xi^(-m)/m
    xi = zeta ** (letters[0] - 1)
    inv_xi = 1.0 / xi
    alpha = np.zeros(terms + 1, dtype=complex)
    powers = np.power(inv_xi, np.arange(terms + 1))
    ms = np.arange(terms + 1, dtype=float)
    ms[0] = 1.0
    alpha[1:] = -powers[1:] / ms[1:]
    _check_tail_premise(alpha, query.word)
    for letter in letters[1:]:
        if letter == 0:
            alpha[1:] = alpha[1:] / ms[1:]
        else:
            xi = zeta ** (letter - 1)
            xi_pow = np.power(xi, np.arange(terms + 1))
            prefix = np.cumsum(alpha * xi_pow)
            new = np.zeros_like(alpha)
            new[1:] = -prefix[:-1] / (ms[1:] * xi_pow[1:])
            alpha = new
        _check_tail_premise(alpha, query.word)
    zpow = np.power(z, np.arange(terms + 1))
    return complex(np.sum(alpha * zpow))


def _check_tail_premise(alpha, word):
    # The computed roots of unity have modulus 1 only up to a few ulps, and
    # alpha_1 of Y_i.X...X sits on the bound, so rounding is allowed for.
    bound = float(abs(alpha).max())
    if bound > 1 + 1e-12:
        raise ConvergenceError(
            f"Taylor coefficient of modulus {bound:.3g} > 1 for {word}: "
            "the series tail bound does not hold"
        )


def li_classical(k, z, tol=1e-12, max_terms=8_000_000):
    """Classical depth-k polylog sum_{m>=1} z^m/m^k with certified truncation.

    Domains: |z| < 1 any k >= 1; |z| = 1 (to within 1e-15) with z != 1 any
    k >= 2; z = 1 with k >= 3 (integral bound).  On the unit circle M terms
    are summed and the tail past M is replaced by p exact Abel corrections
    (``_abel_tail``); the remainder is at most
    k(k+1)...(k+p-2) / ((M+1)^(k+p-1)·|1-z|^p), checked at run time, with
    the p <= 12 that needs the fewest terms.  That bound holds inside the
    disk too, and there the Abel plan replaces the geometric bound whenever
    its terms plus ``_ABEL_WORK`` are fewer.  (k, z) = (1, 1) diverges;
    near-boundary cases exceeding ``max_terms`` raise ConvergenceError
    rather than return an uncertified value.
    """
    import numpy as np

    z = complex(z)
    az = abs(z)
    if az > 1 + 1e-15:
        raise ConvergenceError("classical series needs |z| <= 1")
    if z == 1 and k < 3:
        if k == 1:
            raise DivergentWordError("depth-1 value at z = 1 diverges")
        raise ConvergenceError(
            "depth-2 at z = 1 is out of certified reach of direct summation"
        )
    p = 0  # Abel corrections
    # e^(i theta) can round to a modulus just below 1, where the geometric
    # bound needs ~1e16 terms and the Abel plan takes over
    if az < 1:
        if az == 0:
            return 0j
        terms = int(math.ceil(math.log(tol * (1 - az)) / math.log(az))) + 1
        if terms > _ABEL_WORK:
            abel, q = _abel_plan(k, abs(1 - z), tol)
            if abel + _ABEL_WORK < terms:
                terms, p = abel, q
    elif z == 1:
        terms = int(math.ceil((1.0 / (tol * (k - 1))) ** (1.0 / (k - 1)))) + 1
    else:
        if k < 2:
            raise ConvergenceError("need k >= 2 on the unit circle")
        terms, p = _abel_plan(k, abs(1 - z), tol)
    if terms > max_terms:
        raise ConvergenceError(
            f"would need {terms} terms (> max_terms={max_terms})"
        )
    chunk = 1 << 16  # a few full-size complex temporaries per chunk
    partials = [_abel_tail(k, z, terms, p, tol)] if p else []
    for start in range(1, terms + 1, chunk):
        stop = min(start + chunk, terms + 1)
        m = np.arange(start, stop, dtype=float)
        vals = np.power(z, np.arange(start, stop)) / m**k
        partials.append(complex(np.sum(vals)))
    return complex(
        math.fsum(s.real for s in partials), math.fsum(s.imag for s in partials)
    )


# The exact corrections of a 12-correction Abel plan take about as long as
# summing 1,100 terms (numpy, 2-vCPU x86 host), so inside the disk the plan
# is charged this many terms on top of its own.
_ABEL_WORK = 1200


def _abel_plan(k, gap, tol):
    """(M, p) for the unit circle at |1-z| = gap: p <= 12 Abel corrections
    and the fewest summed terms M that bring the remainder bound below tol,
    the smaller p on a tie.  M is one above the root of the bound, so that
    rounding in the root cannot undercount; ``_abel_tail`` checks the bound
    exactly."""
    plans = []
    for p in range(1, 13):
        rising = math.prod(range(k, k + p - 1))
        root = (math.log(rising / tol) - p * math.log(gap)) / (k + p - 1)
        # past exp(700) no plan is within max_terms; exp overflows at 709.8
        plans.append((max(1, math.ceil(math.exp(min(root, 700.0)))), p))
    return min(plans)


def _abel_tail(k, z, M, p, tol):
    """sum_{m>M} z^m/m^k up to the remainder R, by summation by parts p
    times: with b_m = m^-k and the backward difference nabla,

        sum_{j<p} z^(M+1+j) (nabla^j b)_(M+1+j) / (1-z)^(j+1),

    each difference exact in rationals and rounded once.  b is completely
    monotone, so |R| <= k(k+1)...(k+p-2) / ((M+1)^(k+p-1)·|1-z|^p); that
    bound is checked in exact arithmetic and ConvergenceError raised if it
    exceeds tol."""
    gap = abs(1 - z)
    rising = math.prod(range(k, k + p - 1))
    if rising > Fraction(tol) * (M + 1) ** (k + p - 1) * Fraction(gap) ** p:
        raise ConvergenceError(
            f"Abel remainder bound above {tol} at {M} terms, {p} corrections"
        )
    tail = 0j
    for j in range(p):
        n = M + 1 + j
        nabla = sum(
            Fraction((-1) ** i * math.comb(j, i), (n - i) ** k) for i in range(j + 1)
        )
        tail += z**n * float(nabla) / (1 - z) ** (j + 1)
    return tail


# ---------------------------------------------------------------------------
# quadrature evaluator
# ---------------------------------------------------------------------------


# quadrature constants: the largest cut-off epsilon, the fewest cut-offs in
# its halving sequence, the Gauss-Legendre nodes per panel, the closest the
# ray may pass to a puncture, and the floor of the extrapolation tolerance
QUAD_EPS = 1e-9
QUAD_LEVELS = 6
QUAD_NODES = 14
QUAD_MIN_PUNCTURE_DISTANCE = 0.1
QUAD_TOL = 1e-8


def _panel_bounds(eps):
    bounds = [eps]
    while bounds[-1] < 1.0:
        step = min(bounds[-1], 0.125)
        bounds.append(min(bounds[-1] + step, 1.0))
    return bounds


@functools.cache
def _spectral_rule(nodes):
    """Gauss-Legendre nodes x and weights w on [-1, 1], and the spectral
    integration matrix S: (S @ g)[i] is the integral from -1 to x[i] of the
    degree nodes-1 interpolant of the node values g.  S maps node values to
    Legendre coefficients, integrates those (legint) and evaluates the
    antiderivative back at the nodes (Greengard 1991).  The Gauss rule is
    exact on P_j·P_k here, so coefficient j of the interpolant is
    (j + 1/2)·sum_i w_i P_j(x_i) g_i and no Vandermonde matrix is inverted."""
    import numpy as np

    npleg = sys.modules[__name__].npleg  # the module attribute, as traced
    x, w = npleg.leggauss(nodes)
    vander = npleg.legvander(x, nodes - 1)
    to_coeffs = (np.arange(nodes) + 0.5)[:, None] * (vander * w[:, None]).T
    S = npleg.legvander(x, nodes) @ npleg.legint(to_coeffs, lbnd=-1.0)
    for array in (x, S, w):
        array.setflags(write=False)  # shared by every caller of the cache
    return x, S, w


def _integral_from(eps, word, z, zeta, nodes):
    """Iterated integral along t -> t·z for t in [eps, 1], collocation on
    Gauss-Legendre panels with spectral cumulative integration.

    The panels of the level form one (panels, nodes) array t.  Each letter
    multiplies the running values by its form, integrates every panel at
    once with the spectral matrix, and adds each panel's start: the
    exclusive cumulative sum of the Gauss panel totals."""
    import numpy as np

    x, S, w = _spectral_rule(nodes)
    bounds = np.array(_panel_bounds(eps))
    scale = (bounds[1:] - bounds[:-1]) / 2.0
    t = bounds[:-1, None] + scale[:, None] * (x + 1.0)

    vals = np.ones(t.shape, dtype=complex)
    for letter in word.letters:
        if letter == 0:
            f = 1.0 / t
        else:
            f = z / (t * z - zeta ** (letter - 1))
        g = vals * f
        totals = scale * (g @ w)
        ends = np.cumsum(totals)
        vals = (ends - totals)[:, None] + scale[:, None] * (g @ S.T)
    return complex(ends[-1])


def iterint_quadrature(query):
    """Quadrature evaluation of the iterated integral with epsilon cut-off
    and generalized Richardson extrapolation of epsilon -> 0.

    The cut-off value I(eps) differs from the limit by a combination of
    eps·ln(eps)^j with j bounded by the number of X letters in the word
    (each dt/t integration of a constant cut-off defect raises the log
    power by one), plus O(eps^2) terms far below tolerance for the default
    eps.  Fitting exactly that basis over a halving eps-sequence recovers
    the limit to near machine precision; the error estimate is the shift
    of the recovered limit when the coarsest sample is dropped.

    Independent of the series evaluator; works for any |z| < 1 whose ray
    stays at least ``QUAD_MIN_PUNCTURE_DISTANCE`` away from every puncture.
    """
    import numpy as np

    _validate_word(query.word)
    z = complex(query.z)
    if abs(z) >= 1:
        raise PathError("quadrature path needs |z| < 1")
    if z == 0:
        return 0j  # the path [0, 0] is empty
    n = query.word.level
    zeta = _root_of_unity(n)
    # distance of the segment [0, z] to each puncture zeta^i
    for i in range(n):
        pole = zeta**i
        t_star = max(0.0, min(1.0, (pole.conjugate() * z).real / abs(z) ** 2))
        d = abs(t_star * z - pole)
        if d < QUAD_MIN_PUNCTURE_DISTANCE:
            raise PathError(
                f"integration ray passes within {d:.3g} of puncture index {i}"
            )

    x_count = wt_x(query.word)
    levels = max(QUAD_LEVELS, x_count + 3)
    eps = np.array([QUAD_EPS * 0.5**j for j in range(levels)])
    values = np.array(
        [_integral_from(e, query.word, z, zeta, QUAD_NODES) for e in eps]
    )
    columns = [np.ones(levels)]
    columns += [eps * np.log(eps) ** j for j in range(x_count + 1)]
    design = np.stack(columns, axis=1)
    fit, _, _, _ = np.linalg.lstsq(design, values, rcond=None)
    refit, _, _, _ = np.linalg.lstsq(design[1:], values[1:], rcond=None)
    limit, estimate = fit[0], abs(fit[0] - refit[0])
    if estimate > max(query.tol, QUAD_TOL):
        raise ConvergenceError(
            f"epsilon extrapolation did not converge (estimate {estimate})"
        )
    return complex(limit)


# ---------------------------------------------------------------------------
# numeric engines
# ---------------------------------------------------------------------------


def verify_numeric_calibration(k_max=5, zs=None, tol=1e-10):
    """Depth-1 words against the classical polylog series.

    Raises ParameterError, before any work, unless k_max >= 1."""
    if k_max < 1:
        raise ParameterError(f"k_max = {k_max} must be >= 1")
    if zs is None:
        zs = [
            0.5,
            -0.5,
            0.3,
            -0.7,
            0.2 + 0.4j,
            -0.3 + 0.3j,
            0.6 - 0.2j,
            -0.1 - 0.55j,
            0.45 + 0.1j,
            0.05 - 0.8j,
        ]
    report = VerificationReport(
        "numeric-calibration", {"k_max": k_max, "points": len(zs), "tol": tol}
    )
    with timed(report):
        worst = 0.0
        ok = True
        for k in range(1, k_max + 1):
            w = Word(1, FLAVOR_STANDARD, (1,) + (0,) * (k - 1))
            for z in zs:
                got = mpl_series(MPLQuery(w, z, tol=tol / 10))
                want = -li_classical(k, z, tol=tol / 10)
                err = abs(got - want)
                worst = max(worst, err)
                if err > tol:
                    ok = False
        report.add(
            "depth1-matches-classical",
            ok,
            f"worst deviation {worst:.3e} over {k_max * len(zs)} cases",
        )
        report.add_residual(kind="worst-deviation", value=worst)
    return report


def verify_numeric_distribution(r, n, z, words=None, tol=1e-10, max_degree=3):
    """Numerical distribution relation at a point: for level-r words w,
    value(w at z^n) = n^(wt_x(w)) * sum of values over lifts(w, n) at z.

    Raises ParameterError, before any work, for r or n below 1, for z
    outside 0 < |z| < 1 (z = 0 would pass vacuously and |z| >= 1 is outside
    the series evaluator) and for a given word that is not at level r or
    that the evaluators refuse (``_validate_word``)."""
    if r < 1 or n < 1:
        raise ParameterError(f"levels must be >= 1, got r = {r}, n = {n}")
    z = complex(z)
    if not 0 < abs(z) < 1:
        raise ParameterError(f"z = {z} must satisfy 0 < |z| < 1")
    for w in words or ():
        if w.level != r:
            raise ParameterError(f"word {w} is not at level r = {r}")
        try:
            _validate_word(w)
        except DivergentWordError as exc:
            raise ParameterError(str(exc)) from None
    report = VerificationReport(
        "numeric-distribution",
        {"r": r, "n": n, "z": str(z), "tol": tol},
    )
    with timed(report):
        if words is None:
            words = [
                w
                for w in _convergent_words(r, max_degree)
                if len(w.letters) - wt_x(w) <= 2
            ]
        worst = 0.0
        ok = True
        for w in words:
            lifts = enumerate_lifts(w, n)
            inner_tol = tol / (4.0 * (1 + n ** wt_x(w) * len(lifts)))
            lhs = mpl_series(MPLQuery(w, z**n, tol=inner_tol))
            rhs = 0j
            for u in lifts:
                rhs += mpl_series(MPLQuery(u, z, tol=inner_tol))
            rhs *= n ** wt_x(w)
            err = abs(lhs - rhs)
            worst = max(worst, err)
            if err > tol:
                ok = False
                report.add_residual(kind="failed-word", word=str(w), deviation=err)
        report.add(
            "pointwise-distribution",
            ok,
            f"worst deviation {worst:.3e} over {len(words)} words",
        )
        report.add_residual(kind="worst-deviation", value=worst, words=len(words))
    return report


def _convergent_words(level, max_degree):
    from .words import words_up_to_degree

    return [
        w
        for w in words_up_to_degree(level, FLAVOR_STANDARD, max_degree, 1)
        if w.letters[0] != 0
    ]


def verify_numeric_cross_oracle(
    trials=20, seed=7, tol=1e-8, max_depth=3, max_degree=5, z_cap=0.6
):
    """Series evaluator against the quadrature evaluator on random queries.

    Raises ParameterError, before any work, unless trials >= 1."""
    if trials < 1:
        raise ParameterError(f"trials = {trials} must be >= 1")
    report = VerificationReport(
        "numeric-cross-oracle",
        {"trials": trials, "seed": seed, "tol": tol},
    )
    with timed(report):
        rng = random.Random(seed)
        worst = 0.0
        ok = True
        done = 0
        attempts = 0
        while done < trials and attempts < 50 * trials:
            attempts += 1
            level = rng.choice([1, 2, 3])
            degree = rng.randint(1, max_degree)
            letters = [1 + rng.randrange(level)]
            depth = 1
            for _ in range(degree - 1):
                if depth < max_depth and rng.random() < 0.4:
                    letters.append(1 + rng.randrange(level))
                    depth += 1
                else:
                    letters.append(0)
            w = Word(level, FLAVOR_STANDARD, tuple(letters))
            radius = 0.15 + 0.85 * z_cap * rng.random()
            angle = 2 * math.pi * rng.random()
            z = radius * cmath.exp(1j * angle)
            query = MPLQuery(w, z, tol=tol / 10)
            try:
                quad = iterint_quadrature(query)
            except PathError:
                continue  # ray too close to a puncture; redraw
            ser = mpl_series(query)
            err = abs(ser - quad)
            worst = max(worst, err)
            if err > tol:
                ok = False
                report.add_residual(
                    kind="failed-query", word=str(w), z=str(z), deviation=err
                )
            done += 1
        report.add(
            "series-vs-quadrature",
            ok and done == trials,
            f"worst deviation {worst:.3e} over {done} random queries",
        )
        report.add_residual(kind="worst-deviation", value=worst)
    return report


def verify_numeric_classical(tol=1e-12):
    """Frozen classical constants evaluated by the series oracle."""
    report = VerificationReport("numeric-classical", {"tol": tol})
    with timed(report):
        got = li_classical(2, -1.0, tol=tol / 10)
        want = -(math.pi**2) / 12.0
        report.add(
            "alternating-depth2",
            abs(got - want) <= tol,
            f"deviation {abs(got - want):.3e}",
        )
        got = li_classical(2, 0.5, tol=tol / 10)
        want = math.pi**2 / 12.0 - math.log(2.0) ** 2 / 2.0
        report.add(
            "half-point-depth2",
            abs(got - want) <= tol,
            f"deviation {abs(got - want):.3e}",
        )
        got = li_classical(1, 0.5, tol=tol / 10)
        report.add(
            "half-point-depth1",
            abs(got - math.log(2.0)) <= tol,
            f"deviation {abs(got - math.log(2.0)):.3e}",
        )
        got = li_classical(4, 1.0, tol=1e-10)
        want = math.pi**4 / 90.0
        report.add(
            "unit-depth4",
            abs(got - want) <= 1e-10,
            f"deviation {abs(got - want):.3e}",
        )
    return report
