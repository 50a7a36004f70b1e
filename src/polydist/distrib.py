"""Symbolic verification engines for the distribution relations.

Every engine re-derives the statement under test by at least two
independent routes and returns a ``VerificationReport`` of named checks.
All but the formal-distribution engine build their own polynomial
coefficient ring with named symbols:

- ``chi``  — the cyclotomic character (acts on coordinate powers);
- ``rho``  — the Kummer coordinate of the chosen point z;
- ``c{s}_{k}`` — the depth-k polylogarithmic character attached to the
  s-indexed unit-root branch (k = 1 is the branch's Kummer coordinate of
  1 - branch point);
- ``d{s}_{k}``/``d0`` — free coordinates of a homogeneized Lie element;
- ``alpha``, ``ell{k}`` — the shift and the free Lie coefficients in the
  BCH closed-form engine.

The formal-distribution engine needs no symbols: its generic series is
linear in one independent coefficient per word, so it checks each word's
image over ``QQ``.

Degrees are capped by the POLYDIST_MAX_DEGREE environment variable
(default 12).
"""

from __future__ import annotations

import os
from fractions import Fraction
from math import comb, factorial

from .geometry import galois_twist_delta, j_zeta_morphism, pi_morphism
from .lie import (
    GenSeries,
    MOD_IY,
    MOD_JY,
    bch,
    bernoulli_number,
    beta_series,
    exp_mod,
    log_mod,
    polylog_element,
    polylog_part,
    reduce_mod_ideal,
)
from .ncseries import NCSeries
from .report import ParameterError, VerificationReport, timed
from .scalars import QQ, PolyRing
from .words import (
    FLAVOR_STANDARD,
    FLAVOR_TILDE,
    FLAVORS,
    Word,
    reduce_letters,
    words_depth_first,
    words_up_to_degree,
    wt_x,
)

DEFAULT_MAX_DEGREE = 12


class DegreeCapError(ParameterError):
    """Raised when a requested degree exceeds POLYDIST_MAX_DEGREE."""


def max_degree_cap():
    text = os.environ.get("POLYDIST_MAX_DEGREE", str(DEFAULT_MAX_DEGREE))
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ParameterError(
            f"POLYDIST_MAX_DEGREE={text!r} is not an integer >= 1"
        )
    return cap


def _check_degree(degree):
    cap = max_degree_cap()
    if degree > cap:
        raise DegreeCapError(
            f"degree {degree} exceeds POLYDIST_MAX_DEGREE={cap}"
        )
    if degree < 1:
        raise ParameterError("degree must be >= 1")


# ---------------------------------------------------------------------------
# conversions between polylog values and polylog characters
# ---------------------------------------------------------------------------


def chi_from_li(ring, rho, li_values, m):
    """Depth-m character from polylog values at the same point.

    chi_m = (-1)^(m+1) (m-1)! sum_{k=1}^{m} rho^(m-k) li_k / (m+1-k)!
    where li_values[k-1] is the depth-k polylog value, in ``ring``.
    """
    if m < 1 or m > len(li_values):
        raise ValueError(f"depth {m} out of range")
    c = (-1) ** (m + 1) * factorial(m - 1)
    return ring.lincomb(
        (li_values[k - 1] * rho ** (m - k), Fraction(c, factorial(m + 1 - k)))
        for k in range(1, m + 1)
    )


def li_from_chi(ring, rho, chi_values, m):
    """Depth-m polylog value from characters at the same point.

    li_m = (-1)^(m+1) sum_{k=0}^{m-1} (B_k/k!) (-rho)^k chi_(m-k) / (m-k-1)!
    where chi_values[k-1] is the depth-k character, in ``ring``.
    """
    if m < 1 or m > len(chi_values):
        raise ValueError(f"depth {m} out of range")
    return ring.lincomb(
        (
            chi_values[m - k - 1] * rho**k,
            (-1) ** (m + 1 + k)
            * bernoulli_number(k)
            / (factorial(k) * factorial(m - k - 1)),
        )
        for k in range(m)
        if bernoulli_number(k)  # B_k = 0 at odd k > 1: no product to form
    )


def group_like_from_chi(ring, rho, chi_values, trunc, flavor=FLAVOR_STANDARD):
    """The group-like series exp(-(rho·X + sum_m li_m ad(X)^(m-1)(Y))),
    modulo the XY/YY ideal JY.

    li is derived from the characters.  The survivors of JY are exactly the
    pure-X and Y.X^i words whose coefficients the group-like engine checks.
    """
    li = [li_from_chi(ring, rho, chi_values, m) for m in range(1, len(chi_values) + 1)]
    lam = polylog_element(ring, 1, flavor, trunc, rho, {0: li})
    return exp_mod(-lam, MOD_JY)


# ---------------------------------------------------------------------------
# engine: formal distribution relation for the generic group-like series
# ---------------------------------------------------------------------------


def verify_formal_distribution(r=1, n=2, degree=6, flavor=FLAVOR_TILDE):
    """Push a fully generic group-like series along the level-(r·n) -> r
    covering map and compare each coefficient with the lift-sum prediction.

    The push-forward is linear in the generic coefficients, one per source
    word u, and these never combine.  So the engine checks word by word over
    ``QQ``: the image of u must be n^wt_X(u) times its reduction to level r,
    and a target word w has a nonzero residual exactly when some source
    word's image has a wrong coefficient at w.  The longest such source word
    bounds the residual's support.

    Tilde flavor: the relation is exact (zero residual for every word).
    Standard flavor: the relation holds exactly on words with no X letter,
    and up to a residual supported on strictly shorter source words
    otherwise; the engine certifies that support bound and records a sample
    of the nonzero residuals.
    """
    _check_degree(degree)
    if r < 1 or n < 1:
        raise ParameterError(f"levels must be >= 1, got r = {r}, n = {n}")
    if flavor not in FLAVORS:
        raise ParameterError(f"flavor must be one of {FLAVORS}, got {flavor!r}")
    rn = r * n
    report = VerificationReport(
        "formal-distribution",
        {"r": r, "n": n, "degree": degree, "flavor": flavor},
    )
    with timed(report):
        push = pi_morphism(r, n, degree, flavor)
        # target word -> length of the longest source word whose image has a
        # wrong coefficient there
        wrong = {}
        for u, image in push.word_images(words_depth_first(rn, degree, 1)):
            coeffs = image.coeffs
            lifted, scale = reduce_letters(u, r), n ** u.count(0)
            for w in coeffs.keys() | {lifted}:
                if coeffs.get(w, 0) != (scale if w == lifted else 0):
                    wrong[w] = max(wrong.get(w, 0), len(u))

        target_words = words_up_to_degree(r, flavor, degree, min_degree=1)
        exact_failures = []
        support_failures = []
        nonzero_residuals = 0
        sample = None
        for w in target_words:
            if w.letters not in wrong:
                continue
            if flavor == FLAVOR_TILDE or wt_x(w) == 0:
                exact_failures.append(str(w))
                continue
            nonzero_residuals += 1
            if wrong[w.letters] >= len(w.letters):
                support_failures.append(str(w))
            if sample is None:
                sample = {
                    "word": str(w),
                    "max_symbol_word_length": wrong[w.letters],
                    "word_length": len(w.letters),
                }
        unit = NCSeries.one(QQ, rn, flavor, degree)
        report.add(
            "empty-word-normalized",
            push.apply(unit).constant_term() == QQ.one,
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


# ---------------------------------------------------------------------------
# engine: BCH closed form for polylog-shaped Lie elements
# ---------------------------------------------------------------------------


def verify_bch_closed_form(degree=6, candidate="both"):
    """Compare direct BCH computations against the closed forms, mod IY.

    For L = ell0·X + sum_k ell_k ad(X)^(k-1)(Y) and A = alpha·X:

    - right shift (A after L):  bch(L, A)
        * "shift-denominator" candidate prefactor:
          beta((alpha+ell0) t)/beta(alpha t) · ellplus(t)
        * "base-denominator" candidate prefactor:
          beta((alpha+ell0) t)/beta(ell0 t) · ellplus(t)
    - left shift (L after A):   bch(A, L), closed form
          beta((alpha+ell0) t)/beta(ell0 t) · ellplus(t) · exp(alpha t)

    Exactly one of the right-shift candidates can match; the engine reports
    per-degree agreement for each and certifies the unit law (alpha = 0
    collapses the matching closed form to L).
    """
    _check_degree(degree)
    if candidate not in ("shift-denominator", "base-denominator", "both"):
        raise ParameterError(f"unknown candidate {candidate!r}")
    report = VerificationReport(
        "bch-closed-form", {"degree": degree, "candidate": candidate}
    )
    with timed(report):
        names = ["alpha", "ell0"] + [f"ell{k}" for k in range(1, degree + 1)]
        ring = PolyRing(names)
        alpha, ell0 = ring.sym("alpha"), ring.sym("ell0")
        ellplus = GenSeries(
            ring, [ring.sym(f"ell{k}") for k in range(1, degree + 1)]
        )
        dt = degree - 1
        ellplus = ellplus.truncate(dt)

        def build(x_coeff, prefactor):
            # x_coeff·X + prefactor(ad X)(Y)
            return polylog_element(
                ring, 1, FLAVOR_STANDARD, degree, x_coeff, {0: prefactor.coeffs}
            )

        lie_elt = build(ell0, ellplus)
        x = Word(1, FLAVOR_STANDARD, (0,))
        shift = NCSeries.monomial(ring, x, degree, alpha)

        direct_right = bch(lie_elt, shift, which=MOD_IY)
        direct_left = bch(shift, lie_elt, which=MOD_IY)

        beta = beta_series(ring, dt)
        beta_sum = beta.compose_linear(alpha + ell0)
        inv_ell0 = beta.compose_linear(ell0).inverse()

        closed_left = build(
            alpha + ell0,
            beta_sum * inv_ell0 * ellplus * GenSeries.exp_linear(ring, alpha, dt),
        )
        candidates = {}
        if candidate in ("shift-denominator", "both"):
            candidates["shift-denominator"] = build(
                alpha + ell0, beta_sum * beta.compose_linear(alpha).inverse() * ellplus
            )
        if candidate in ("base-denominator", "both"):
            candidates["base-denominator"] = build(
                alpha + ell0, beta_sum * inv_ell0 * ellplus
            )

        def degree_matches(a, b):
            return [
                d
                for d in range(1, degree + 1)
                if a.homogeneous_component(d) == b.homogeneous_component(d)
            ]

        left_match = degree_matches(direct_left, closed_left)
        report.add(
            "left-shift-closed-form",
            direct_left == closed_left,
            f"matching degrees {left_match}",
        )

        winners = []
        for name, closed in sorted(candidates.items()):
            matched = degree_matches(direct_right, closed)
            full = closed == direct_right
            if full:
                winners.append(name)
            report.add_residual(
                kind="right-shift-candidate",
                candidate=name,
                matches_all=full,
                matching_degrees=matched,
            )
        if candidate == "both":
            report.add(
                "right-shift-unique-candidate",
                len(winners) == 1,
                f"matching candidates: {winners}",
            )
            report.add(
                "right-shift-base-denominator-wins",
                winners == ["base-denominator"],
                "the denominator built from the Lie element's own X "
                "coefficient matches; the shift-coefficient denominator "
                "does not",
            )
        else:
            report.add(
                f"right-shift-{candidate}-matches",
                winners == [candidate],
                f"matching candidates: {winners}",
            )

        if "base-denominator" in candidates:
            at_zero = candidates["base-denominator"].map_coefficients(
                lambda p: p.substitute({"alpha": 0})
            )
            report.add(
                "unit-law-alpha-zero",
                at_zero == reduce_mod_ideal(lie_elt, MOD_IY),
                "alpha = 0 collapses the closed form to the Lie element",
            )
    return report


# ---------------------------------------------------------------------------
# engine: character/value conversions and the group-like expansion
# ---------------------------------------------------------------------------


def verify_conversions(depth=8):
    """Round-trip the character<->value conversions, check the group-like
    expansion coefficients, and check the single-Y extraction formula for
    the log of a series given mod the XY/YY ideal."""
    _check_degree(depth)
    report = VerificationReport("conversions", {"depth": depth})
    with timed(report):
        K = depth

        # round trip starting from character symbols
        ring_c = PolyRing(["rho"] + [f"c{k}" for k in range(1, K + 1)])
        rho = ring_c.sym("rho")
        cs = [ring_c.sym(f"c{k}") for k in range(1, K + 1)]
        li = [li_from_chi(ring_c, rho, cs, m) for m in range(1, K + 1)]
        back = [chi_from_li(ring_c, rho, li, m) for m in range(1, K + 1)]
        report.add(
            "roundtrip-chi-li-chi",
            back == cs,
            f"identity on character symbols to depth {K}",
        )

        # round trip starting from value symbols
        ring_l = PolyRing(["rho"] + [f"v{k}" for k in range(1, K + 1)])
        rho_l = ring_l.sym("rho")
        vs = [ring_l.sym(f"v{k}") for k in range(1, K + 1)]
        chi_v = [chi_from_li(ring_l, rho_l, vs, m) for m in range(1, K + 1)]
        back_v = [li_from_chi(ring_l, rho_l, chi_v, m) for m in range(1, K + 1)]
        report.add(
            "roundtrip-li-chi-li",
            back_v == vs,
            f"identity on value symbols to depth {K}",
        )

        # depth-2 spot identity: li_2 = -c2 - (rho/2) c1
        spot = li_from_chi(ring_c, rho, cs, 2) if K >= 2 else None
        if spot is not None:
            expected = -cs[1] - rho * cs[0] * Fraction(1, 2)
            report.add("depth-2-conversion", spot == expected, str(spot))

        # group-like expansion: X^i and Y.X^(i-1) coefficients
        g = group_like_from_chi(ring_c, rho, cs, K)
        ok_x = True
        ok_y = True
        for i in range(K + 1):
            cx = g.coefficient((0,) * i)
            if cx != (-rho) ** i * Fraction(1, factorial(i)):
                ok_x = False
            if 1 + i <= K:
                cy = g.coefficient((1,) + (0,) * i)
                if cy != cs[i] * Fraction(-1, factorial(i)):
                    ok_y = False
        report.add("group-like-x-coefficients", ok_x, "(-rho)^i/i! for i <= depth")
        report.add(
            "group-like-y-coefficients", ok_y, "-chi_(i+1)/i! on Y.X^i words"
        )

        # single-Y extraction from log of a generic series mod XY/YY:
        # g = 1 + sum a^i/i! X^i - sum d_(i+1) Y.X^i
        ring_j = PolyRing(["a"] + [f"d{k}" for k in range(1, K + 1)])
        a = ring_j.sym("a")
        ds = [ring_j.sym(f"d{k}") for k in range(1, K + 1)]
        coeffs = {(): ring_j.one}
        for i in range(1, K + 1):
            coeffs[(0,) * i] = a**i * Fraction(1, factorial(i))
        for i in range(K):
            coeffs[(1,) + (0,) * i] = -ds[i]
        gen = NCSeries(ring_j, 1, FLAVOR_STANDARD, K, coeffs)
        lg = log_mod(gen, MOD_JY)
        ok_extract = True
        for m in range(1, K + 1):
            got = lg.coefficient((1,) + (0,) * (m - 1))
            want = ring_j.lincomb(
                (a**k * ds[m - k - 1], bernoulli_number(k) / factorial(k))
                for k in range(m)
            )
            if got != -want:
                ok_extract = False
        report.add(
            "single-y-log-extraction",
            ok_extract,
            "Y.X^(m-1) coefficient of log equals the Bernoulli-weighted sum",
        )
        ok_logx = lg.coefficient((0,)) == a and all(
            lg.coefficient((0,) * i).is_zero()
            for i in range(2, K + 1)
        )
        report.add("pure-x-log-linear", ok_logx, "log of exp(aX) part is aX")

        # dual route: the same extraction applied to the group-like series
        # must reproduce the value coefficients on Y.X^(m-1) words
        lg_g = log_mod(g, MOD_JY)
        ok_dual = True
        for m in range(1, K + 1):
            got = lg_g.coefficient((1,) + (0,) * (m - 1))
            want_direct = li[m - 1] * Fraction(-((-1) ** (m - 1)), 1)
            want_formula = ring_c.lincomb(
                (
                    (-rho) ** k * cs[m - k - 1],
                    bernoulli_number(k) / (factorial(m - k - 1) * factorial(k)),
                )
                for k in range(m)
            )
            if got != want_direct or got != -want_formula:
                ok_dual = False
        report.add(
            "extraction-consistent-with-conversion",
            ok_dual,
            "both routes to the log coefficients agree",
        )
    return report


# ---------------------------------------------------------------------------
# engine: the level-n inhomogeneous pipeline
# ---------------------------------------------------------------------------


def _inhomogeneous_checks(report, n, depth):
    """Build the level-n Lie element with closed-form branch prefactors,
    add its checks against independent BCH/morphism routes to report, and
    return the ring, chi and the derived level-1 characters chi_zn."""
    K = depth
    names = ["chi", "rho"] + [
        f"c{s}_{k}" for s in range(n) for k in range(1, K + 1)
    ]
    ring = PolyRing(names)
    chi, rho = ring.sym("chi"), ring.sym("rho")
    csym = {
        (s, k): ring.sym(f"c{s}_{k}")
        for s in range(n)
        for k in range(1, K + 1)
    }

    def l0(s):
        return rho + (chi - 1) * Fraction(s, n)

    def chi_list(s):
        return [csym[(s, k)] for k in range(1, K + 1)]

    def l_series(s):
        return GenSeries(
            ring,
            [
                csym[(s, k)] * Fraction(1, factorial(k - 1))
                for k in range(1, K + 1)
            ]
            + [ring.zero],
        )

    beta = beta_series(ring, K)

    # branch polylog values, by conversion and by generating identity
    li_branch = {
        s: [li_from_chi(ring, l0(s), chi_list(s), m) for m in range(1, K + 1)]
        for s in range(n)
    }
    ok_gen = True
    for s in range(n):
        gen = l_series(s).compose_linear(-1) * beta.compose_linear(l0(s))
        if [gen.coefficient(m - 1) for m in range(1, K + 1)] != li_branch[s]:
            ok_gen = False
    report.add(
        "branch-generating-identity",
        ok_gen,
        "value generating series equals L(-t)·beta(L0 t) per branch",
    )

    # closed-form prefactors of the level-n Lie element
    prefactor = {0: l_series(0).compose_linear(-1) * beta.compose_linear(rho)}
    for s in range(1, n):
        b = n - s
        # exponent ((s/n) - 1)·chi - s/n, the twist-arc correction
        twist_exp = chi * Fraction(s - n, n) + Fraction(-s, n)
        prefactor[s] = (
            l_series(b).compose_linear(-1)
            * GenSeries.exp_linear(ring, twist_exp, K)
            * beta.compose_linear(rho)
        )

    lam = polylog_element(
        ring, n, FLAVOR_STANDARD, K, rho,
        {s: prefactor[s].coeffs for s in range(n)},
    )

    # independent route per applied unit root: specialize and compare with
    # the BCH composition of the twist arc and the branch polylog element
    for s in range(n):
        spec = j_zeta_morphism(n, s, K)
        lhs = reduce_mod_ideal(spec.apply(lam), MOD_IY)
        b = (n - s) % n
        branch_elt = polylog_element(
            ring, 1, FLAVOR_STANDARD, K, l0(b), {0: li_branch[b]}
        )
        if s == 0:
            rhs = reduce_mod_ideal(branch_elt, MOD_IY)
        else:
            twist = galois_twist_delta(ring, b, n, K)
            rhs = bch(-twist, branch_elt, which=MOD_IY)
        report.add(
            f"specialization-bch-route-s{s}",
            lhs == rhs,
            "closed-form prefactors match the twist-arc BCH composition",
        )

    # push down the covering and extract the level-1 data
    push = pi_morphism(1, n, K)
    mu = reduce_mod_ideal(push.apply(lam), MOD_IY)
    x_coeff, branches = polylog_part(mu, K)
    report.add(
        "pushforward-kummer-scaling",
        x_coeff == rho * Fraction(n),
        "X coefficient of the push-forward is n·rho",
    )
    li_zn = list(branches[0])

    chi_zn = [
        chi_from_li(ring, rho * Fraction(n), li_zn, m) for m in range(1, K + 1)
    ]

    # generating identity downstairs: the derived character series equals
    # the twist-weighted sum of the branch series
    lhs_series = GenSeries(
        ring,
        [chi_zn[k - 1] * Fraction(1, factorial(k - 1)) for k in range(1, K + 1)]
        + [ring.zero],
    )
    rhs_series = GenSeries.lincomb(
        (l_series(s).compose_linear(n) * GenSeries.exp_linear(ring, chi * s, K), 1)
        for s in range(n)
    )
    # the t^K coefficient would need depth-(K+1) symbols, so compare to K-1
    report.add(
        "character-series-collapse",
        lhs_series.truncate(K - 1) == rhs_series.truncate(K - 1),
        "L-series of z^n equals sum_s L-series(branch s)(nt)·e^(s·chi·t)",
    )

    # the main statement: chi_k(z^n) as a binomial double sum over branches
    ok_main = True
    first_bad = None
    for k in range(1, K + 1):
        rhs = ring.lincomb(
            [(csym[(s, k)], n ** (k - 1)) for s in range(n)]
            + [
                (
                    chi ** (k - d) * csym[(s, d)],
                    comb(k - 1, d - 1) * n ** (d - 1) * s ** (k - d),
                )
                for d in range(1, k)
                for s in range(1, n)
            ]
        )
        if chi_zn[k - 1] != rhs:
            ok_main = False
            if first_bad is None:
                first_bad = k
    report.add(
        "main-distribution-statement",
        ok_main,
        "binomial double-sum matches derived characters to depth "
        f"{K}" + (f"; first failure at depth {first_bad}" if first_bad else ""),
    )

    # exact error series of the naive guess (chi -> chi-1 in the twist
    # exponentials only)
    true_t = GenSeries(ring, [ring.zero] + li_zn)
    beta_n = beta.compose_linear(rho * Fraction(n))

    def twist(w, s):
        # exp(-s·w·t): branch s's twist factor, with w = chi or chi - 1
        return GenSeries.exp_linear(ring, w * -s, K)

    def value_sum(use_chi_minus_one):
        w = (chi - 1) if use_chi_minus_one else chi
        return GenSeries.lincomb(
            (l_series(s).compose_linear(-n) * twist(w, s), 1) for s in range(n)
        )

    naive_t = (beta_n * value_sum(True)).mul_t()
    true_formula = (beta_n * value_sum(False)).mul_t()
    report.add(
        "value-series-closed-form",
        true_t == true_formula,
        "derived values of z^n match the twist-weighted closed form",
    )
    err = GenSeries.lincomb(
        (l_series(s).compose_linear(-n) * (twist(chi, s) - twist(chi - 1, s)), 1)
        for s in range(1, n)
    )
    err_predicted = (beta_n * err).mul_t()
    report.add(
        "naive-guess-error-series",
        true_t - naive_t == err_predicted,
        "true minus naive equals the predicted error series exactly",
    )

    # low-depth specializations
    if K >= 1:
        expect1 = ring.lincomb((csym[(s, 1)], 1) for s in range(n))
        report.add("depth-1-specialization", chi_zn[0] == expect1, "plain branch sum")
    if K >= 2:
        expect2 = ring.lincomb(
            [(csym[(s, 2)], n) for s in range(n)]
            + [(chi * csym[(s, 1)], s) for s in range(1, n)]
        )
        report.add(
            "depth-2-specialization",
            chi_zn[1] == expect2,
            "n·(branch sum) + chi·(weighted depth-1 sum)",
        )
    if n == 2:
        ok_n2 = True
        for k in range(1, K + 1):
            expect = ring.lincomb(
                [(csym[(0, k)], 2 ** (k - 1))]
                + [
                    (chi ** (k - d) * csym[(1, d)], comb(k - 1, d - 1) * 2 ** (d - 1))
                    for d in range(1, k + 1)
                ]
            )
            if chi_zn[k - 1] != expect:
                ok_n2 = False
        report.add(
            "doubling-general-depth",
            ok_n2,
            "2^(k-1)·(own char) + binomial sum over the mirrored branch",
        )

    return ring, chi, chi_zn


def verify_inhomogeneous_pipeline(n=2, depth=6):
    """Full inhomogeneous pipeline at level n, symbolic, to the given depth."""
    _check_degree(depth)
    if n < 2:
        raise ParameterError("need n >= 2")
    report = VerificationReport(
        "inhomogeneous", {"n": n, "depth": depth}
    )
    with timed(report):
        _inhomogeneous_checks(report, n, depth)
    return report


# ---------------------------------------------------------------------------
# engine: the homogeneized pipeline
# ---------------------------------------------------------------------------


def _homogeneous_checks(report, n, depth):
    """Add the checks of the homogeneized level-n pipeline to report."""
    K = depth
    names = ["d0"] + [f"d{s}_{k}" for s in range(n) for k in range(1, K + 1)]
    ring = PolyRing(names)
    d0 = ring.sym("d0")
    dsym = {
        (s, k): ring.sym(f"d{s}_{k}")
        for s in range(n)
        for k in range(1, K + 1)
    }

    lam = polylog_element(
        ring, n, FLAVOR_TILDE, K, d0,
        {s: [dsym[(s, m)] for m in range(1, K + 1)] for s in range(n)},
    )

    # specialization at each unit root picks out exactly one branch
    ok_spec = True
    for s in range(n):
        spec = j_zeta_morphism(n, s, K, flavor=FLAVOR_TILDE)
        x_coeff, branches = polylog_part(spec.apply(lam), K)
        if x_coeff != d0 or list(branches[0]) != [
            dsym[(s, k)] for k in range(1, K + 1)
        ]:
            ok_spec = False
    report.add(
        "specialization-common-kummer",
        ok_spec,
        "every unit-root specialization shares the X coefficient and "
        "picks out its own branch coefficients",
    )

    # push-forward acts diagonally with degree scaling
    push = pi_morphism(1, n, K, flavor=FLAVOR_TILDE)
    x_coeff, branches = polylog_part(push.apply(lam), K)
    report.add(
        "pushforward-x-scaling",
        x_coeff == d0 * Fraction(n),
        "X coefficient multiplies by n",
    )
    li_zn = list(branches[0])
    ok_li = True
    for k in range(1, K + 1):
        expect = ring.lincomb((dsym[(s, k)], n ** (k - 1)) for s in range(n))
        if li_zn[k - 1] != expect:
            ok_li = False
    report.add(
        "pushforward-value-collapse",
        ok_li,
        "depth-k coefficient of the push-forward is n^(k-1)·(branch sum)",
    )

    # character form of the collapse
    chi_zn = [
        chi_from_li(ring, d0 * Fraction(n), li_zn, m) for m in range(1, K + 1)
    ]
    chi_branch = {
        s: [
            chi_from_li(ring, d0, [dsym[(s, j)] for j in range(1, K + 1)], m)
            for m in range(1, K + 1)
        ]
        for s in range(n)
    }
    ok_chi = True
    for k in range(1, K + 1):
        expect = ring.lincomb(
            (chi_branch[s][k - 1], n ** (k - 1)) for s in range(n)
        )
        if chi_zn[k - 1] != expect:
            ok_chi = False
    report.add(
        "homogeneous-character-collapse",
        ok_chi,
        "characters satisfy the clean n^(k-1) distribution relation",
    )


def verify_homogeneous_polylog(n=2, depth=6):
    """Homogeneized pipeline: diagonal push-forward and clean collapse."""
    _check_degree(depth)
    if n < 2:
        raise ParameterError("need n >= 2")
    report = VerificationReport("homogeneous", {"n": n, "depth": depth})
    with timed(report):
        _homogeneous_checks(report, n, depth)
    return report


# ---------------------------------------------------------------------------
# engine: specialization at the tangential base point (depth 2 and beyond)
# ---------------------------------------------------------------------------


def tangential_even_character(ring, k):
    """The depth-k character value at the canonical tangential base point,
    for even k: (B_k / (2k)) · (chi^k - 1).  (Odd depths >= 3 vanish.)"""
    if k < 2 or k % 2:
        raise ValueError("defined for even depth k >= 2")
    chi = ring.sym("chi")
    return (chi**k - 1) * (bernoulli_number(k) * Fraction(1, 2 * k))


def derive_eisenstein_specialization(k_max=3):
    """Derive the minus-one-point character values two independent ways.

    (a) Specialize the verified doubling statement at depth 2 at the
        tangential base point and solve for the depth-2 character at -1;
        the result must be -(chi^2-1)/48 - (1/2)·chi·(Kummer of 2).
    (b) Specialize the verified homogeneized doubling relation at even
        depths 2k' <= 2·k_max and solve; the result must be
        ((1-2^(2k'-1))/2^(2k'))·(B_(2k')/(2k'))·(chi^(2k')-1).
    (c) Cross-check: translating the depth-2 value from (a) by half the
        cyclotomic character reproduces (b) at k' = 1, and the Kummer-of-2
        symbol cancels exactly.
    """
    from .measures import translate_chi

    if k_max < 1:
        raise ParameterError(f"k_max = {k_max} must be >= 1")
    _check_degree(2 * k_max)  # route (b) runs the homogeneous pipeline there
    report = VerificationReport("eisenstein-specialization", {"k_max": k_max})
    with timed(report):
        # (a) inhomogeneous route at depth 2
        pipeline = VerificationReport("inhomogeneous", {"n": 2, "depth": 2})
        ring, chi, chi_zn = _inhomogeneous_checks(pipeline, 2, 2)
        report.add(
            "doubling-pipeline-certified",
            pipeline.ok,
            "depth-2 doubling pipeline passes before specialization",
        )
        eq = chi_zn[1]
        # the verified statement must not involve the base Kummer symbol
        report.add(
            "statement-free-of-base-kummer",
            eq.substitute({"rho": 0}) == eq,
            "depth-2 statement has no rho dependence",
        )
        coeff = eq.coefficient_of("c1_2")
        report.add(
            "mirror-depth2-coefficient",
            coeff == 2,
            "statement is linear in the mirrored depth-2 character "
            "with coefficient 2",
        )
        s2 = tangential_even_character(ring, 2)
        # at the tangential point, z and z^2 coincide: both depth-2
        # characters become s2; the mirrored depth-1 character is the
        # Kummer coordinate of 2 (symbol c1_1 retained for it).
        rest = eq.substitute({"c1_2": 0, "c0_2": s2})
        solved = (s2 - rest) * Fraction(1, 2)
        rho2 = ring.sym("c1_1")
        target = -(chi**2 - 1) * Fraction(1, 48) - chi * rho2 * Fraction(1, 2)
        report.add(
            "minus-one-depth2-value",
            solved == target,
            f"solved value {solved}",
        )

        # (b) homogeneized route at even depths
        hom = VerificationReport("homogeneous", {"n": 2, "depth": 2 * k_max})
        _homogeneous_checks(hom, 2, 2 * k_max)
        report.add(
            "homogeneous-pipeline-certified",
            hom.ok,
            "homogeneized doubling relation passes before specialization",
        )
        ring8 = PolyRing(["chi"])
        chi8 = ring8.sym("chi")
        ok_even = True
        details = []
        for kp in range(1, k_max + 1):
            k = 2 * kp
            s = tangential_even_character(ring8, k)
            # verified relation: value(z^2) = 2^(k-1)(value(z) + value(-z));
            # at the tangential point value(z^2) = value(z) = s.
            solved_k = s * Fraction(1 - 2 ** (k - 1), 2 ** (k - 1))
            target_k = (
                (chi8**k - 1)
                * bernoulli_number(k)
                * Fraction(1 - 2 ** (k - 1), 2**k * k)
            )
            if solved_k != target_k:
                ok_even = False
            details.append(f"depth {k}: {solved_k}")
        report.add(
            "minus-one-even-depth-values",
            ok_even,
            "; ".join(details),
        )

        # (c) translate the inhomogeneous depth-2 value by chi/2 and compare
        translated = translate_chi(ring, [rho2, solved], chi * Fraction(1, 2), 2)
        hom_value = translated[1]
        report.add(
            "translation-kummer-cancellation",
            hom_value.substitute({"c1_1": 0}) == hom_value,
            "the Kummer-of-2 symbol cancels in the homogeneized value",
        )
        target_c = -(chi**2 - 1) * Fraction(1, 48)
        report.add(
            "translation-matches-homogeneous",
            hom_value == target_c,
            f"translated value {hom_value}",
        )
    return report
