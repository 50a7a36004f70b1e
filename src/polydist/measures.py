"""Finite-level measures on shifted ell-adic grids and their push-forwards.

A ``FiniteMeasure`` assigns an integer mass to each point ``offset + a`` for
a in Z/ell^m.  Push-forward along multiplication by n lands at level
m' = m - v_ell(n) (the covering map contracts ell-adic discs when ell | n)
with the masses transported by brute force.  Moments are the exact pairing
values int (offset+a)^(k-1) dmu; the depth-k character of a measure is its
k-th moment, and translating the grid acts on the character list by a
binomial transform (``translate_chi``).

All congruence engines here check exact integers/rationals (the honest
brute-force oracle): a congruence mod ell^m' is tested on the exact
difference, and reports carry pass/fail checks, never reduced residues.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm
from operator import mul

from .lie import bernoulli_number
from .report import ParameterError, VerificationReport, timed


def padic_valuation(n, ell):
    """Exponent of ell in the integer n (n != 0)."""
    if n == 0:
        raise ValueError("valuation of zero is undefined")
    n = abs(n)
    v = 0
    while n % ell == 0:
        n //= ell
        v += 1
    return v


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class MeasureError(ValueError):
    """Raised for invalid levels, offsets, or incompatible push-forwards."""


@dataclass(frozen=True)
class FiniteMeasure:
    """Integer masses on the grid offset + (Z/ell^m)."""

    ell: int
    m: int
    offset: Fraction
    values: tuple

    def __post_init__(self):
        if not _is_prime(self.ell):
            raise MeasureError("ell must be a (small) prime")
        if self.m < 0:
            raise MeasureError("level m must be >= 0")
        if len(self.values) != self.ell**self.m:
            raise MeasureError(
                f"need {self.ell ** self.m} masses, got {len(self.values)}"
            )
        object.__setattr__(self, "offset", Fraction(self.offset))

    def mass(self):
        return sum(self.values)

    def add(self, other):
        if (
            other.ell != self.ell
            or other.m != self.m
            or other.offset != self.offset
        ):
            raise MeasureError("measures live on different grids")
        return FiniteMeasure(
            self.ell,
            self.m,
            self.offset,
            tuple(a + b for a, b in zip(self.values, other.values)),
        )



def random_measure(ell, m, offset, rng, max_mass=None):
    size = ell**m
    cap = max_mass if max_mass is not None else ell**m
    return FiniteMeasure(
        ell, m, Fraction(offset), tuple(rng.randrange(cap) for _ in range(size))
    )


def power_sums(mu, depth):
    """Integer power sums P_k = sum over a of mass(a)·(p + q·a)^(k-1) for
    k = 1..depth (depth >= 1), with offset = p/q; the k-th moment is
    P_k / q^(k-1).  All depths come from one call: each depth multiplies
    the running terms by the grid points once."""
    p, q = mu.offset.numerator, mu.offset.denominator
    terms = list(mu.values)
    points = range(p, p + q * len(terms), q)
    sums = [sum(terms)]
    while len(sums) < depth:
        terms = list(map(mul, terms, points))
        sums.append(sum(terms))
    return sums


def moment_exact(mu, k):
    """Exact k-th moment: sum over a of (offset + a)^(k-1) * mass(a).

    With offset = p/q this is P_k / q^(k-1) (``power_sums``): the sum runs
    in integers and only the final division makes a Fraction."""
    if k < 1:
        raise MeasureError("moment depth k must be >= 1")
    return Fraction(power_sums(mu, k)[-1], mu.offset.denominator ** (k - 1))


def pushforward_mul(mu, n):
    """Push the measure forward along x -> n·x.

    Requires n·offset integral (the image lives on the integer grid) and
    m' = m - v_ell(n) >= 0; the image is at level m' with offset 0.
    """
    if n < 1:
        raise MeasureError("multiplier n must be >= 1")
    shift = n * mu.offset
    if shift.denominator != 1:
        raise MeasureError(
            f"offset {mu.offset} times {n} is not integral; "
            "the image does not live on the integer grid"
        )
    v = padic_valuation(n, mu.ell)
    m_new = mu.m - v
    if m_new < 0:
        raise MeasureError(
            f"target level m - v_ell(n) = {mu.m} - {v} is negative"
        )
    size_new = mu.ell**m_new
    s = int(shift)
    out = [0] * size_new
    for a, val in enumerate(mu.values):
        if val:
            out[(s + n * a) % size_new] += val
    return FiniteMeasure(mu.ell, m_new, Fraction(0), tuple(out))


def translate_chi(ring, chi_values, shift, depth):
    """Character list of the translated measure (grid moved by ``shift``).

    Depth-k output: sum_{i=0}^{k-1} C(k-1, i) shift^(k-1-i) chi_(i+1),
    summed in ``ring`` (exact rationals, polynomials).
    """
    if depth > len(chi_values):
        raise MeasureError("not enough character values for requested depth")
    return [
        ring.lincomb(
            (chi_values[i] * shift ** (k - 1 - i), comb(k - 1, i)) for i in range(k)
        )
        for k in range(1, depth + 1)
    ]


# ---------------------------------------------------------------------------
# engine: finite-level moment distribution under push-forward
# ---------------------------------------------------------------------------


def verify_measure_pushforward(ell, m, n, trials=100, seed=0, depth=6):
    """Seeded random measures on the shifted grids s/n + Z/ell^m: check that
    push-forward along multiplication by n scales depth-k moments by
    n^(k-1) modulo ell^(m - v_ell(n)), per branch and for the branch sum,
    plus mass preservation and a corruption negative control.

    Every measure's power sums for all depths come from one ``power_sums``
    call.  With offset p/q, n^(k-1)·moment_k is n^(k-1)·P_k / q^(k-1), so
    integrality and the congruence are tests of integer divisibility.

    Raises ParameterError, before any work, unless ell is prime, n >= 1,
    trials >= 1, depth >= 1 and m - v_ell(n) >= 1 (at 0 the modulus is 1 and
    every congruence, the corruption control's included, holds vacuously)."""
    if not _is_prime(ell):
        raise ParameterError(f"ell = {ell} is not a prime")
    if n < 1:
        raise ParameterError(f"multiplier n = {n} must be >= 1")
    if trials < 1:
        raise ParameterError(f"trials = {trials} must be >= 1")
    if depth < 1:
        raise ParameterError(f"depth = {depth} must be >= 1")
    m_new = m - padic_valuation(n, ell)
    if m_new < 1:
        raise ParameterError(
            f"target level m - v_ell(n) = {m_new} is below 1 for m = {m}, n = {n}"
        )
    report = VerificationReport(
        "measure-pushforward",
        {"ell": ell, "m": m, "n": n, "trials": trials, "seed": seed, "depth": depth},
    )
    with timed(report):
        modulus = ell**m_new
        rng = random.Random(seed)
        ok_branch = True
        ok_sum = True
        ok_mass = True
        first_bad = None
        for trial in range(trials):
            branches = [
                random_measure(ell, m, Fraction(s, n), rng) for s in range(n)
            ]
            pushed = [pushforward_mul(mu, n) for mu in branches]
            total = pushed[0]
            for p in pushed[1:]:
                total = total.add(p)
            if total.mass() != sum(mu.mass() for mu in branches):
                ok_mass = False
            sums = [
                (power_sums(p, depth), power_sums(mu, depth), mu.offset.denominator)
                for mu, p in zip(branches, pushed)
            ]
            total_sums = power_sums(total, depth)
            for e in range(depth):  # e = k - 1; pushed measures sit at offset 0
                rhs_all = 0
                for lhs, raw, q in sums:
                    rhs, rem = divmod(n**e * raw[e], q**e)
                    rhs_all += rhs
                    if rem or (lhs[e] - rhs) % modulus:
                        ok_branch = False
                        if first_bad is None:
                            first_bad = (trial, e + 1)
                if (total_sums[e] - rhs_all) % modulus:
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

        # negative control: corrupt one mass and require detection
        mu = random_measure(ell, m, Fraction(0), rng)
        vals = list(mu.values)
        vals[rng.randrange(len(vals))] += 1
        corrupted = FiniteMeasure(ell, m, Fraction(0), tuple(vals))
        lhs = power_sums(pushforward_mul(corrupted, n), depth)
        detected = any(
            (lhs[e] - n**e * raw) % modulus
            for e, raw in enumerate(power_sums(mu, depth))
        )
        report.add(
            "corruption-detected",
            detected,
            "a single-mass corruption breaks at least one congruence",
        )
    return report


# ---------------------------------------------------------------------------
# engine: elementary Bernoulli-sum congruence
# ---------------------------------------------------------------------------


def _is_prime_power(q):
    if q < 2:
        return False
    for p in range(2, q + 1):
        if p * p > q:
            return True  # q itself is prime
        if q % p == 0:
            while q % p == 0:
                q //= p
            return q == 1
    return False


def bernoulli_congruence_check(q, c):
    """Weighted depth-2 Bernoulli sums at denominator 2q.

    T = sum_{b=0}^{q-1} (q/2)[c^2·B2({(1+2·cinv·b)/(2q)}) - B2({(2b+c)/(2q)})]
    must differ from (1/2)(c^2-1)·B2(1/2) by an element of (q/48)Z; the
    difference is in fact exactly zero (both sums telescope to the full sum
    of B2 over the odd residues), which the report records.

    Every B2 value r/N, N = 2q, is the integer D·N^2·B2(r/N) over the one
    denominator D·N^2, with the coefficients taken from ``bernoulli_number``;
    the sums run in integers and only the reported difference is a Fraction.

    Also checks the folding pairing <m> + <-m> = 2q on representatives.

    Raises ParameterError, before any work, unless q is a prime power and c
    is invertible mod 2q.
    """
    if not _is_prime_power(q):
        raise ParameterError(f"q = {q} is not a prime power >= 2")
    if c % 2 == 0 or gcd(c, 2 * q) != 1:
        raise ParameterError(f"c = {c} is not invertible mod 2q = {2 * q}")
    report = VerificationReport("bernoulli-congruence", {"q": q, "c": c})
    with timed(report):
        N = 2 * q
        cinv = pow(c, -1, N)
        terms = [comb(2, j) * bernoulli_number(j) for j in range(3)]
        D = lcm(*(t.denominator for t in terms))
        coeffs = [int(t * D) for t in terms]

        def b2(r):
            """D·N^2·B2({r/N}), an integer."""
            r %= N
            return sum(cj * r ** (2 - j) * N**j for j, cj in enumerate(coeffs))

        s1 = sum(b2(1 + 2 * cinv * b) for b in range(q))
        s2 = sum(b2(2 * b + c) for b in range(q))
        # T - target over the denominator 2·D·N^2, with B2(1/2) = B2(q/N)
        num = q * (c * c * s1 - s2) - (c * c - 1) * b2(q)
        den = 2 * D * N * N
        diff = Fraction(num, den)
        report.add(
            "difference-in-lattice",
            (48 * num) % (q * den) == 0,
            f"T - target = {diff}, target lattice (q/48)Z",
        )
        report.add_residual(kind="observed-difference", value=str(diff))

        # both sums telescope to the odd-residue B2 sum = -1/(12q)
        odd_sum = sum(b2(rr) for rr in range(1, N, 2))
        report.add(
            "index-bijections-telescope",
            s1 == odd_sum == s2 and 12 * q * odd_sum == -D * N * N,
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
