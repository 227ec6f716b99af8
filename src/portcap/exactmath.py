"""Exact and log-space arithmetic underneath every formula in the package.

Two arithmetic paths coexist.  Arbitrary-precision integers and rationals
(``int``, ``fractions.Fraction``) carry the closed forms exactly for moderate
port counts; a log-space float path keeps the same quantities computable when
the factorials involved overflow any fixed-width type.  The overlap window is
cross-validated by the test suite.

Square roots of integers are handled exactly when the radicand is a perfect
square and otherwise as dyadic rationals with 128 guard bits, so sums of
radical terms come with a certified relative error far below 1e-15.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Iterable, Sequence

_LN2 = math.log(2.0)
_LN_MIN_NORMAL = math.log(sys.float_info.min)

# Guard bits for dyadic square-root approximations (relative error <= 2**-128).
_SQRT_GUARD_BITS = 128


def binomial(n: int, k: int) -> int:
    """C(n, k) with the out-of-range convention C(n, k) = 0 for k < 0 or k > n.

    The zero convention is load-bearing: the spin-coupling coefficients and the
    qubit success-probability sum rely on vanishing out-of-range terms.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def falling_factorial(n: int, k: int) -> int:
    """n * (n-1) * ... * (n-k+1), i.e. n!/(n-k)!. Requires 0 <= k <= n."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if k < 0 or k > n:
        raise ValueError(f"falling_factorial requires 0 <= k <= n, got n={n}, k={k}")
    return math.perm(n, k)


def ln_int(x: int) -> float:
    """Natural log of a positive integer, accurate to a few ulp at any size."""
    if x <= 0:
        raise ValueError(f"ln_int requires a positive integer, got {x}")
    if x.bit_length() <= 53:
        return math.log(x)
    shift = x.bit_length() - 53
    return math.log(x >> shift) + shift * _LN2


def square_of_radical_sum(terms: Sequence[tuple[int, int]]) -> tuple[Fraction, bool]:
    """(sum_i c_i * sqrt(R_i))**2 for nonnegative integer coefficients and radicands.

    Expanding the square leaves only pairwise products sqrt(R_i * R_j); each is
    extracted exactly when the product is a perfect square.  The returned flag
    is True iff every surviving cross term was exact, in which case the result
    is the true rational value.  Otherwise the result carries a certified
    relative error below len(terms)**2 * 2**-128 (all terms are nonnegative,
    so no cancellation amplifies it).

    Every term is an integer multiple of 2**-128: c_i**2 R_i is an integer and
    each cross root is isqrt(R_i R_j 2**256) / 2**128, which is exact iff its
    square gives R_i R_j 2**256 back.  The numerators are summed as integers.
    """
    for c, r in terms:
        if c < 0 or r < 0:
            raise ValueError("coefficients and radicands must be nonnegative")
    live = [(c, r) for c, r in terms if c != 0 and r != 0]
    shift = 2 * _SQRT_GUARD_BITS
    num = 0
    exact = True
    for i, (ci, ri) in enumerate(live):
        ri_scaled = ri << shift
        cross = 0
        for cj, rj in live[i + 1 :]:
            x = ri_scaled * rj
            root = math.isqrt(x)
            cross += cj * root
            exact = exact and root * root == x
        num += (ci * ci * ri << _SQRT_GUARD_BITS) + 2 * ci * cross
    return Fraction(num, 1 << _SQRT_GUARD_BITS), exact


def logsumexp(values: Iterable[float]) -> float:
    """log(sum(exp(v))) over a finite iterable, tolerating -inf entries."""
    vals = [v for v in values if v != -math.inf]
    if not vals:
        return -math.inf
    top = max(vals)
    return top + math.log(math.fsum(math.exp(v - top) for v in vals))


def exp_normal(ln_value: float) -> float:
    """exp of a log-space result.  Raises when the value lies below the
    smallest normal float, where it would lose its relative accuracy and
    print as 0; the exact-rational path still carries such values."""
    if ln_value < _LN_MIN_NORMAL:
        raise ValueError(
            f"log-space value exp({ln_value:.6g}) underflows a float; use --arith exact"
        )
    return math.exp(ln_value)
