"""Exact and log-space arithmetic underneath every formula in the package.

Two arithmetic paths coexist.  Arbitrary-precision integers and rationals
(``int``, ``fractions.Fraction``) carry the closed forms exactly for moderate
port counts; a log-space float path keeps the same quantities computable when
the factorials involved overflow any fixed-width type.  The overlap window is
cross-validated by the test suite.

Squares of radical sums (sum_i c_i sqrt(R_i))**2 are integers when every
pair product R_i R_j is a perfect square, which n - 1 integer square roots
decide.  Otherwise every sqrt(R_i) becomes one dyadic root with 128 guard
bits, so the square lies below the true value by a relative error under
2**-127, whatever the number of terms.  Both cases give the square as an
integer in units of 2**-256, so a sum of such squares adds integers and
builds a single Fraction at the end.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Iterable, Sequence

_LN2 = math.log(2.0)
_LN_MIN_NORMAL = math.log(sys.float_info.min)

# Radicands are scaled by 2**256 before their integer square root is taken,
# which leaves 128 guard bits below the root's binary point.
_SQRT_SHIFT = 256


def ln_int(x: int) -> float:
    """Natural log of a positive integer, accurate to a few ulp at any size."""
    if x <= 0:
        raise ValueError(f"ln_int requires a positive integer, got {x}")
    if x.bit_length() <= 53:
        return math.log(x)
    shift = x.bit_length() - 53
    return math.log(x >> shift) + shift * _LN2


def square_of_radical_sum(
    terms: Sequence[tuple[int, int]], roots: dict[int, int]
) -> tuple[int, bool]:
    """(sum_i c_i * sqrt(R_i))**2 for nonnegative integer coefficients and
    radicands, as an integer S in units of 2**-256.

    Terms with c_i = 0 or R_i = 0 are dropped as they are validated.  Every
    pair product R_i R_j of the rest is a perfect square iff R_0 R_i is one
    for every i, since R_0**2 R_i R_j is then a square.  Up to n - 1 integer
    square roots, stopping at the first non-square, decide which case holds:

    * all squares: every R_i is q s_i**2 for the squarefree part q of R_0,
      so the square q (sum_i c_i s_i)**2 = (sum_i c_i t_i)**2 / R_0, with
      t_i = sqrt(R_0 R_i), is an integer; S is that integer times 2**256
      and the flag is True;
    * otherwise each radicand gets one floored root r_i = isqrt(R_i 2**256),
      S = (sum_i c_i r_i)**2 and the flag is False.  Each r_i / 2**128 lies
      less than 2**-128 below sqrt(R_i) >= 1, and all terms are nonnegative,
      so S / 2**256 lies below the true value by a relative error under
      2**-127, whatever the number of terms.

    ``roots`` caches r_i by R_i; ``sum_of_radical_squares`` shares one dict
    across the blocks of a sum, where radicands recur.
    """
    live = []
    for c, r in terms:
        if c < 0 or r < 0:
            raise ValueError("coefficients and radicands must be nonnegative")
        if c and r:
            live.append((c, r))
    if not live:
        return 0, True
    c0, r0 = live[0]
    num = c0 * r0  # t_0 = sqrt(R_0 R_0) = R_0
    for c, r in live[1:]:
        x = r0 * r
        root = math.isqrt(x)
        if root * root != x:
            break
        num += c * root
    else:
        square, rest = divmod(num * num, r0)
        assert rest == 0, "an all-square radical sum squares to an integer"
        return square << _SQRT_SHIFT, True
    num = 0
    for c, r in live:
        root = roots.get(r)
        if root is None:
            root = roots[r] = math.isqrt(r << _SQRT_SHIFT)
        num += c * root
    return num * num, False


def sum_of_radical_squares(blocks: Iterable[Sequence[tuple[int, int]]]) -> tuple[Fraction, bool]:
    """The sum of ``square_of_radical_sum`` over the term lists ``blocks``,
    as one rational, and whether every block was exact.  The blocks share one
    cache of roots and add up as integers over the common 2**256, so the
    total is the same rational as a running sum of the blocks as fractions.
    """
    roots: dict[int, int] = {}
    total, exact = 0, True
    for terms in blocks:
        square, ok = square_of_radical_sum(terms, roots)
        total, exact = total + square, exact and ok
    return Fraction(total, 1 << _SQRT_SHIFT), exact


def logsumexp(values: Iterable[float]) -> float:
    """log(sum(exp(v))) over a finite iterable, tolerating -inf entries."""
    vals = [v for v in values if v != -math.inf]
    if not vals:
        return -math.inf
    top = max(vals)
    return top + math.log(math.fsum(math.exp(v - top) for v in vals))


class UnderflowError(ValueError):
    """A log-space result lies below the smallest normal float."""


def exp_normal(ln_value: float) -> float:
    """exp of a log-space result.  Raises UnderflowError when the value lies
    below the smallest normal float, where it would lose its relative accuracy
    and print as 0; the exact-rational path still carries such values."""
    if ln_value < _LN_MIN_NORMAL:
        raise UnderflowError(
            f"log-space value exp({ln_value:.6g}) underflows a float; use --arith exact"
        )
    return math.exp(ln_value)
