"""Closed-form fidelity bounds from the state-discrimination route.

The chain (each link exact, all values reduced rationals) is

    bernoulli <= product <= ratio <= F,

where ``ratio`` is C(N,k) / C(d^2+N-1, k), ``product`` its k-fold factor
form (1 - (d^2-1)/(d^2+N-k))**k and ``bernoulli`` the linearized tail
1 - k(d^2-1)/(d^2+N-k), clamped at zero.  The ratio bound follows from the
purity of the averaged signal operator, computed here both in closed form and
as an explicit sum of pairwise signal overlaps.

Conventions: ``N`` counts ports, ``n = N + k`` counts all systems on one
side.  ``trace_rho_squared`` and ``pairwise_signal_trace`` take ``n`` (they
live at the level of the partially transposed permutation operators, whose
natural parameter is the total system count); everything else takes ``N``.
Port tuples are in slot order: the t-th entry is the port paired with the
t-th teleported system.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .core import ProtocolParams
from .exactmath import binomial, falling_factorial


def trace_rho_squared(n: int, k: int, d: int) -> int:
    """Purity of the *unnormalized* sum of signal operators on n systems
    (each signal being a partially transposed permutation without its 1/d^N):

        d**(N-k) * N!/(N-k)! * (d^2+N-1)! / (d^2+N-k-1)!,   N = n - k.
    """
    N = n - k
    ProtocolParams(N, k, d).require_bound_scope()
    return (
        d ** (N - k)
        * falling_factorial(N, k)
        * falling_factorial(d * d + N - 1, k)
    )


def trace_rho_bar_squared(N: int, k: int, d: int) -> Fraction:
    """Purity of the trace-normalized averaged signal operator:

        d**-(N+k) * C(N,k)**-1 * C(d^2+N-1, k)
    """
    ProtocolParams(N, k, d).require_bound_scope()
    return Fraction(binomial(d * d + N - 1, k), d ** (N + k) * binomial(N, k))


def pdist_lower(N: int, k: int, d: int) -> Fraction:
    """Lower bound on the probability of discriminating the k!C(N,k) signals
    under the uniform prior:  1 / (r * k!C(N,k) * tr rho_bar^2) with the
    average signal rank r = d^(N-k).  Composed with the fidelity relation
    F = k!C(N,k)/d^(2k) * p_dist it reproduces ``fidelity_bound_ratio``.
    """
    ProtocolParams(N, k, d).require_bound_scope()
    signals = falling_factorial(N, k)
    return 1 / (d ** (N - k) * signals * trace_rho_bar_squared(N, k, d))


def fidelity_bound_ratio(N: int, k: int, d: int) -> Fraction:
    """Strongest closed-form fidelity lower bound: C(N,k) / C(d^2+N-1, k)."""
    ProtocolParams(N, k, d).require_bound_scope()
    return Fraction(binomial(N, k), binomial(d * d + N - 1, k))


def fidelity_bound_product(N: int, k: int, d: int) -> Fraction:
    """Weaker factored bound (1 - (d^2-1)/(d^2+N-k))**k."""
    ProtocolParams(N, k, d).require_bound_scope()
    return (1 - Fraction(d * d - 1, d * d + N - k)) ** k


def fidelity_bound_bernoulli(N: int, k: int, d: int) -> Fraction:
    """Linearized bound 1 - k(d^2-1)/(d^2+N-k), clamped below at 0."""
    ProtocolParams(N, k, d).require_bound_scope()
    return max(Fraction(0), 1 - Fraction(k * (d * d - 1), d * d + N - k))


def symmetric_poly_bound(N: int, k: int, d: int, order: int) -> Fraction:
    """Truncation of the ratio bound's expansion in elementary symmetric
    polynomials of x_s = 1/(d^2+N-s-1):

        sum_{l=0..order} (-1)**l (d^2-1)**l e_l(x_0..x_{k-1})

    At order = k this is exactly the full product, i.e. the ratio bound.
    """
    ProtocolParams(N, k, d).require_bound_scope()
    if not 0 <= order <= k:
        raise ValueError(f"order must satisfy 0 <= order <= k={k}, got {order}")
    xs = [Fraction(1, d * d + N - s - 1) for s in range(k)]
    elem = [Fraction(1)] + [Fraction(0)] * k
    for x in xs:
        for level in range(k, 0, -1):
            elem[level] += x * elem[level - 1]
    c = d * d - 1
    return sum(((-c) ** level) * elem[level] for level in range(order + 1))


def pairwise_signal_trace(
    a: Sequence[int], b: Sequence[int], n: int, k: int, d: int
) -> Fraction:
    """tr(sigma_a sigma_b) for two normalized signals on n systems.

    Equal to d**(n - 2k + 2*hits) / d**(2N), where ``hits`` counts the slots
    whose port index coincides after threading through the transposition
    sequence built from the earlier slots (see ``_coincidence_count``).
    """
    _validate_tuples(a, b, n, k)
    N = n - k
    hits = _coincidence_count(a, b)
    return Fraction(d ** (n - 2 * k + 2 * hits), d ** (2 * N))


def signal_pair_trace_raw(
    a: Sequence[int], b: Sequence[int], n: int, k: int, d: int
) -> int:
    """Unnormalized pairwise trace (signals without their 1/d^N factor):
    d**(n-2k) * d**(2*hits).  Summed over all ordered tuple pairs this equals
    ``trace_rho_squared``."""
    _validate_tuples(a, b, n, k)
    return d ** (n - 2 * k + 2 * _coincidence_count(a, b))


def _validate_tuples(a: Sequence[int], b: Sequence[int], n: int, k: int) -> None:
    if k < 1 or k > n // 2:
        raise ValueError(f"require 1 <= k <= floor(n/2); got n={n}, k={k}")
    for name, tup in (("a", a), ("b", b)):
        if len(tup) != k:
            raise ValueError(f"tuple {name} must have length k={k}, got {len(tup)}")
        if len(set(tup)) != k:
            raise ValueError(f"tuple {name} must have distinct entries, got {tuple(tup)}")
        if any(not 1 <= i <= n - k for i in tup):
            raise ValueError(f"tuple {name} entries must lie in [1, {n - k}], got {tuple(tup)}")


def _coincidence_count(a_slots: Sequence[int], b_slots: Sequence[int]) -> int:
    """Number of positions where a_t equals the image of b_t under the
    composed transpositions (a_1 x_1)(a_2 x_2)... built from earlier positions.

    The recursion runs over slots in reverse order (the slot paired with the
    last system first), matching the inductive structure of the operator
    product; the resulting trace is symmetric in (a, b) regardless.
    """
    a = tuple(reversed(tuple(a_slots)))
    b = tuple(reversed(tuple(b_slots)))
    swaps: list[tuple[int, int]] = []
    hits = 0
    for a_t, b_t in zip(a, b):
        x = b_t
        for u, v in swaps:
            if x == u:
                x = v
            elif x == v:
                x = u
        if x == a_t:
            hits += 1
        swaps.append((a_t, x))
    return hits
