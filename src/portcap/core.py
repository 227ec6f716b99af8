"""Shared protocol parameter and result types, and the chunk budget of the
numpy kernels.

Both are NamedTuples, like every record type in the package: immutable,
iterable, and equal to the plain tuple of their fields.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

# Cells per chunk of every chunked numpy kernel (256 kB of float64).
CHUNK_CELLS = 1 << 15


class _ProtocolFields(NamedTuple):
    N: int
    k: int
    d: int = 2


class ProtocolParams(_ProtocolFields):
    """Multi-port teleportation instance: N ports of local dimension d, k teleported systems.

    The exact performance formulas are defined for 1 <= k <= N; the
    discrimination-based bounds additionally require k <= floor(N/2).
    """

    __slots__ = ()

    def __new__(cls, N: int, k: int, d: int = 2) -> ProtocolParams:
        if N < 1:
            raise ValueError(f"N must be >= 1, got {N}")
        if not 1 <= k <= N:
            raise ValueError(f"k must satisfy 1 <= k <= N={N}, got {k}")
        if d < 2:
            raise ValueError(f"d must be >= 2, got {d}")
        return super().__new__(cls, N, k, d)

    @property
    def n(self) -> int:
        """Total number of systems on one side (ports plus teleported slots)."""
        return self.N + self.k

    @property
    def num_signals(self) -> int:
        """Number of measurement outcomes, k! * C(N, k) ordered port tuples."""
        return math.perm(self.N, self.k)

    @property
    def in_bound_scope(self) -> bool:
        """Whether the discrimination bounds apply (k <= floor(N/2))."""
        return self.k <= self.N // 2

    def require_bound_scope(self) -> None:
        if not self.in_bound_scope:
            raise ValueError(
                f"bound formulas require k <= floor(N/2); got N={self.N}, k={self.k}"
            )


class EvalResult(NamedTuple):
    """A computed figure of merit with arithmetic-path metadata; every
    function in ``performance`` returns one.

    ``value`` is the float view.  ``exact`` carries the value as a reduced
    rational whenever the fully exact path produced one, which the success
    probability always does.  ``method`` names the formula and ``arith`` the
    path, "exact" or "log".  ``rel_err_bound`` bounds |value - true| / true
    while the true value lies in the normal float range (the float view
    underflows below about 2.2e-308, where the log paths raise).  On the log
    paths it is an a-priori bound, quadratic in N, led by the rounding of a
    cumulative sum of ln C(N+1, m) ratios.  The tests check the log paths'
    figures against exact sums for N <= 200, the fidelity's also against a
    reference ln C table up to N = 2e5, and the success probability's also
    against 40-digit sums up to N = 99999.
    """

    value: float
    exact: Fraction | None
    method: str
    arith: str
    rel_err_bound: float
