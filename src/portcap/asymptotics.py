"""Large-N behaviour of the probabilistic multi-port scheme.

With k = a*sqrt(N) teleported qubits the success probability converges to a
Gaussian second-moment integral,

    lim p_succ = 2 * integral_0^inf x^2 phi(x + a) dx
               = 2 * ((1 + a^2) Q(a) - a phi(a)),

with phi the standard normal density and Q its upper tail.  For finite N the
value is sandwiched between two computable bounds built from the same
integral (shifted by a*sqrt(N/(N+1))) plus explicit correction terms coming
from a Berry-Esseen-type normal approximation of the underlying binomial
weights.  ``psucc_largeN`` evaluates the exact qubit sum itself in log space,
so the sandwich can be checked directly against it at any N.
"""

from __future__ import annotations

import math
from collections import deque
from typing import NamedTuple

from .core import CHUNK_CELLS, ProtocolParams
from .exactmath import EXP_ZERO, exp_normal

_SQRT2 = math.sqrt(2.0)
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
_LN2 = math.log(2.0)

# Largest N psucc_largeN takes: its time grows as N, 4.5 s at 1e9 on a 2-vCPU Xeon.
PSUCC_LARGEN_MAX_N = 10**9


def normal_pdf(x: float) -> float:
    """Standard normal density."""
    return math.exp(-0.5 * x * x) / _SQRT_TWO_PI


def normal_tail(x: float) -> float:
    """Upper tail Q(x) = P(Z > x) via the complementary error function."""
    return 0.5 * math.erfc(x / _SQRT2)


def _shifted_second_moment(b: float) -> float:
    """integral_0^inf x^2 phi(x + b) dx = (1 + b^2) Q(b) - b phi(b)."""
    return (1.0 + b * b) * normal_tail(b) - b * normal_pdf(b)


def gaussian_limit(a: float) -> float:
    """Limiting success probability along k = a*sqrt(N):
    2 * integral_0^inf x^2 phi(x + a) dx, equal to 1 at a = 0 and decreasing."""
    if not 0 <= a < math.inf:
        raise ValueError(f"a must be nonnegative and finite, got {a}")
    return 2.0 * _shifted_second_moment(a)


class GaussBoundTerms(NamedTuple):
    """Correction terms of the finite-N sandwich (all nonnegative)."""

    integral: float  # shifted Gaussian second moment, in [0, 1/2]
    mid: float       # Riemann-sum middle-term correction M(N)
    head: float      # truncated head integral near 0
    tail: float      # truncated tail integral beyond the sum range
    delta: float     # accumulated normal-approximation error


def sandwich_k(N: int, a: float) -> int:
    """Teleported-system count for the sandwich: the integer nearest a*sqrt(N)
    with the parity of N (so the spin sum starts at 0).

    Ties resolve upward: the success probability decreases in k, so a larger
    k keeps the true value under the upper bound computed at a*sqrt(N).  A
    nearest k below a*sqrt(N) can put the value above that bound.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if not 0 <= a < math.inf:
        raise ValueError(f"a must be nonnegative and finite, got {a}")
    target = a * math.sqrt(N)
    parity = N % 2
    lo = math.floor(target)
    candidates = [c for c in range(lo - 1, lo + 3) if c >= 1 and c % 2 == parity]
    return min(candidates, key=lambda c: (abs(c - target), -c))


def psucc_sandwich(N: int, a: float) -> tuple[float, float, GaussBoundTerms]:
    """Computable lower/upper bounds on the qubit success probability at
    k = a*sqrt(N), a in (0, 2):

        upper = 2 (J + M)
        lower = 2 (J - M - head - tail) - delta

    where J is the Gaussian integral shifted by a*sqrt(N/(N+1)) and

        M     = 2 / (e sqrt(N+1) sqrt(2 pi))
        head  = (N+1)^(-3/2) / sqrt(2 pi)
        tail  = (sqrt(N+1)/sqrt(2 pi) + 1) exp(-(sqrt(N+1)-1)^2 / 2)
        delta = 4 N^(-3/2) + 11 sqrt(N+1) exp(-(N^(5/8)-1)^2 / (N+1)).

    The lower bound is clamped at 0 and the upper at 1.  The bounds are
    derived for even N; odd N is accepted (the exact sum is parity-safe) but
    only the even case carries the derivation's certification.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if not 0.0 < a < 2.0:
        raise ValueError(f"a must lie in (0, 2), got {a}")
    np1 = N + 1.0
    integral = _shifted_second_moment(a * math.sqrt(N / np1))
    mid = 2.0 / (math.e * math.sqrt(np1) * _SQRT_TWO_PI)
    head = np1**-1.5 / _SQRT_TWO_PI
    tail = (math.sqrt(np1) / _SQRT_TWO_PI + 1.0) * math.exp(
        -0.5 * (math.sqrt(np1) - 1.0) ** 2
    )
    delta = 4.0 * N**-1.5 + 11.0 * math.sqrt(np1) * math.exp(
        -((N**0.625 - 1.0) ** 2) / np1
    )
    upper = min(1.0, 2.0 * (integral + mid))
    lower = max(0.0, 2.0 * (integral - mid - head - tail) - delta)
    return lower, upper, GaussBoundTerms(integral, mid, head, tail, delta)


def psucc_largeN(N: int, k: int) -> float:
    """Qubit success probability evaluated in log space:

        p = 2**-N / (N+1) * sum_s (2s+1)^2 C(N+1, (N-k)/2 - s)

    Stays finite for N up to millions of ports, and raises ValueError where
    p falls below the smallest normal float.  The running sum of
    ln C(N+1, m) rounds at sizes up to (N+1) ln 2, so the relative error grows
    with N; against 40-digit references it measured 8.5e-14 at N = 200,
    7.1e-13 at N = 1e4, 3.3e-11 at N = 25600, up to 1.1e-9 near N = 1e5 and
    9.8e-9 at N = 1e6 (k near sqrt(N)).  ``performance.psucc_qubit`` gives
    the worst-case bound.

    ln C(N+1, m) is summed in chunks of ``core.CHUNK_CELLS`` values of m, and
    a chunk is dropped once its last value plus 2 ln(N-k+1) lies below the
    running value plus ``exactmath.EXP_ZERO``: ln C never decreases for
    m <= (N-k)/2, and 2 ln(2s+1) <= 2 ln(N-k+1), so each of its terms has
    exp(term - top) = 0.0 exactly.  Only the kept tail gets a log and an
    exp, and only its exps are summed.  ``np.sum`` pairs them up otherwise
    than over all (N-k)/2 + 1 terms, so the sum may differ in its last bits;
    top + log(sum), about N ln 2, has absorbed that on every pinned and
    tested case, though not by construction.  At N = 1e7, k = 3162 it keeps
    about 8e4 of 5e6 terms and takes about 0.05 s on a 2-vCPU Xeon, and
    N = 1e8 runs in about 0.5 s; N > PSUCC_LARGEN_MAX_N raises.
    """
    import numpy as np

    ProtocolParams(N, k)
    if N > PSUCC_LARGEN_MAX_N:
        raise ValueError(f"N = {N} exceeds the log-space psucc limit N <= {PSUCC_LARGEN_MAX_N}")
    m_max = (N - k) // 2
    drop_below = 2.0 * math.log(N - k + 1.0) - EXP_ZERO
    # the live chunks of ln C(N+1, m) in order of m, m = 0 on its own first
    kept = deque([np.zeros(1)])
    running = 0.0
    for lo in range(1, m_max + 1, CHUNK_CELLS):
        idx = np.arange(lo, min(lo + CHUNK_CELLS, m_max + 1), dtype=np.float64)
        chunk = np.subtract(N + 2, idx)  # C(N+1, m) / C(N+1, m-1), its log, the sum
        np.divide(chunk, idx, out=chunk)
        np.log(chunk, out=chunk)
        chunk[0] += running
        np.cumsum(chunk, out=chunk)
        running = float(chunk[-1])
        kept.append(chunk)
        while kept[0][-1] + drop_below < running:
            kept.popleft()
    ln_choose = np.concatenate(kept)
    del kept
    # 2 ln(2s+1) + ln C(N+1, m) with s rising, so m runs down the table
    start = (N - k) % 2 + 1.0
    terms = np.arange(start, start + 2.0 * ln_choose.size, 2.0)
    np.log(terms, out=terms)
    terms *= 2.0
    terms += ln_choose[::-1]
    top = float(terms.max())
    terms -= top
    np.exp(terms, out=terms)
    ln_p = (
        top
        + math.log(float(terms.sum()))
        - math.log(N + 1.0)
        - N * _LN2
    )
    return exp_normal(ln_p)
