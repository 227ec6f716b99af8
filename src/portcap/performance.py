"""Exact performance of non-optimal multi-port teleportation.

Entanglement fidelity and success probability come in two equivalent forms:

* the general-dimension Schur-Weyl sums over Young diagrams ``alpha`` of the
  N-k port systems and the diagrams ``mu`` reachable by adding k boxes,

      F = d**-(N+2k) * sum_alpha ( sum_mu m_{mu/alpha} * sqrt(m_mu d_mu) )**2
      p = d**-N      * sum_alpha m_alpha**2 * min_mu (d_mu / m_mu)
        = d**-N * N!/(N-k)! * sum_alpha m_alpha d_alpha / prod_{t<k} (d + alpha_1 + t)

  where the second form of p follows from the hook-content formula
  d_mu / m_mu = N! / prod_{box in mu} (d + c(box)), c the box's content
  (column minus row): the minimum over mu is reached by adding all k boxes
  to the first row of alpha;

* and, for qubits, closed angular-momentum forms where a two-row diagram with
  row difference 2j is the spin-j sector and the spin-coupling count
  C(k, s - j + k/2) - C(k, s + j + k/2 + 1) plays the role of m_{mu/alpha}.

Two easy-to-misplace normalization factors in the qubit forms matter: the
fidelity carries 1/(N+1) outside the squared sum (only sqrt(N+1) goes
inside, since N!/((N/2-j)!(N/2+j+1)!) = C(N+1, N/2-j)/(N+1)), and the
success probability carries a (2s+1)**2 weight.  Both are certified by the
test suite through exact agreement with the general-d sums.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .asymptotics import psucc_largeN
from .core import EvalResult, ProtocolParams
from .exactmath import exp_normal, ln_int, logsumexp, square_of_radical_sum
from .tableaux import add_boxes, enumerate_diagrams, ssyt_count, syt_count

# Default switch from exact rationals to the log-space float path.
EXACT_ARITH_MAX_N = 200

_LN2 = math.log(2.0)


def resolve_arith(N: int, arith: str, d: int = 2) -> str:
    """The arithmetic path, "exact" or "log", that ``arith`` selects at N
    ports of dimension d.  The log path exists for qubits only: "auto" takes
    exact rationals up to EXACT_ARITH_MAX_N and at every d != 2, and "log"
    at d != 2 raises."""
    if arith not in ("auto", "exact", "log"):
        raise ValueError(f"arith must be auto/exact/log, got {arith!r}")
    if arith == "auto":
        return "exact" if N <= EXACT_ARITH_MAX_N or d != 2 else "log"
    if arith == "log" and d != 2:
        raise ValueError(f"log-space arithmetic requires d=2, got d={d}")
    return arith


def _exact_result(value: Fraction, method: str, is_rational: bool = True) -> EvalResult:
    """An exact-path result; ``exact`` is withheld where the sum had to
    approximate an irrational square root."""
    return EvalResult(float(value), value if is_rational else None, method, "exact", 2.0**-52)


def fidelity_exact(N: int, k: int, d: int = 2) -> EvalResult:
    """Entanglement fidelity of teleporting k qudits through N ports with the
    square-root measurement, as the Schur-Weyl diagram sum.

    The result is a reduced rational whenever every cross term
    sqrt(m_mu d_mu m_mu' d_mu') is a perfect square (always true when each
    diagram block contains a single reachable mu); otherwise the float carries
    a certified relative error below 1e-15.
    """
    ProtocolParams(N, k, d)
    # Over d rows padded with zeros, l_i = mu_i + d - i and
    # V = prod_{i<j} (l_i - l_j) give both the Weyl form
    # m_mu = V / prod_{i<j} (j - i) and Frobenius' d_mu = N! V / prod_i l_i!,
    # so the radicand m_mu d_mu costs one pass over the rows.
    weyl_den = math.prod(math.factorial(i) for i in range(d))
    n_fact = math.factorial(N)

    @functools.cache  # for this call only, so a process making many calls does not grow
    def radicand(mu):
        ell = [row + d - i for i, row in enumerate(mu, 1)]
        ell += range(d - len(mu) - 1, -1, -1)
        vandermonde, den = 1, weyl_den
        for i, li in enumerate(ell):
            den *= math.factorial(li)
            for lj in ell[i + 1 :]:
                vandermonde *= li - lj
        return n_fact * vandermonde * vandermonde // den

    total = Fraction(0)
    all_exact = True
    for alpha in enumerate_diagrams(N - k, d):
        terms = [(paths, radicand(mu)) for mu, paths in add_boxes(alpha, k, d)]
        block, ok = square_of_radical_sum(terms)
        total += block
        all_exact = all_exact and ok
    return _exact_result(total / Fraction(d) ** (N + 2 * k), "schur-weyl-sum", all_exact)


def psucc_exact(N: int, k: int, d: int = 2) -> EvalResult:
    """Averaged success probability of the probabilistic scheme (maximally
    entangled resource, optimal failure branch), as an exact rational:

        d**-N * sum_alpha m_alpha**2 * min_{mu in alpha} d_mu / m_mu
          = d**-N * N!/(N-k)! * sum_alpha m_alpha d_alpha / prod_{t<k} (d + alpha_1 + t)

    By the hook-content formula (Stanley, Enumerative Combinatorics 2,
    Cor. 7.21.4), d_mu / m_mu = N! / prod_{box in mu} (d + c(box)), where
    every factor is positive since mu has at most d rows.  The t-th largest
    content among k boxes added to alpha is at most alpha_1 + k - t, and
    adding all k to the first row attains that bound for every t, so that mu
    is the minimum.
    """
    ProtocolParams(N, k, d)
    # Blocks sharing alpha_1 share the rising product, and each rising
    # product divides D = prod_{t<N} (d + t) since alpha_1 <= N - k: sum the
    # integer numerators over D.
    weight: dict[int, int] = {}
    for alpha in enumerate_diagrams(N - k, d):
        a = alpha[0] if alpha else 0
        weight[a] = weight.get(a, 0) + ssyt_count(alpha, d) * syt_count(alpha)
    full = math.prod(range(d, d + N))
    num = sum(w * (full // math.prod(range(d + a, d + a + k))) for a, w in weight.items())
    return _exact_result(Fraction(num * math.perm(N, k), d**N * full), "schur-weyl-sum")


def _two_s_range(N: int, k: int) -> range:
    return range((N - k) % 2, N - k + 1, 2)


def _two_j_range(N: int, two_s: int, k: int) -> range:
    return range(max(N % 2, two_s - k), two_s + k + 1, 2)


def fidelity_qubit(N: int, k: int, arith: str = "auto") -> EvalResult:
    """Qubit entanglement fidelity in the angular-momentum form:

        F = 2**-(N+2k) / (N+1) *
            sum_s ( sum_j h(s,j) * (2j+1) * sqrt(C(N+1, N/2-j)) )**2

    with s over the spins of N-k qubits, j over the spins reachable by
    coupling k more, and h(s,j) = C(k, s-j+k/2) - C(k, s+j+k/2+1) the number
    of ways that coupling reaches j (zero out of range).  Agrees with
    ``fidelity_exact(N, k, 2)`` to full float precision; ``arith`` selects
    the exact-rational path ("exact", default for N <= 200) or the
    overflow-safe log-space path ("log"), which raises ValueError where F
    falls below the smallest normal float.
    """
    ProtocolParams(N, k)
    # h(s, j) = C(k, lo) - C(k, hi): lo lies in 0..k,
    # C(k, hi) vanishes for hi > k, and lo + hi > k makes every count positive
    if resolve_arith(N, arith) == "exact":
        choose_k = [math.comb(k, m) for m in range(k + 1)]
        choose_n = [math.comb(N + 1, m) for m in range(N // 2 + 1)]
        total = Fraction(0)
        all_exact = True
        for two_s in _two_s_range(N, k):
            terms = []
            for two_j in _two_j_range(N, two_s, k):
                lo = (two_s - two_j + k) // 2
                hi = (two_s + two_j + k) // 2 + 1
                h = choose_k[lo] - choose_k[hi] if hi <= k else choose_k[lo]
                terms.append((h * (two_j + 1), choose_n[(N - two_j) // 2]))
            block, ok = square_of_radical_sum(terms)
            total += block
            all_exact = all_exact and ok
        value = total / (Fraction(2) ** (N + 2 * k) * (N + 1))
        return _exact_result(value, "angular-momentum", all_exact)

    # ln C(k, m) from the exact integers up to k = 1000, beyond that from
    # lgamma (C(k, k/2) overflows a float); ln(2j+1) and ln C(N+1, m) indexed
    # by m = N/2 - j
    if k <= 1000:
        choose_k = [math.comb(k, m) for m in range(k + 1)]
        ln_choose_k = [ln_int(c) for c in choose_k]
    else:
        ln_choose_k = [
            math.lgamma(k + 1) - math.lgamma(m + 1) - math.lgamma(k - m + 1)
            for m in range(k + 1)
        ]
    ln_weight = [math.log(N - 2 * m + 1) for m in range(N // 2 + 1)]
    ln_choose = _ln_binomial_table(N + 1, N // 2)
    outer = []
    for two_s in _two_s_range(N, k):
        inner = []
        for two_j in _two_j_range(N, two_s, k):
            lo = (two_s - two_j + k) // 2
            hi = (two_s + two_j + k) // 2 + 1
            h = ln_choose_k[lo]
            if hi <= k:
                if k <= 1000:
                    h = ln_int(choose_k[lo] - choose_k[hi])
                else:
                    h += math.log1p(-math.exp(ln_choose_k[hi] - h))
            m = (N - two_j) // 2
            inner.append(h + ln_weight[m] + 0.5 * ln_choose[m])
        outer.append(2.0 * logsumexp(inner))
    ln_f = logsumexp(outer) - (N + 2 * k) * _LN2 - math.log(N + 1)
    return EvalResult(exp_normal(ln_f), None, "angular-momentum", "log", rel_err_bound=1e-10)


def psucc_qubit(N: int, k: int, arith: str = "auto") -> EvalResult:
    """Qubit success probability in the angular-momentum form:

        p = 2**-N / (N+1) * sum_s (2s+1)**2 * C(N+1, (N-k)/2 - s)

    Equal to ``psucc_exact(N, k, 2)`` on the exact path ("exact", default for
    N <= 200); the "log" path is ``asymptotics.psucc_largeN``.
    """
    ProtocolParams(N, k)
    if resolve_arith(N, arith) == "log":
        # psucc_largeN sums ln C(N+1, m), up to (N+1) ln 2 in size, over at
        # most (N-k)/2 rounded additions, plus a few more steps of that size:
        # at worst a relative error of (N-k+16)(N+1) 2**-52.  Measured errors
        # stay below a thousandth of it (7.5e-10 at N = 75561, k = 348).
        bound = (N - k + 16) * (N + 1) * 2.0**-52
        return EvalResult(psucc_largeN(N, k), None, "angular-momentum", "log", bound)
    # m = (N-k)/2 - s counts up from 0 as s falls, so C(N+1, m) steps exactly
    total, choose = 0, 1
    for m in range((N - k) // 2 + 1):
        total += (N - k - 2 * m + 1) ** 2 * choose
        choose = choose * (N + 1 - m) // (m + 1)
    return _exact_result(Fraction(total, 2**N * (N + 1)), "angular-momentum")


def _ln_binomial_table(n: int, max_m: int) -> list[float]:
    """ln C(n, m) for m = 0..max_m via the ratio recurrence."""
    table = [0.0] * (max_m + 1)
    acc = 0.0
    for m in range(1, max_m + 1):
        acc += math.log(n - m + 1) - math.log(m)
        table[m] = acc
    return table
