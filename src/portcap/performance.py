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
import itertools
import math
from fractions import Fraction

from .asymptotics import psucc_largeN
from .core import EvalResult, ProtocolParams
from .exactmath import exp_normal, ln_int, logsumexp, sum_of_radical_squares
from .tableaux import add_boxes, enumerate_diagrams, ssyt_count, syt_count

# Default switch from exact rationals to the log-space float path.
EXACT_ARITH_MAX_N = 200

_LN2 = math.log(2.0)

# math.exp(x) is exactly 0.0 for every x below ln(2**-1075) = -745.13...
_EXP_ZERO = -746.0

# Grid cells per chunk of the qubit log path: bounds its working memory.
_CELL_BUDGET = 1 << 17


def resolve_arith(N: int, arith: str) -> str:
    """The arithmetic path, "exact" or "log", that ``arith`` selects at N
    qubit ports: "auto" takes exact rationals up to EXACT_ARITH_MAX_N."""
    if arith not in ("auto", "exact", "log"):
        raise ValueError(f"arith must be auto/exact/log, got {arith!r}")
    if arith == "auto":
        return "exact" if N <= EXACT_ARITH_MAX_N else "log"
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
    diagram block contains a single reachable mu).  Otherwise each block's
    square lies below its true value by a relative error under 2**-127 (see
    ``square_of_radical_sum``), so the sum does too, and the float is the
    true value rounded to nearest unless a rounding boundary lies within
    that error of it.  ``sum_of_radical_squares`` adds the blocks exactly,
    as integers over one power of two.

    The growth table of ``alpha`` depends only on its row gaps, each capped
    at k: before the t-th of k added boxes a row has gained at most t - 1 < k
    of them, so a gap of k or more never blocks a box.  ``add_boxes`` runs
    once per class of capped gaps, on the smallest diagram in the class, and
    every alpha in the class gains the same boxes row by row.
    """
    ProtocolParams(N, k, d)
    # Over d rows padded with zeros, l_i = mu_i + d - i and
    # V = prod_{i<j} (l_i - l_j) give both the Weyl form
    # m_mu = V / prod_{i<j} (j - i) and Frobenius' d_mu = N! V / prod_i l_i!,
    # so the radicand m_mu d_mu costs one pass over the rows.
    weyl_den = math.prod(math.factorial(i) for i in range(d))
    n_fact = math.factorial(N)
    # A padded diagram is coded as the base-(N+1) integer of its d rows: no
    # row exceeds N, so adding the codes of two diagrams adds them row by row.
    base = N + 1

    def code(rows):
        c = 0
        for row in rows:
            c = c * base + row
        return c * base ** (d - len(rows))

    @functools.cache  # for this call only, so a process making many calls does not grow
    def radicand(c):
        # the digits come out from the last row up, where l = row + digit index
        ell = []
        for j in range(d):
            c, row = divmod(c, base)
            ell.append(row + j)
        vandermonde, den = 1, weyl_den
        for i, li in enumerate(ell):
            den *= math.factorial(li)
            for lj in ell[i + 1 :]:
                vandermonde *= li - lj
        return n_fact * vandermonde * vandermonde // den

    # for each class of capped gaps, the (code of the boxes gained, path
    # count) of every growth; for this call only, like the radicand cache
    growth: dict[tuple[int, ...], list[tuple[int, int]]] = {}

    def terms(alpha):
        rows = alpha + (0,) * (d - len(alpha))
        gaps = tuple(min(a - b, k) for a, b in zip(rows, rows[1:]))
        table = growth.get(gaps)
        if table is None:
            smallest = [sum(gaps[i:]) for i in range(d - 1)]
            start = code(smallest)
            table = growth[gaps] = [(code(mu) - start, paths)
                                    for mu, paths in add_boxes(smallest, k, d)]
        origin = code(rows)
        return [(paths, radicand(origin + gained)) for gained, paths in table]

    total, all_exact = sum_of_radical_squares(map(terms, enumerate_diagrams(N - k, d)))
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

    The log path returns the same float, to the bit, as taking logsumexp
    over j of each term and logsumexp over s of twice that, one term at a
    time.  It builds the (N-k)/2 x (k+1) grid of terms in numpy, in chunks
    of _CELL_BUDGET cells, so its memory stays near a few tables of N/2 + k
    floats.  Terms whose exp is exactly 0.0 are left out: every term more
    than 746 below its row's top, and every row whose sum lies that far
    below the largest.  The rest still go through math.exp and math.fsum,
    so the cost is 3 numpy passes over the grid plus one exp per kept term.
    On a 2-vCPU Xeon (20000, 141) takes 0.05 s, against 1.0 s term by term,
    and (1e6, 1000) about 4 s.
    """
    ProtocolParams(N, k)
    # h(s, j) = C(k, lo) - C(k, hi): lo lies in 0..k,
    # C(k, hi) vanishes for hi > k, and lo + hi > k makes every count positive
    if resolve_arith(N, arith) == "exact":
        # C(k, m) up to the largest hi, N + 1; C(N+1, m) stepped exactly up to N/2
        choose_k = [math.comb(k, m) for m in range(N + 2)]
        choose_n = list(itertools.accumulate(
            range(N // 2), lambda c, m: c * (N + 1 - m) // (m + 1), initial=1))

        def terms(two_s):
            # with top = 2s + k, lo = u gives 2j = top - 2u, hi = top + 1 - u
            # and N/2 - j = (N - top)/2 + u, down to 2j = max(N % 2, 2s - k)
            top = two_s + k
            base = (N - top) // 2
            return [((choose_k[u] - choose_k[top + 1 - u]) * (top + 1 - 2 * u), choose_n[base + u])
                    for u in range((top - max(N % 2, two_s - k)) // 2 + 1)]

        total, all_exact = sum_of_radical_squares(map(terms, range((N - k) % 2, N - k + 1, 2)))
        value = total / (Fraction(2) ** (N + 2 * k) * (N + 1))
        return _exact_result(value, "angular-momentum", all_exact)

    ln_f = _ln_fidelity_sum(N, k) - (N + 2 * k) * _LN2 - math.log(N + 1)
    return EvalResult(exp_normal(ln_f), None, "angular-momentum", "log", rel_err_bound=1e-10)


class _FidelityGrid:
    """The terms h(s,j) + ln(2j+1) + 0.5 ln C(N+1, N/2-j) of the qubit
    fidelity's log path, one row r per 2s = s0 + 2r and one column t per
    2j = 2s - k + 2t, so that lo = k - t, hi = 2s + t + 1 and
    m = N/2 - j = m0 - r - t.  Cells with 2j < 0 hold -inf.  Every cell is
    rounded as in a per-term loop: (h + ln(2j+1)) + 0.5 ln C(N+1, m)."""

    def __init__(self, N: int, k: int) -> None:
        import numpy as np
        from numpy.lib.stride_tricks import sliding_window_view

        self.k = k
        self.s0 = (N - k) % 2
        self.rows = (N - k - self.s0) // 2 + 1
        m0 = (N + k - self.s0) // 2
        # ln C(k, m) from the exact integers up to k = 1000, beyond that from
        # lgamma (C(k, k/2) overflows a float)
        if k <= 1000:
            self.choose_k = [math.comb(k, m) for m in range(k + 1)]
            self.ln_choose_k = [ln_int(c) for c in self.choose_k]
        else:
            self.ln_choose_k = [
                math.lgamma(k + 1) - math.lgamma(m + 1) - math.lgamma(k - m + 1)
                for m in range(k + 1)
            ]
        self.h_base = np.array(self.ln_choose_k[::-1])  # h where hi > k
        # ln(2j+1) and 0.5 ln C(N+1, m) by m, padded with -inf for 2j < 0
        # and reversed, so that row r of either is the window starting at r
        pad = np.full(m0 - N // 2, -np.inf)
        ln_weight = np.fromiter(map(math.log, range(N + 1, N % 2, -2)), float, N // 2 + 1)
        half_ln_choose = 0.5 * _ln_binomial_table(N + 1, N // 2)
        self.weight = sliding_window_view(np.concatenate((ln_weight, pad))[::-1], k + 1)
        self.choose = sliding_window_view(np.concatenate((half_ln_choose, pad))[::-1], k + 1)

    def h_triangle(self, two_s: int) -> tuple[int, list[float]]:
        """First column and values of h on row 2s where hi <= k, 2j >= 0."""
        k, ln_choose_k = self.k, self.ln_choose_k
        t_min = (k - two_s + 1) // 2
        if k <= 1000:
            choose_k = self.choose_k
            return t_min, [ln_int(choose_k[k - t] - choose_k[two_s + t + 1])
                           for t in range(t_min, k - two_s)]
        return t_min, [ln_choose_k[k - t] + math.log1p(-math.exp(
            ln_choose_k[two_s + t + 1] - ln_choose_k[k - t])) for t in range(t_min, k - two_s)]

    def cells(self, r0: int, r1: int) -> np.ndarray:
        """The terms of rows r0..r1-1."""
        import numpy as np

        grid = np.empty((r1 - r0, self.k + 1))
        grid[:] = self.h_base
        # rows with 2s < k hold the only cells with hi <= k
        for r in range(r0, min(r1, (self.k - self.s0 + 1) // 2)):
            t_min, h = self.h_triangle(self.s0 + 2 * r)
            grid[r - r0, t_min : t_min + len(h)] = h
        grid += self.weight[r0:r1]
        grid += self.choose[r0:r1]
        return grid


def _ln_fidelity_sum(N: int, k: int) -> float:
    """ln sum_s (sum_j h(s,j) (2j+1) sqrt(C(N+1, N/2-j)))**2 over the rows
    of _FidelityGrid, _CELL_BUDGET cells at a time.

    math.exp is exactly 0.0 below _EXP_ZERO and fsum rounds the exact sum
    of its inputs in any order, so terms whose exp is 0.0 can be left out.
    Pass 1 finds each row's top term.  A row's inner sum lies between
    exp(top) and (k+1) exp(top), so a row with 2 (top + ln(k+1)) below
    2 max(top) + _EXP_ZERO adds exactly 0 to the outer sum; pass 2 sums
    the rest, each row's terms largest first, which keeps fsum's partial
    sums few where a row spans hundreds of binades.
    """
    import numpy as np

    grid = _FidelityGrid(N, k)
    rows = grid.rows
    step = max(1, _CELL_BUDGET // (k + 1))
    tops = np.empty(rows)
    for r0 in range(0, rows, step):
        tops[r0 : r0 + step] = grid.cells(r0, min(r0 + step, rows)).max(axis=1)
    live = 2.0 * (tops + math.log(k + 1)) >= 2.0 * float(tops.max()) + _EXP_ZERO

    outer = []
    for r0 in range(0, rows, step):
        keep = live[r0 : r0 + step]
        if keep.any():
            row_tops = tops[r0 : r0 + step][keep]
            z = np.sort(grid.cells(r0, min(r0 + step, rows))[keep], axis=1)[:, ::-1]
            z -= row_tops[:, None]
            outer += _row_blocks(z, row_tops)
    return logsumexp(outer)


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


def _row_blocks(z: np.ndarray, tops: np.ndarray) -> list[float]:
    """2 (top + ln fsum(exp(z))) for each row of z, a row of terms minus
    their top; fsum takes only the entries whose exp is not exactly 0.0."""
    keep = z >= _EXP_ZERO
    terms = memoryview(z[keep])  # yields one float at a time
    blocks, start = [], 0
    for top, end in zip(tops.tolist(), keep.sum(axis=1).cumsum().tolist()):
        blocks.append(2.0 * (top + math.log(math.fsum(map(math.exp, terms[start:end])))))
        start = end
    return blocks


def _ln_binomial_table(n: int, max_m: int) -> np.ndarray:
    """ln C(n, m) for m = 0..max_m via the ratio recurrence, summed in order
    of m."""
    import numpy as np

    table = np.zeros(max_m + 1)
    up = np.fromiter(map(math.log, range(n, n - max_m, -1)), float, max_m)
    down = np.fromiter(map(math.log, range(1, max_m + 1)), float, max_m)
    np.cumsum(up - down, out=table[1:])
    return table
