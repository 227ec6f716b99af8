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

import itertools
import math
from fractions import Fraction

from .asymptotics import psucc_largeN
from .core import CHUNK_CELLS, EvalResult, ProtocolParams
from .exactmath import EXP_ZERO, exp_normal, ln_int, logsumexp, sum_of_radical_squares
from .tableaux import add_boxes, enumerate_diagrams, isotypic_dimensions

# Default switch from exact rationals to the log-space float path.
EXACT_ARITH_MAX_N = 200
# Largest N of the qubit fidelity's log path: its tables take about 22 bytes
# per port, and its a-priori error bound reaches 1.1e-2 here and 1 near 1e8.
FIDELITY_LOG_MAX_N = 10**7

_LN2 = math.log(2.0)
# The qubit log fidelity leaves out rows whose block bound lies this many
# nats below twice the best row top, and certifies that they move no bit.
_ROW_CUT = -80.0


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

    ``add_boxes`` runs once per class of alpha with the same row gaps capped
    at k (see ``tableaux``), and one ``isotypic_dimensions`` walk over the mu
    of N boxes gives every radicand m_mu d_mu.
    """
    ProtocolParams(N, k, d)
    # A padded diagram is coded as the base-(N+1) integer of its d rows: no
    # row exceeds N, so adding the codes of two diagrams adds them row by row.
    base = N + 1

    def code(rows):
        c = 0
        for row in rows:
            c = c * base + row
        return c * base ** (d - len(rows))

    # radicands by code, and per class of capped gaps the (code of the boxes
    # gained, path count) of each growth; both for this call only
    radicand = {code(mu): dim for mu, dim in isotypic_dimensions(N, d)}
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
        return [(paths, radicand[origin + gained]) for gained, paths in table]

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
    is the minimum.  The m_alpha d_alpha come from one ``isotypic_dimensions``
    walk, summed per first row.
    """
    ProtocolParams(N, k, d)
    # Blocks sharing alpha_1 share the rising product, and each rising
    # product divides D = prod_{t<N} (d + t) since alpha_1 <= N - k: sum the
    # integer numerators over D.
    weight: dict[int, int] = {}
    for alpha, dim in isotypic_dimensions(N - k, d):
        a = alpha[0] if alpha else 0
        weight[a] = weight.get(a, 0) + dim
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
    falls below the smallest normal float.  The log path's ``rel_err_bound``
    is the a-priori (N+128)(N+2k+64) 2**-53, led by the cumulative sum in
    ``_ln_binomial_table``; at (200000, 447) the error is 1.7e-9 against a
    bound of 4.5e-6.  It refuses N above FIDELITY_LOG_MAX_N = 1e7.

    The log path returns the same float, to the bit, as taking logsumexp
    over j of each term and logsumexp over s of twice that, one term at a
    time.  It builds the (N-k)/2 x (k+1) grid of terms in numpy, one chunk
    of ``core.CHUNK_CELLS`` cells at a time, so its memory stays near a few
    tables of N/2 + k floats, and it stops where an a-priori bound on every
    later row falls 80 nats below the best row.  Terms whose exp is exactly
    0.0 are left out, and so is every row whose sum lies 80 nats below the
    best row so far.  logsumexp certifies in each call that the left-out
    rows cannot move the result's bits; where it cannot, the sum is rerun
    leaving out only rows whose exps are all exactly 0.0 (see
    ``_ln_fidelity_sum``).  The kept terms go through math.exp and
    math.fsum, so the cost is one numpy pass over the rows near the best,
    a sort of the kept rows, and one exp per kept term.  On a 2-vCPU Xeon
    (20000, 141) takes 0.02 s, against 4.9 s term by term, and (1e6, 1000)
    about 1.2 s.
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

    # _ln_binomial_table sums ln C(N+1, m), up to (N+1) ln 2 in size, over at
    # most N/2 rounded additions of terms each within 5 ln(N+1) 2**-53 of
    # exact, so each ln C is off by at most (N/2)((N+1) ln 2 + 5 ln(N+1))
    # 2**-53; every term of F carries C(N+1, m) to the power 1/2 inside a
    # square, so F is off by that much relative.  The other roundings, of
    # values up to (N+2k) ln 2 in size and of exponents down to EXP_ZERO, add
    # under 6 (N+2k) ln 2 + 4000 units of 2**-53: at worst
    # (N+128)(N+2k+64) 2**-53 in all.  Measured errors stay below a
    # hundredth of it (2.1e-12 at (2100, 1001), 1.75e-9 at (200000, 447)).
    if N > FIDELITY_LOG_MAX_N:
        raise ValueError(f"N = {N} exceeds the log-space fidelity limit N <= {FIDELITY_LOG_MAX_N}")
    bound = (N + 128) * (N + 2 * k + 64) * 2.0**-53
    ln_f = _ln_fidelity_sum(N, k) - (N + 2 * k) * _LN2 - math.log(N + 1)
    return EvalResult(exp_normal(ln_f), None, "angular-momentum", "log", bound)


def _ln_fidelity_sum(N: int, k: int, certify: bool = True) -> float:
    """ln sum_s (sum_j h(s,j) (2j+1) sqrt(C(N+1, N/2-j)))**2 in one pass
    over the grid of terms h(s,j) + ln(2j+1) + 0.5 ln C(N+1, m), CHUNK_CELLS
    cells at a time: one row r per 2s = s0 + 2r and one column t per
    2j = 2s - k + 2t, so that lo = k - t, hi = 2s + t + 1 and
    m = N/2 - j = m0 - r - t.  Cells with 2j < 0 hold -inf.  Every cell is
    rounded as in a per-term loop, (h + ln(2j+1)) + 0.5 ln C(N+1, m), and
    each row's top and fsum are its own, so the chunking moves no bit.

    A row's block 2 (top + ln fsum) is at most its bound 2 (top + ln(k+1)),
    and logsumexp's top is at least 2 best, best the largest row top.  Rows
    whose bound lies below 2 best + cut are left out; each chunk's rows
    are cut against the best so far, which never exceeds the final one.
    Before a chunk is built, every row from it on has its top bounded by
    max ln C(k, m) + ln(N+1) plus the largest 0.5 ln C(N+1, m) of the
    chunk's first window, since ln C(N+1, m) rises with m up to N/2 and the
    windows slide to smaller m as r grows; once that bound falls below the
    cut, the loop stops and the rest of the rows are left out too.

    With ``certify``, the cut is _ROW_CUT = -80 nats and the left-out rows
    are certified: each adds at most e**-80 relative to the largest block, and
    their count times the largest left-out bound goes to logsumexp as its
    slack, under 2**-90 of the sum even at N = 1e7.  logsumexp returns the
    float of the sum over every row unless that slack could move fsum's
    rounding; then the sum is rerun, once, without ``certify``, at the cut
    ``exactmath.EXP_ZERO``.  math.exp is exactly 0.0 below it, with 0.87
    nats to spare for the rounding of the bounds, and fsum rounds the exact
    sum of its inputs in any order, so the rows the rerun leaves out add
    exactly nothing and need no certificate.  Each kept row is summed
    largest term first, which keeps fsum's partial sums few where a row
    spans hundreds of binades.
    """
    import numpy as np
    from numpy.lib.stride_tricks import sliding_window_view

    cut = _ROW_CUT if certify else EXP_ZERO
    s0 = (N - k) % 2
    rows = (N - k - s0) // 2 + 1
    m0 = (N + k - s0) // 2
    # ln C(k, m) from the exact integers up to k = 1000, beyond that from
    # lgamma (C(k, k/2) overflows a float)
    if k <= 1000:
        choose_k = [math.comb(k, m) for m in range(k + 1)]
        ln_choose_k = [ln_int(c) for c in choose_k]
    else:
        ln_choose_k = [math.lgamma(k + 1) - math.lgamma(m + 1) - math.lgamma(k - m + 1)
                       for m in range(k + 1)]
    h_base = np.array(ln_choose_k[::-1])  # h where hi > k
    # ln(2j+1) and 0.5 ln C(N+1, m) by m, padded with -inf for 2j < 0
    # and reversed, so that row r of either is the window starting at r;
    # the unpadded columns are freed as soon as their windows are built
    pad = np.full(m0 - N // 2, -np.inf)

    def windows(by_m):
        return sliding_window_view(np.concatenate((by_m, pad))[::-1], k + 1)

    weight = windows(np.fromiter(map(math.log, range(N + 1, N % 2, -2)), float, N // 2 + 1))
    choose = windows(0.5 * _ln_binomial_table(N + 1, N // 2))
    # every h is at most the largest ln C(k, m) and every ln(2j+1) at most
    # ln(N+1), the first weight, give or take the rounding of ln_int
    ln_k1, h_w_max = math.log(k + 1), max(ln_choose_k) + math.log(N + 1)

    step = max(1, CHUNK_CELLS // (k + 1))
    best, outer = -math.inf, []
    left_out, left_top = 0, -math.inf  # rows left out, their largest bound
    for r0 in range(0, rows, step):
        ahead = 2.0 * (h_w_max + float(choose[r0].max()) + ln_k1)
        if ahead < 2.0 * best + cut:
            left_out, left_top = left_out + rows - r0, max(left_top, ahead)
            break
        r1 = min(r0 + step, rows)
        grid = np.empty((r1 - r0, k + 1))
        grid[:] = h_base
        # rows with 2s < k hold the only cells with hi <= k: there h is the
        # difference of two path counts, from column t_min on (2j >= 0)
        for r in range(r0, min(r1, (k - s0 + 1) // 2)):
            two_s = s0 + 2 * r
            t_min = (k - two_s + 1) // 2
            if k <= 1000:
                h = [ln_int(choose_k[k - t] - choose_k[two_s + t + 1])
                     for t in range(t_min, k - two_s)]
            else:
                h = [ln_choose_k[k - t] + math.log1p(-math.exp(
                    ln_choose_k[two_s + t + 1] - ln_choose_k[k - t]))
                    for t in range(t_min, k - two_s)]
            grid[r - r0, t_min : k - two_s] = h
        grid += weight[r0:r1]
        grid += choose[r0:r1]
        tops = grid.max(axis=1)
        best = max(best, float(tops.max()))
        bounds = 2.0 * (tops + ln_k1)
        keep = bounds >= 2.0 * best + cut
        if not keep.all():
            left_out += int((~keep).sum())
            left_top = max(left_top, float(bounds[~keep].max()))
        if keep.any():
            grid = grid[keep]  # frees the chunk's cut rows before the sort
            grid.sort(axis=1)
            grid -= tops[keep][:, None]
            outer += _row_blocks(grid[:, ::-1], tops[keep])
    if not (certify and left_out):
        return logsumexp(outer)
    # a left-out block exceeds its bound by at most a few roundings of
    # values under 1e8, so twice the count times the largest bound covers
    # the exps of all of them
    total = logsumexp(outer, left_top + math.log(2 * left_out))
    return _ln_fidelity_sum(N, k, certify=False) if total is None else total


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
    keep = z >= EXP_ZERO
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
