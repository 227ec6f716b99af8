import bisect
import functools
import gc
import math
import random
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from conftest import fraction_square_of_radical_sum, syt_count_hook
from portcap import tableaux
from portcap import performance
from portcap.core import CHUNK_CELLS
from portcap.exactmath import EXP_ZERO, ln_int, logsumexp
from portcap.performance import (
    _exact_result,
    _ln_binomial_table,
    fidelity_exact,
    fidelity_qubit,
    psucc_exact,
    psucc_qubit,
    resolve_arith,
)
from portcap.tableaux import add_boxes, enumerate_diagrams, ssyt_count, syt_count


def spin_path_count(two_s, two_j, k):
    """Number of ways to couple k further spin-1/2 systems so that total spin
    s (of N-k systems) becomes total spin j (of N systems):

        C(k, s - j + k/2) - C(k, s + j + k/2 + 1)

    Spins are passed doubled (two_s = 2s), so all parity logic stays integer.
    Out-of-range binomials vanish, making the count total.
    """
    if two_s < 0 or two_j < 0:
        raise ValueError("doubled spins must be nonnegative")
    if (two_s + two_j + k) % 2:
        raise ValueError(
            f"parity mismatch: 2s={two_s}, 2j={two_j} unreachable with k={k} added spins"
        )
    lo = (two_s - two_j + k) // 2
    hi = (two_s + two_j + k) // 2 + 1
    # math.comb(k, hi) is already 0 for hi > k; only lo can fall below 0
    return (math.comb(k, lo) if lo >= 0 else 0) - math.comb(k, hi)


def reference_psucc_exact(N, k, d):
    """psucc_exact as the literal Schur-Weyl sum: for each alpha, the minimum
    of d_mu / m_mu over every diagram mu that add_boxes reaches, with d_mu by
    the hook-length formula (each mu's ratio formed once per call)."""

    @functools.cache
    def ratio(mu):
        return Fraction(syt_count_hook(mu), ssyt_count(mu, d))

    total = Fraction(0)
    for alpha in enumerate_diagrams(N - k, d):
        m_alpha = ssyt_count(alpha, d)
        total += m_alpha * m_alpha * min(ratio(mu) for mu, _ in add_boxes(alpha, k, d))
    return _exact_result(total / Fraction(d) ** N, "schur-weyl-sum")


def per_alpha_psucc_exact(N, k, d):
    """psucc_exact's closed form with each m_alpha d_alpha counted afresh as
    ssyt_count * syt_count, rather than stepped along isotypic_dimensions."""
    weight = {}
    for alpha in enumerate_diagrams(N - k, d):
        a = alpha[0] if alpha else 0
        weight[a] = weight.get(a, 0) + ssyt_count(alpha, d) * syt_count(alpha)
    full = math.prod(range(d, d + N))
    num = sum(w * (full // math.prod(range(d + a, d + a + k))) for a, w in weight.items())
    return _exact_result(Fraction(num * math.perm(N, k), d**N * full), "schur-weyl-sum")


def reference_fidelity_exact(N, k, d):
    """fidelity_exact with add_boxes run on every alpha rather than once per
    gap class, the radicand m_mu d_mu taken from the Weyl dimension and the
    hook-length formula, and the blocks added as a running Fraction."""
    total = Fraction(0)
    all_exact = True
    for alpha in enumerate_diagrams(N - k, d):
        terms = [(paths, ssyt_count(mu, d) * syt_count_hook(mu))
                 for mu, paths in add_boxes(alpha, k, d)]
        block, ok = fraction_square_of_radical_sum(terms)
        total += block
        all_exact = all_exact and ok
    return _exact_result(total / Fraction(d) ** (N + 2 * k), "schur-weyl-sum", all_exact)


def small_grid():
    """Every (N, k, d) with d = 2..5, N <= 14 at d <= 3 and N <= 10 above."""
    for d in range(2, 6):
        for N in range(1, (14 if d <= 3 else 10) + 1):
            for k in range(1, N + 1):
                yield N, k, d


# the (N, k, d) of the benchmark's qudit-exact invocations
QUDIT_EXACT_POINTS = [(80, 4, 3), (40, 8, 3), (24, 4, 4), (30, 6, 4)]


@functools.cache
def reference_fidelity_log(N, k):
    """fidelity_qubit's log branch as a per-term loop: the path count and its
    log (lgamma beyond k = 1000) recomputed for every (s, j) term.  Cached,
    since several tests compare against the same slow points."""

    def ln_choose(n, m):
        if 0 <= m <= n:
            return math.lgamma(n + 1) - math.lgamma(m + 1) - math.lgamma(n - m + 1)
        return -math.inf

    def ln_paths(two_s, two_j):
        if k <= 1000:
            h = spin_path_count(two_s, two_j, k)
            return ln_int(h) if h > 0 else -math.inf
        lo = (two_s - two_j + k) // 2
        hi = (two_s + two_j + k) // 2 + 1
        if lo < 0 or lo > k:
            return -math.inf
        a = ln_choose(k, lo)
        if hi > k:
            return a
        return a + math.log1p(-math.exp(ln_choose(k, hi) - a))

    ln_table = _ln_binomial_table(N + 1, N // 2)
    outer = []
    for two_s in range((N - k) % 2, N - k + 1, 2):
        inner = []
        for two_j in range(max(N % 2, two_s - k), two_s + k + 1, 2):
            h = ln_paths(two_s, two_j)
            if h == -math.inf:
                continue
            inner.append(h + math.log(two_j + 1) + 0.5 * ln_table[(N - two_j) // 2])
        if inner:
            outer.append(2.0 * logsumexp(inner))
    return math.exp(logsumexp(outer) - (N + 2 * k) * math.log(2.0) - math.log(N + 1))


def reference_row_tops(N, k):
    """The largest term h(s,j) + ln(2j+1) + 0.5 ln C(N+1, N/2-j) of each spin
    row of the log path, one row at a time, indexed by m = (N - 2j)/2
    directly: h from the exact path counts up to k = 1000, from lgamma and
    log1p beyond."""
    half = 0.5 * _ln_binomial_table(N + 1, N // 2)
    if k <= 1000:
        choose = [math.comb(k, m) for m in range(k + 1)]
        ln_choose = np.array([ln_int(c) for c in choose])
    else:
        ln_choose = np.array([math.lgamma(k + 1) - math.lgamma(m + 1) - math.lgamma(k - m + 1)
                              for m in range(k + 1)])
    tops = []
    for two_s in range((N - k) % 2, N - k + 1, 2):
        two_j = np.arange(max(N % 2, two_s - k), two_s + k + 1, 2)
        lo = (two_s - two_j + k) // 2
        hi = (two_s + two_j + k) // 2 + 1
        h = ln_choose[lo]
        low = hi <= k  # there h is the difference of two path counts
        if low.any():
            if k <= 1000:
                h[low] = [ln_int(choose[a] - choose[b]) for a, b in zip(lo[low], hi[low])]
            else:
                h[low] += np.log1p(-np.exp(ln_choose[hi[low]] - ln_choose[lo[low]]))
        tops.append(float((h + np.log(two_j + 1.0) + half[(N - two_j) // 2]).max()))
    return np.array(tops)


def reference_ln_binomial_table(n, max_m, every=2000):
    """ln C(n, m) for m = 0..max_m: ``ln_int`` of the exact C(n, a) at every
    2000th m, and in between the increments ln(C(n, m+1)/C(n, m)) =
    log1p((n-2m-1)/(m+1)) summed from 0 before they are added to their
    checkpoint, so no partial sum runs over more than 2000 increments.  Each
    checkpoint's integer is the last one times its 2000 ratios, whose
    numerators and denominators are multiplied out first."""
    import numpy as np

    table = np.empty(max_m + 1)
    choose = 1
    for a in range(0, max_m + 1, every):
        b = min(a + every, max_m + 1)
        m = np.arange(a, b - 1)
        table[a] = ln_int(choose)
        table[a + 1 : b] = table[a] + np.cumsum(np.log1p((n - 2 * m - 1) / (m + 1)))
        choose = choose * math.prod(range(n - b + 1, n - a + 1)) // math.prod(range(a + 1, b + 1))
    return table


class TestSpinPathCount:
    def test_single_added_spin(self):
        # one added spin-1/2 on s=0 can only reach j=1/2, one way
        assert spin_path_count(0, 1, 1) == 1

    def test_top_sector_is_always_reachable_once(self):
        # stretching to j = s + k/2 happens exactly one way, for any s
        for k in range(1, 9):
            for two_s in range(0, 7):
                assert spin_path_count(two_s, two_s + k, k) == 1

    def test_vanishes_beyond_reach(self):
        assert spin_path_count(2, 7, 3) == 0  # j > s + k/2
        assert spin_path_count(0, 6, 2) == 0

    def test_parity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            spin_path_count(0, 0, 1)

    def test_equals_two_row_growth_paths(self):
        # spin labels are two-row diagrams: alpha of N-k boxes at 2s = a1 - a2,
        # mu of N boxes at 2j = m1 - m2; the closed form counts add_boxes'
        # growth paths on every pair with |mu| <= 14, and non-nested pairs
        # have none
        for size in range(14):
            for alpha in enumerate_diagrams(size, 2):
                a1, a2 = (alpha + (0, 0))[:2]
                for k in range(1, 15 - size):
                    reached = dict(add_boxes(alpha, k, 2))
                    for mu in enumerate_diagrams(size + k, 2):
                        m1, m2 = (mu + (0, 0))[:2]
                        h = spin_path_count(a1 - a2, m1 - m2, k)
                        assert h == reached.get(mu, 0), (alpha, mu)
                        assert (h > 0) == (m1 >= a1 and m2 >= a2), (alpha, mu)


class TestFidelityExact:
    def test_single_port_single_system(self):
        res = fidelity_exact(1, 1, 2)
        assert res.exact == Fraction(1, 4)

    def test_single_port_qutrit(self):
        assert fidelity_exact(1, 1, 3).exact == Fraction(1, 9)

    def test_two_ports_matches_closed_qubit_value(self):
        # F(2,1,2) = (1 + sqrt(3))^2 / 16, irrational: exact field degrades
        res = fidelity_exact(2, 1, 2)
        assert res.exact is None
        assert math.isclose(res.value, (1 + math.sqrt(3)) ** 2 / 16, rel_tol=1e-14)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            fidelity_exact(2, 3, 2)
        with pytest.raises(ValueError):
            fidelity_exact(2, 1, 1)

    def test_in_unit_interval_and_monotone_in_ports(self):
        prev = {2: 0.0, 3: 0.0}
        for N in range(1, 13):
            for d in (2, 3):
                val = fidelity_exact(N, 1, d).value
                assert 0.0 < val <= 1.0
                assert val >= prev[d] - 1e-12
                prev[d] = val


class TestAgainstReferenceSums:
    """The closed and one-pass forms against the sums they replace: the same
    float, the same reduced Fraction and the same exact flag."""

    def test_psucc_on_small_grid(self):
        for N, k, d in small_grid():
            assert psucc_exact(N, k, d) == reference_psucc_exact(N, k, d), (N, k, d)

    def test_fidelity_on_small_grid(self):
        for N, k, d in small_grid():
            assert fidelity_exact(N, k, d) == reference_fidelity_exact(N, k, d), (N, k, d)

    @pytest.mark.parametrize("N,k,d", QUDIT_EXACT_POINTS)
    def test_qudit_exact_points(self, N, k, d):
        assert psucc_exact(N, k, d) == reference_psucc_exact(N, k, d)
        assert fidelity_exact(N, k, d) == reference_fidelity_exact(N, k, d)

    # most row gaps of (60, 3, 3) exceed k, and (14, 3, 6) has gap vectors
    # longer than small_grid's
    @pytest.mark.parametrize("N,k,d", [(60, 3, 3), (14, 3, 6)])
    def test_fidelity_beyond_small_grid(self, N, k, d):
        assert fidelity_exact(N, k, d) == reference_fidelity_exact(N, k, d)

    def test_fidelity_keeps_no_table_between_calls(self):
        # the growth and radicand tables live for one call only
        fidelity_exact(*QUDIT_EXACT_POINTS[0])
        gc.collect()
        tracemalloc.start()
        try:
            for point in QUDIT_EXACT_POINTS:
                fidelity_exact(*point)
            gc.collect()
            left = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert left < 4096

    @pytest.mark.parametrize("N", [100, 201])
    def test_psucc_single_qutrit_at_large_n(self, N):
        assert psucc_exact(N, 1, 3) == reference_psucc_exact(N, 1, 3)

    # long first-row runs at d = 3, runs of several rows at d = 4..6
    @pytest.mark.parametrize("N,k,d", [(300, 1, 3), (101, 4, 3), (30, 6, 4), (20, 3, 5),
                                       (60, 2, 6)])
    def test_psucc_walk_against_both_references(self, N, k, d):
        result = psucc_exact(N, k, d)
        assert result == reference_psucc_exact(N, k, d)
        assert result == per_alpha_psucc_exact(N, k, d)


def count_calls(monkeypatch, module, name):
    """Count calls of ``module.name`` through every portcap module that binds
    it; the returned list's length is the count so far."""
    original = getattr(module, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    for mod in [m for key, m in sys.modules.items() if key.split(".")[0] == "portcap"]:
        for attr, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, attr, counted)
    return calls


class TestWalkCost:
    """Deterministic counts of the work isotypic_dimensions saves: m d is
    counted outright at most once per first row, not once per diagram."""

    def test_psucc_counts_at_most_once_per_first_row(self, monkeypatch):
        calls = count_calls(monkeypatch, tableaux, "syt_count")
        # 57222 diagrams of 197 boxes in at most 4 rows, with first rows 50..197
        psucc_exact(200, 3, 4)
        assert 1 <= len(calls) <= 198

    def test_fidelity_counts_at_most_once_per_first_row(self, monkeypatch):
        calls = count_calls(monkeypatch, tableaux, "syt_count")
        # 574 radicands, one per diagram of 80 boxes in at most 3 rows
        fidelity_exact(80, 4, 3)
        assert 1 <= len(calls) <= 81


def mpmath_rounded(x):
    """The double nearest an mpf: its binary mantissa and exponent as an
    exact Fraction, which float() rounds to nearest."""
    man, exp = x.man_exp
    return float(Fraction(man) * Fraction(2) ** exp)


class TestCorrectRounding:
    """Exact-path floats against 60-digit mpmath sums with their own square
    roots: the float is the true value rounded to the nearest double."""

    def test_fidelity_exact_on_small_grid(self):
        mpmath = pytest.importorskip("mpmath")
        points = random.Random(20201).sample(list(small_grid()), 40)
        with mpmath.workdps(60):
            for N, k, d in points:
                ref = mpmath.mpf(0)
                for alpha in enumerate_diagrams(N - k, d):
                    inner = mpmath.fsum(
                        paths * mpmath.sqrt(ssyt_count(mu, d) * syt_count_hook(mu))
                        for mu, paths in add_boxes(alpha, k, d))
                    ref += inner * inner
                ref /= mpmath.mpf(d) ** (N + 2 * k)
                res = fidelity_exact(N, k, d)
                assert res.value == mpmath_rounded(ref), (N, k, d)
                assert abs(res.value - ref) <= res.rel_err_bound * ref, (N, k, d)

    @pytest.mark.parametrize("N", [50, 120, 200])
    def test_fidelity_qubit_exact(self, N):
        mpmath = pytest.importorskip("mpmath")
        ks = random.Random(N).sample(range(1, 9), 4)
        with mpmath.workdps(60):
            for k in ks:
                ref = mpmath.mpf(0)
                for two_s in range((N - k) % 2, N - k + 1, 2):
                    inner = mpmath.fsum(
                        spin_path_count(two_s, two_j, k) * (two_j + 1)
                        * mpmath.sqrt(math.comb(N + 1, (N - two_j) // 2))
                        for two_j in range(max(N % 2, two_s - k), two_s + k + 1, 2))
                    ref += inner * inner
                ref /= mpmath.mpf(2) ** (N + 2 * k) * (N + 1)
                res = fidelity_qubit(N, k, "exact")
                assert res.arith == "exact", (N, k)
                assert res.value == mpmath_rounded(ref), (N, k)
                assert abs(res.value - ref) <= res.rel_err_bound * ref, (N, k)


def words_psucc(N, k, d):
    """psucc by Schensted's theorem, with no Weyl, Frobenius or hook-content
    formula: RSK maps the words of length N-k over d letters one to one onto
    pairs of tableaux of a common shape alpha, m_alpha d_alpha pairs for each
    alpha, and alpha_1 is the word's longest weakly increasing subsequence
    L(w), so

        p = d^-k N!/(N-k)! E_w[1 / prod_{t<k} (d + L(w) + t)]

    with w uniform over the d^(N-k) words.  L(w) is the number of piles of
    patience sorting; words that leave the same pile tops are counted
    together."""
    piles = Counter({(): 1})
    for _ in range(N - k):
        grown = Counter()
        for tops, count in piles.items():
            for x in range(d):
                i = bisect.bisect_right(tops, x)
                grown[tops[:i] + (x,) + tops[i + 1 :]] += count
        piles = grown
    assert sum(piles.values()) == d ** (N - k)
    mean = sum(
        Fraction(count, math.prod(range(d + len(tops), d + len(tops) + k)))
        for tops, count in piles.items()
    ) / d ** (N - k)
    return Fraction(math.perm(N, k), d**k) * mean


class TestPsuccExact:
    @pytest.mark.parametrize("N,k,d", [(1, 1, 2), (4, 2, 2), (9, 3, 2), (14, 2, 2), (6, 1, 3),
                                       (10, 2, 3), (12, 1, 3), (7, 2, 4), (9, 1, 5),
                                       (24, 4, 4), (16, 2, 5), (30, 6, 4), (20, 3, 5)])
    def test_matches_the_words_certificate(self, N, k, d):
        assert psucc_exact(N, k, d).exact == words_psucc(N, k, d)

    def test_closed_form_grows_no_diagrams(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("psucc_exact called add_boxes")

        monkeypatch.setattr("portcap.performance.add_boxes", refuse)
        assert psucc_exact(12, 3, 3) == reference_psucc_exact(12, 3, 3)

    def test_known_small_values(self):
        assert psucc_exact(1, 1, 2).exact == Fraction(1, 4)
        assert psucc_exact(1, 1, 3).exact == Fraction(1, 9)
        assert psucc_exact(2, 2, 2).exact == Fraction(1, 12)

    def test_many_colours_over_few_ports(self):
        # ssyt_count multiplies over the pairs of nonempty rows only; over
        # all pairs of the d padded rows it did not finish in a minute at d = 1000
        assert psucc_exact(2, 1, 1000).exact == Fraction(2, 1000 * 1001)

    def test_unit_interval(self):
        for N in range(1, 11):
            for k in range(1, N + 1):
                for d in (2, 3):
                    p = psucc_exact(N, k, d)
                    assert 0 < p.exact <= 1
                    assert p.value == float(p.exact) and p.arith == "exact"


class TestQubitClosedForms:
    def test_anchor_values(self):
        assert math.isclose(fidelity_qubit(1, 1).value, 0.25, rel_tol=1e-15)
        assert psucc_qubit(1, 1).exact == Fraction(1, 4)
        assert psucc_qubit(2, 2).exact == Fraction(1, 12)
        assert psucc_qubit(3, 1).exact == Fraction(13, 32)

    def test_fidelity_matches_general_d_form(self):
        for N in range(1, 13):
            for k in range(1, N + 1):
                fq = fidelity_qubit(N, k).value
                fe = fidelity_exact(N, k, 2).value
                assert math.isclose(fq, fe, rel_tol=1e-12), (N, k)

    def test_psucc_matches_general_d_form_exactly(self):
        for N in range(1, 13):
            for k in range(1, N + 1):
                assert psucc_qubit(N, k).exact == psucc_exact(N, k, 2).exact, (N, k)

    def test_full_teleport_matches_general_form(self):
        for N in range(1, 7):
            assert math.isclose(
                fidelity_qubit(N, N).value, fidelity_exact(N, N, 2).value, rel_tol=1e-12
            )

    def test_log_path_agrees_on_overlap_window(self):
        for N in range(40, 201, 16):
            for k in (1, 2, N // 10, N // 2):
                exact = fidelity_qubit(N, k, arith="exact").value
                res = fidelity_qubit(N, k, arith="log")
                assert math.isclose(exact, res.value, rel_tol=1e-10), (N, k)
                assert abs(res.value - exact) <= res.rel_err_bound * exact, (N, k)

    def test_log_path_within_its_bound_beyond_the_window(self):
        exact = fidelity_qubit(1000, 10, arith="exact").value
        res = fidelity_qubit(1000, 10, arith="log")
        assert abs(res.value - exact) <= res.rel_err_bound * exact

    @pytest.mark.parametrize("N,k", [(20000, 141), (100000, 316), (200000, 447)])
    def test_log_path_within_its_bound_at_large_n(self, N, k, monkeypatch):
        # the cumulative sum in _ln_binomial_table carries its rounding over
        # N/2 steps: at (200000, 447) F is off by about 1.7e-9, above a flat
        # 1e-10; the reference reruns the same grid on a ln C table whose
        # error stays near that of one ln_int
        res = fidelity_qubit(N, k, arith="log")
        monkeypatch.setattr(performance, "_ln_binomial_table", reference_ln_binomial_table)
        ref = fidelity_qubit(N, k, arith="log").value
        assert abs(res.value - ref) <= res.rel_err_bound * ref

    @pytest.mark.xfail(strict=True, reason="ln C cumulative-sum drift lifts F above 1")
    def test_log_path_fidelity_stays_at_most_one_at_large_n(self):
        # the cumulative sum in _ln_binomial_table carries its rounding over
        # N/2 steps: at N = 4e6 F reads 1.00000007698, inside the stated
        # relative bound but above 1 (N = 1e6 to 3e6 stay below it)
        assert fidelity_qubit(4_000_000, 1, arith="log").value <= 1.0

    def test_log_path_within_its_bound_on_the_lgamma_branch(self):
        # beyond k = 1000 the path counts come from lgamma, not exact integers
        exact = fidelity_qubit(2100, 1001, arith="exact").value
        res = fidelity_qubit(2100, 1001, arith="log")
        assert abs(res.value - exact) <= res.rel_err_bound * exact

    @pytest.mark.parametrize("N,k", [(1000, 250), (20000, 141), (1100, 1001)])
    def test_log_path_is_bit_identical_to_the_per_term_loop(self, N, k):
        assert fidelity_qubit(N, k, arith="log").value == reference_fidelity_log(N, k)

    def test_log_path_is_bit_identical_to_the_per_term_loop_at_small_n(self):
        # ln F is rounded to the size of its largest block, about N ln 2, which
        # hides a last-place change in one term at large N but not at small N
        for N in range(1, 65):
            for k in range(1, N + 1):
                assert fidelity_qubit(N, k, arith="log").value == reference_fidelity_log(N, k)

    def test_exp_underflows_to_exact_zero_below_the_pruning_cut(self):
        # the log path leaves out terms whose exp is exactly 0.0; that is only
        # exact where the platform's libm underflows there
        assert EXP_ZERO == -746.0
        assert math.exp(-746.0) == 0.0
        assert math.exp(-745.0) > 0.0

    @pytest.mark.parametrize("N,k", [(3601, 1081), (2003, 61)])
    def test_log_path_is_bit_identical_where_terms_are_pruned(self, N, k):
        # odd N.  (3601, 1081), on the lgamma/log1p branch: 36 of its 1261
        # spin rows and 94996 terms of the rest lie below the cut.
        # (2003, 61), on the exact-integer branch: 151 of 972 rows do.
        assert fidelity_qubit(N, k, arith="log").value == reference_fidelity_log(N, k)

    @pytest.mark.parametrize("N,k,bits", [
        (3601, 1081, "0x1.9f1d9ec2e0202p-1"),  # top row 42, 30 rows per chunk
        (100000, 316, "0x1.fec9f8dd72751p-1"),  # top row 223, 103 rows per chunk
    ])
    def test_running_cut_keeps_the_bits_where_the_top_row_is_past_the_first_chunk(
            self, N, k, bits, monkeypatch):
        # the first chunk's rows are cut against its own best, which lies
        # below the final one: the cut may keep rows whose exps are all 0.0,
        # but never drops one that adds to the sum, so the bits hold
        calls, row_blocks_of = [], performance._row_blocks

        def row_blocks(z, tops):
            calls.append(tops.tolist())
            return row_blocks_of(z, tops)

        monkeypatch.setattr(performance, "_row_blocks", row_blocks)
        assert fidelity_qubit(N, k, arith="log").value == float.fromhex(bits)
        assert max(calls[0]) < max(max(tops) for tops in calls)

    def test_one_row_per_chunk_gives_the_same_bits(self, monkeypatch):
        # each row's top and fsum are its own, so the chunk budget moves no
        # bit; a budget of 1 gives one row per chunk
        cases = [(1000, 250), (2003, 61), (3601, 1081)]
        default = [fidelity_qubit(N, k, arith="log").value for N, k in cases]
        monkeypatch.setattr(performance, "CHUNK_CELLS", 1)
        for (N, k), value in zip(cases, default):
            assert fidelity_qubit(N, k, arith="log").value == value, (N, k)

    @pytest.mark.parametrize("N,k", [(20000, 141), (1000, 250), (3601, 1081)])
    def test_a_refused_certificate_reruns_once_at_the_exact_cut(self, N, k, monkeypatch):
        # a cut of -0.001 nats leaves out rows that move the sum, so the slack
        # is refused and the sum rerun once, uncertified, at EXP_ZERO
        certified, ln_fidelity_sum = [], performance._ln_fidelity_sum

        def counted(N, k, certify=True):
            certified.append(certify)
            return ln_fidelity_sum(N, k, certify)

        monkeypatch.setattr(performance, "_ln_fidelity_sum", counted)
        monkeypatch.setattr(performance, "_ROW_CUT", -0.001)
        assert fidelity_qubit(N, k, arith="log").value == reference_fidelity_log(N, k)
        assert certified == [True, False]

    @pytest.mark.parametrize("N,k", [
        (20000, 141), (20001, 141), (1000, 250), (2003, 61), (3601, 1081), (2100, 1001),
        (7, 3), (60, 59),
    ])
    def test_row_window_bound_is_at_least_every_later_row_top(self, N, k):
        # before the chunk at row r0, every row from r0 on is bounded by the
        # largest ln C(k, m), plus ln(N+1), plus the largest 0.5 ln C(N+1, m)
        # of row r0's window m = m0 - r0 - t, t = 0..k, m <= N/2
        tops = reference_row_tops(N, k)
        half = 0.5 * _ln_binomial_table(N + 1, N // 2)
        m0 = (N + k - (N - k) % 2) // 2
        if k <= 1000:
            h_max = max(ln_int(math.comb(k, m)) for m in range(k + 1))
        else:
            h_max = max(math.lgamma(k + 1) - math.lgamma(m + 1) - math.lgamma(k - m + 1)
                        for m in range(k + 1))
        later = np.maximum.accumulate(tops[::-1])[::-1]
        for r0 in range(len(tops)):
            window = half[max(0, m0 - r0 - k) : min(m0 - r0, N // 2) + 1]
            assert h_max + math.log(N + 1) + float(window.max()) >= later[r0], (N, k, r0)

    def test_log_path_builds_and_sums_only_the_rows_near_the_best(self, monkeypatch):
        # (20000, 141) has 9930 spin rows; the row window stops the loop after
        # 5 chunks (1150 rows), and the -80 nat cut keeps 978 rows for the sum
        N, k = 20000, 141
        built, summed = [], []
        empty, row_blocks = np.empty, performance._row_blocks

        def counted_empty(shape, *args, **kwargs):
            if isinstance(shape, tuple) and len(shape) == 2 and shape[1] == k + 1:
                built.append(shape[0])
            return empty(shape, *args, **kwargs)

        def counted_row_blocks(z, tops):
            summed.append(len(tops))
            return row_blocks(z, tops)

        monkeypatch.setattr(np, "empty", counted_empty)
        monkeypatch.setattr(performance, "_row_blocks", counted_row_blocks)
        assert fidelity_qubit(N, k, arith="log").value == reference_fidelity_log(N, k)
        assert 0 < sum(built) <= 1300 and 0 < sum(summed) <= 1000

    def test_log_path_bits_at_200000_ports(self):
        # recorded before the row cut and the row window
        assert fidelity_qubit(200000, 447, "log").value == float.fromhex("0x1.ff2498f0f2d9ep-1")

    def test_ln_binomial_table_sums_the_ratio_recurrence_in_order(self):
        for n, max_m in ((1, 0), (2, 1), (11, 5), (4001, 2000)):
            table, acc = [0.0], 0.0
            for m in range(1, max_m + 1):
                acc += math.log(n - m + 1) - math.log(m)
                table.append(acc)
            assert _ln_binomial_table(n, max_m).tolist() == table

    def test_log_path_memory_is_bounded_by_the_chunk_budget(self):
        # the whole grid at (100000, 316) would take 8 * 50000 * 317 bytes,
        # about 127 MB; the kernel keeps a few tables of N/2 + k floats and a
        # few arrays of CHUNK_CELLS cells
        N, k = 100000, 316
        tracemalloc.start()
        try:
            fidelity_qubit(N, k, arith="log")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (6 * (N // 2 + k + 1) + 5 * CHUNK_CELLS)

    def test_psucc_log_path_within_its_bound_on_overlap_window(self):
        for N in range(40, 201, 16):
            for k in (1, 2, N // 10, N // 2):
                exact = psucc_qubit(N, k, arith="exact").exact
                res = psucc_qubit(N, k, arith="log")
                assert (res.arith, res.exact) == ("log", None)
                assert abs(Fraction(res.value) - exact) <= res.rel_err_bound * exact, (N, k)

    @pytest.mark.parametrize("N,k", [(25600, 160), (99999, 316)])
    def test_psucc_log_path_within_its_bound_at_large_n(self, N, k):
        # 40-digit reference by the same ratio recurrence as the exact path.
        # The log-path error at (99999, 316) is 1.1e-9, above a flat 1e-10.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            total, choose = mpmath.mpf(0), mpmath.mpf(1)
            for m in range((N - k) // 2 + 1):
                total += (N - k - 2 * m + 1) ** 2 * choose
                choose = choose * (N + 1 - m) / (m + 1)
            ref = total / (mpmath.mpf(2) ** N * (N + 1))
            res = psucc_qubit(N, k, arith="log")
            assert abs(res.value - ref) <= res.rel_err_bound * ref

    def test_psucc_log_path_refuses_to_underflow(self):
        # p is a positive rational below the smallest normal float; the log
        # path used to return 0.0 for it
        exact = psucc_qubit(100000, 50000, arith="exact").exact
        assert 0 < exact < sys.float_info.min
        with pytest.raises(ValueError, match="--arith exact"):
            psucc_qubit(100000, 50000, arith="log")

    def test_auto_switches_to_log_for_large_n(self):
        res = fidelity_qubit(1000, 3)
        assert res.arith == "log" and 0.9 < res.value < 1.0
        res = psucc_qubit(1000, 3)
        assert (res.arith, res.exact) == ("log", None) and 0.8 < res.value < 0.9

    def test_bad_arith_rejected(self):
        with pytest.raises(ValueError):
            fidelity_qubit(4, 2, arith="decimal")
        with pytest.raises(ValueError):
            psucc_qubit(4, 2, arith="decimal")


class TestResolveArith:
    def test_explicit_paths(self):
        assert resolve_arith(10, "log") == "log"
        assert resolve_arith(10**6, "exact") == "exact"
