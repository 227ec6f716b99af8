import bisect
import gc
import math
import random
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from conftest import fraction_square_of_radical_sum, syt_count_hook
from portcap.exactmath import ln_int, logsumexp
from portcap.performance import (
    _CELL_BUDGET,
    _EXP_ZERO,
    _exact_result,
    _ln_binomial_table,
    fidelity_exact,
    fidelity_qubit,
    psucc_exact,
    psucc_qubit,
    resolve_arith,
)
from portcap.tableaux import add_boxes, enumerate_diagrams, ssyt_count


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
    the hook-length formula."""
    total = Fraction(0)
    for alpha in enumerate_diagrams(N - k, d):
        m_alpha = ssyt_count(alpha, d)
        best = min(Fraction(syt_count_hook(mu), ssyt_count(mu, d))
                   for mu, _ in add_boxes(alpha, k, d))
        total += m_alpha * m_alpha * best
    return _exact_result(total / Fraction(d) ** N, "schur-weyl-sum")


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


def reference_fidelity_log(N, k):
    """fidelity_qubit's log branch as a per-term loop: the path count and its
    log (lgamma beyond k = 1000) recomputed for every (s, j) term."""

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
                                       (24, 4, 4), (16, 2, 5)])
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
        assert _EXP_ZERO == -746.0
        assert math.exp(-746.0) == 0.0
        assert math.exp(-745.0) > 0.0

    @pytest.mark.parametrize("N,k", [(3601, 1081), (2003, 61)])
    def test_log_path_is_bit_identical_where_terms_are_pruned(self, N, k):
        # odd N.  (3601, 1081), on the lgamma/log1p branch: 36 of its 1261
        # spin rows and 94996 terms of the rest lie below the cut.
        # (2003, 61), on the exact-integer branch: 151 of 972 rows do.
        assert fidelity_qubit(N, k, arith="log").value == reference_fidelity_log(N, k)

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
        # few arrays of _CELL_BUDGET cells
        N, k = 100000, 316
        tracemalloc.start()
        try:
            fidelity_qubit(N, k, arith="log")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (6 * (N // 2 + k + 1) + 5 * _CELL_BUDGET)

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
