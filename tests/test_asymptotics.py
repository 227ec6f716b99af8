import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from portcap.asymptotics import (
    PSUCC_LARGEN_MAX_N,
    gaussian_limit,
    normal_pdf,
    normal_tail,
    psucc_largeN,
    psucc_sandwich,
    sandwich_k,
)
from portcap.core import CHUNK_CELLS
from portcap.exactmath import EXP_ZERO, exp_normal
from portcap.performance import psucc_qubit


def shifted_moment_quadrature(a: float) -> float:
    """Independent oracle: adaptive quadrature of 2 * int_0^inf x^2 phi(x+a) dx."""
    val, err = integrate.quad(
        lambda x: 2.0 * x * x * math.exp(-0.5 * (x + a) ** 2) / math.sqrt(2 * math.pi),
        0.0,
        np.inf,
        epsabs=1e-13,
        epsrel=1e-13,
    )
    assert err < 1e-11
    return val


def reference_psucc_largeN(N: int, k: int) -> float:
    """psucc_largeN as one whole-array expression with a temporary per step:
    int64 spins, the gathered table ln_choose[m] and exp(terms - top)."""
    two_s = np.arange((N - k) % 2, N - k + 1, 2, dtype=np.int64)
    m = (N - k - two_s) // 2
    m_max = int(m.max())
    idx = np.arange(1, m_max + 1, dtype=np.float64)
    ln_choose = np.concatenate(([0.0], np.cumsum(np.log((N + 2 - idx) / idx))))
    terms = 2.0 * np.log(two_s + 1.0) + ln_choose[m]
    top = float(terms.max())
    ln_p = (
        top
        + math.log(float(np.exp(terms - top).sum()))
        - math.log(N + 1.0)
        - math.log(2.0) * N
    )
    return exp_normal(ln_p)


class TestNormalHelpers:
    def test_anchors(self):
        assert normal_tail(0.0) == 0.5
        assert math.isclose(normal_pdf(0.0), 1 / math.sqrt(2 * math.pi), rel_tol=1e-15)
        assert math.isclose(normal_tail(1.0), 0.15865525393145707, rel_tol=1e-14)

    def test_tail_symmetry(self):
        for x in np.linspace(-8, 8, 33):
            assert math.isclose(normal_tail(x) + normal_tail(-x), 1.0, rel_tol=1e-14)

    def test_pdf_is_derivative_of_tail(self):
        h = 1e-6
        for x in (-2.0, 0.3, 1.7):
            num = (normal_tail(x + h) - normal_tail(x - h)) / (2 * h)
            assert math.isclose(-num, normal_pdf(x), rel_tol=1e-8)


class TestGaussianLimit:
    def test_at_zero_exactly_one(self):
        assert gaussian_limit(0.0) == 1.0

    def test_closed_form_vs_quadrature(self):
        for a in np.arange(0.0, 3.01, 0.25):
            assert abs(gaussian_limit(float(a)) - shifted_moment_quadrature(float(a))) < 1e-10

    def test_monotone_decreasing(self):
        vals = [gaussian_limit(a) for a in np.arange(0.0, 6.0, 0.125)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gaussian_limit(-0.5)

    @pytest.mark.parametrize("a", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, a):
        with pytest.raises(ValueError, match="finite"):
            gaussian_limit(a)


class TestSandwichK:
    def test_parity_matches_ports(self):
        for N in (100, 101, 400, 1601):
            for a in (0.3, 0.5, 1.0, 1.7):
                k = sandwich_k(N, a)
                assert k % 2 == N % 2 and k >= 1
                assert abs(k - a * math.sqrt(N)) <= 2.0

    def test_tie_resolves_upward(self):
        # a*sqrt(N) = 5 with even parity: pick 6 (success decreases in k,
        # keeping the value under the bound computed at 5)
        assert sandwich_k(100, 0.5) == 6

    def test_zero_rate_takes_the_smallest_k_of_n_parity(self):
        assert (sandwich_k(100, 0.0), sandwich_k(101, 0.0)) == (2, 1)

    @pytest.mark.parametrize("a", [-0.5, -1e-300, math.inf, -math.inf, math.nan])
    def test_rejects_negative_or_non_finite_rate(self, a):
        with pytest.raises(ValueError):
            sandwich_k(100, a)

    # Known defect: a*sqrt(N) = 22.91 at N = 2100 and 48.99 at N = 9600 round
    # down to k = 22 and 48, and the exact success probability at that
    # smaller k (0.43535, 0.42735) exceeds the upper bound (0.43218, 0.42529).
    @pytest.mark.xfail(strict=True, reason="sandwich_k may round a*sqrt(N) down")
    @pytest.mark.parametrize("N", [2100, 9600])
    def test_rounded_k_stays_under_upper_bound(self, N):
        _, upper, _ = psucc_sandwich(N, 0.5)
        assert psucc_qubit(N, sandwich_k(N, 0.5), arith="exact").value <= upper


class TestSandwich:
    def test_domain(self):
        with pytest.raises(ValueError):
            psucc_sandwich(100, 2.0)
        with pytest.raises(ValueError):
            psucc_sandwich(100, 0.0)

    def test_ordering_and_clamps(self):
        for N in (64, 100, 1024, 10**4):
            for a in (0.25, 0.5, 1.0, 1.5):
                lower, upper, terms = psucc_sandwich(N, a)
                assert 0.0 <= lower <= upper <= 1.0
                assert terms.mid > 0 and terms.head > 0 and terms.delta > 0
                assert 0.0 <= terms.integral <= 0.5

    def test_contains_exact_value(self):
        for a in (0.5, 1.0):
            for N in (100, 400, 1600, 6400):
                k = sandwich_k(N, a)
                lower, upper, _ = psucc_sandwich(N, a)
                mid = psucc_largeN(N, k)
                assert lower <= mid <= upper, (N, a)

    def test_width_shrinks_to_limit(self):
        for a in (0.5, 1.0):
            widths = []
            for m in range(5):
                N = 100 * 4**m
                lower, upper, _ = psucc_sandwich(N, a)
                widths.append(upper - lower)
            assert all(b < x for x, b in zip(widths, widths[1:]))
            lower, upper, _ = psucc_sandwich(10**6, a)
            lim = gaussian_limit(a)
            assert abs(lower - lim) < 0.02 and abs(upper - lim) < 0.02

    def test_small_rate_limit_is_one(self):
        # k = o(sqrt(N)) surrogate: shrink a with N, value heads to 1
        vals = [psucc_largeN(N, max(1, int(N**0.25))) for N in (10**3, 10**5, 10**7)]
        assert vals[2] > vals[1] > vals[0] > 0.7
        assert vals[2] > 0.95


class TestPsuccLargeN:
    def test_matches_exact_rational_up_to_60(self):
        for N in range(1, 61):
            for k in range(1, N + 1):
                exact = psucc_qubit(N, k, arith="exact").value
                assert math.isclose(psucc_largeN(N, k), exact, rel_tol=1e-10), (N, k)

    def test_full_teleport_collapses_to_single_term(self):
        for N in (1, 2, 17, 60, 200):
            expected = 2.0**-N / (N + 1)
            assert math.isclose(psucc_largeN(N, N), expected, rel_tol=1e-12)

    def test_huge_n_runs(self):
        val = psucc_largeN(10**6, 10**3)
        lower, upper, _ = psucc_sandwich(10**6, 1.0)
        assert lower <= val <= upper
        assert math.isclose(val, gaussian_limit(1.0), abs_tol=0.01)

    def test_decreasing_in_k(self):
        for N in (50, 500):
            vals = [psucc_largeN(N, k) for k in range(1, N + 1)]
            assert all(b < a + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            psucc_largeN(10, 11)

    def test_rejects_n_past_its_limit(self):
        with pytest.raises(ValueError, match=f"N <= {PSUCC_LARGEN_MAX_N}"):
            psucc_largeN(PSUCC_LARGEN_MAX_N + 1, 1)

    def test_bit_identical_to_the_whole_array_expression(self):
        # N - k of both parities and k = N; where p underflows a float (k
        # near N beyond a few hundred ports) both must raise
        def outcome(fn, N, k):
            try:
                return fn(N, k)
            except ValueError:
                return "underflow"

        for N in (1, 2, 3, 17, 60, 61, 200, 999, 1000, 25600, 25601):
            for k in sorted({1, 2, 3, N // 7, N // 2, N - 1, N} & set(range(1, N + 1))):
                assert outcome(psucc_largeN, N, k) == outcome(reference_psucc_largeN, N, k), (N, k)

    @pytest.mark.parametrize("N", [10**5, 10**6, 3 * 10**6, 10**7])
    def test_bit_identical_at_the_critical_points(self, N):
        # k = floor(sqrt(N)) as `asympt --a 1.0 --alpha 0.5` takes it, and
        # one more for the other parity of N - k
        k = math.isqrt(N)
        for kk in (k, k + 1):
            assert psucc_largeN(N, kk) == reference_psucc_largeN(N, kk), (N, kk)

    @pytest.mark.parametrize(
        "m_max",
        [CHUNK_CELLS - 1, CHUNK_CELLS, CHUNK_CELLS + 1, 2 * CHUNK_CELLS, 2 * CHUNK_CELLS + 1],
    )
    def test_bit_identical_at_the_chunk_boundaries(self, m_max):
        # m = 1..m_max runs in chunks of CHUNK_CELLS; N - k of both
        # parities, k small and k near sqrt(N)
        for k in (3, 4, 400, 401):
            for N in (2 * m_max + k, 2 * m_max + k + 1):
                assert (N - k) // 2 == m_max
                assert psucc_largeN(N, k) == reference_psucc_largeN(N, k), (N, k)

    @staticmethod
    def ln_choose(N, m):
        return math.lgamma(N + 2) - math.lgamma(m + 1) - math.lgamma(N + 2 - m)

    def test_bit_identical_where_leading_chunks_are_dropped(self):
        for N, k in ((10**6, 2), (10**6 + 1, 10), (999_999, 1000), (76500, 276)):
            m_max = (N - k) // 2
            head = 2.0 * math.log(N - k + 1.0)
            # the first chunk of m lies far below the last ln C(N+1, m)
            gap = self.ln_choose(N, m_max) - self.ln_choose(N, CHUNK_CELLS) - head
            assert gap > -EXP_ZERO, (N, k)
            assert psucc_largeN(N, k) == reference_psucc_largeN(N, k), (N, k)
        # at (76500, 276) the first chunk lies past the cut at 746 but within
        # 800, a gap that would keep it: only the cut at 746 drops it here
        assert 746 < gap <= 800

    def test_bit_identical_where_every_chunk_stays_live(self):
        for N, k in ((1000, 900), (1000, 601), (1201, 1000)):
            # even m = 0 lies within the cut of the largest ln C(N+1, m)
            assert self.ln_choose(N, (N - k) // 2) < -EXP_ZERO
            assert psucc_largeN(N, k) == reference_psucc_largeN(N, k), (N, k)

    def test_underflow_raises_as_the_reference_does(self):
        for fn in (psucc_largeN, reference_psucc_largeN):
            with pytest.raises(ValueError, match="underflows a float"):
                fn(100000, 50000)

    def test_bit_identical_on_random_inputs(self):
        # N log-uniform in [1e3, 2e6]; k near sqrt(N), log-uniform in [1, N]
        # and uniform in [1, N], each with k + 1 for the other parity of N - k;
        # where p underflows a float both must raise
        def outcome(fn, N, k):
            try:
                return fn(N, k)
            except ValueError:
                return "underflow"

        rng = np.random.default_rng(20201)
        cases = set()
        for _ in range(60):
            N = int(np.exp(rng.uniform(math.log(1e3), math.log(2e6))))
            for k in (math.isqrt(N) + int(rng.integers(-20, 21)),
                      int(np.exp(rng.uniform(0.0, math.log(N)))),
                      int(rng.integers(1, N + 1))):
                cases |= {(N, kk) for kk in (k, k + 1) if 1 <= kk <= N}
        assert len(cases) >= 300
        assert {(N - k) % 2 for N, k in cases} == {0, 1}
        for N, k in sorted(cases):
            assert outcome(psucc_largeN, N, k) == outcome(reference_psucc_largeN, N, k), (N, k)

    def test_peak_memory_is_the_live_window(self):
        # the kept chunks of ln C(N+1, m) and the kept terms, about twice the
        # live window at the concatenation, plus two chunk buffers; nothing
        # of size (N - k)/2 + 1, which at N = 1e7 would be 40 MB
        N, k = 10**7, 3162
        m_max = (N - k) // 2
        drop_below = 2.0 * math.log(N - k + 1.0) - EXP_ZERO
        top = self.ln_choose(N, m_max)
        lo, hi = 0, m_max  # the first m whose term can have a nonzero exp
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if self.ln_choose(N, mid) + drop_below >= top else (mid + 1, hi)
        live = m_max - lo + 1
        bound = 8 * (2 * (live + CHUNK_CELLS) + 2 * CHUNK_CELLS)
        assert bound <= 4e6
        tracemalloc.start()
        try:
            psucc_largeN(N, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound
