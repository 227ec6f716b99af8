import math

import numpy as np
import pytest
from scipy import integrate

from portcap.asymptotics import (
    gaussian_limit,
    normal_pdf,
    normal_tail,
    psucc_largeN,
    psucc_sandwich,
    sandwich_k,
)
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
