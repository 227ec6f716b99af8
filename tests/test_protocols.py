import math
from fractions import Fraction

import pytest

from portcap.asymptotics import gaussian_limit
from portcap.performance import psucc_exact
from portcap.protocols import (
    Figure,
    LimitClass,
    ScalingSpec,
    SchemeId,
    critical_exponent,
    critical_limit,
    finite_value,
    ompbt_psucc,
    opbt_fidelity,
    packaged_fidelity,
    packaged_fidelity_approx,
    packaged_fidelity_linear,
    psucc_baselines,
)


class TestSinglePortReferences:
    def test_opbt_fidelity_values(self):
        assert math.isclose(opbt_fidelity(2), 0.5, abs_tol=1e-15)
        assert math.isclose(opbt_fidelity(1), 0.25, abs_tol=1e-15)

    def test_opbt_fidelity_monotone_to_one(self):
        vals = [opbt_fidelity(N) for N in range(1, 400)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1.0 and vals[-1] > 0.999

    def test_psucc_baselines(self):
        assert math.isclose(psucc_baselines(3, "opbt"), 0.5, abs_tol=1e-15)
        assert math.isclose(
            psucc_baselines(10**4, "pbt-approx"), 1 - math.sqrt(8 / math.pi) / 100,
            rel_tol=1e-14,
        )
        assert psucc_baselines(10**9, "opbt") > 1 - 1e-8

    def test_baseline_arg_validation(self):
        with pytest.raises(ValueError):
            psucc_baselines(5, "teleport")


class TestPackaged:
    def test_opbt_package_value(self):
        assert math.isclose(packaged_fidelity(4, 2), 0.25, abs_tol=1e-14)

    def test_single_package_collapse(self):
        for N in (3, 7, 20):
            assert packaged_fidelity(N, 1) == opbt_fidelity(N)

    def test_opbt_package_takes_real_ports(self):
        # 3.5 ports per package, not floor(7/2) = 3
        val = packaged_fidelity(7, 2)
        assert math.isclose(val, math.cos(math.pi / 5.5) ** 4, rel_tol=1e-14)

    def test_approx_forms(self):
        for k in (1, 2, 5):
            N = k * k
            assert math.isclose(
                packaged_fidelity_approx(N, k), (1 - 3 / (4 * k)) ** k, rel_tol=1e-14
            )
        assert math.isclose(packaged_fidelity_approx(8, 1), 1 - 3 / 32, rel_tol=1e-14)
        assert packaged_fidelity_linear(10, 2) == 1 - 3 * 4 / 40
        assert packaged_fidelity_approx(3, 4) == 0.0  # clamped


class TestOmpbt:
    def test_product_value(self):
        assert ompbt_psucc(10, 2, 2) == Fraction(15, 26)

    def test_positive_at_full_rate(self):
        for N in (2, 5, 9):
            assert 0 < ompbt_psucc(N, N, 2) < 1

    def test_zero_when_k_exceeds_ports(self):
        assert ompbt_psucc(10, 30, 2) == 0

    def test_dominates_non_optimal(self):
        for N in range(2, 13):
            for k in range(1, N // 2 + 1):
                for d in (2, 3):
                    assert psucc_exact(N, k, d).exact <= ompbt_psucc(N, k, d)

    def test_linear_rate_limit(self):
        # k = a N at d = 2 tends to (1-a)^3
        a = 0.25
        vals = [float(ompbt_psucc(N, int(a * N), 2)) for N in (10**3, 10**5)]
        assert abs(vals[1] - (1 - a) ** 3) < 1e-4
        assert abs(vals[1] - (1 - a) ** 3) < abs(vals[0] - (1 - a) ** 3)


class TestCriticalLimit:
    def test_exponents(self):
        assert critical_exponent(SchemeId.PACK_PBT, Figure.FIDELITY) == 0.5
        assert critical_exponent(SchemeId.PACK_OPBT, Figure.FIDELITY) == pytest.approx(2 / 3)
        assert critical_exponent(SchemeId.MPBT_BOUND, Figure.FIDELITY) == 1.0
        assert critical_exponent(SchemeId.PACK_PBT, Figure.PSUCC) == pytest.approx(1 / 3)
        assert critical_exponent(SchemeId.PACK_OPBT, Figure.PSUCC) == 0.5
        assert critical_exponent(SchemeId.MPBT_EXACT, Figure.PSUCC) == 0.5
        assert critical_exponent(SchemeId.OMPBT, Figure.PSUCC) == 1.0

    def test_unsupported_combinations_rejected(self):
        with pytest.raises(ValueError):
            critical_exponent(SchemeId.OMPBT, Figure.FIDELITY)
        with pytest.raises(ValueError):
            critical_exponent(SchemeId.MPBT_BOUND, Figure.PSUCC)

    def test_one_and_zero_sides(self):
        scaling_lo = ScalingSpec(1.0, 0.5)
        assert critical_limit(SchemeId.PACK_OPBT, scaling_lo, Figure.FIDELITY) == LimitClass.one()
        scaling_hi = ScalingSpec(1.0, 0.75)
        assert critical_limit(SchemeId.PACK_OPBT, scaling_hi, Figure.FIDELITY) == LimitClass.zero()

    def test_critical_constants(self):
        c = critical_limit(SchemeId.PACK_PBT, ScalingSpec(1.0, 0.5), Figure.FIDELITY)
        assert c.kind == "critical" and math.isclose(c.value, math.exp(-0.75), rel_tol=1e-14)
        c = critical_limit(SchemeId.PACK_OPBT, ScalingSpec(1.0, 2 / 3), Figure.FIDELITY)
        assert math.isclose(c.value, math.exp(-math.pi**2), rel_tol=1e-14)
        c = critical_limit(SchemeId.PACK_PBT, ScalingSpec(1.0, 1 / 3), Figure.PSUCC)
        assert math.isclose(c.value, math.exp(-math.sqrt(8 / math.pi)), rel_tol=1e-14)
        c = critical_limit(SchemeId.PACK_OPBT, ScalingSpec(1.0, 0.5), Figure.PSUCC)
        assert math.isclose(c.value, math.exp(-3.0), rel_tol=1e-14)
        c = critical_limit(SchemeId.MPBT_EXACT, ScalingSpec(1.0, 0.5), Figure.PSUCC)
        assert math.isclose(c.value, gaussian_limit(1.0), rel_tol=1e-14)
        c = critical_limit(SchemeId.OMPBT, ScalingSpec(0.5, 1.0), Figure.PSUCC)
        assert math.isclose(c.value, 0.125, rel_tol=1e-14)

    def test_ompbt_general_dimension(self):
        # the product of d^2 - 1 factors (1 - k/(N-1+m)) tends to (1-a)^(d^2-1)
        c = critical_limit(SchemeId.OMPBT, ScalingSpec(0.5, 1.0), Figure.PSUCC, d=3)
        assert c == LimitClass.critical(0.5**8)
        assert abs(finite_value("ompbt", "psucc", 100000, 50000, 3) - 0.5**8) <= 1e-4
        with pytest.raises(ValueError):
            critical_limit(SchemeId.OMPBT, ScalingSpec(1.5, 1.0), Figure.PSUCC, d=3)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("figure", list(Figure))
    @pytest.mark.parametrize("scheme", list(SchemeId))
    def test_limit_and_curve_share_dimension_scope(self, scheme, figure, d):
        # one dimension check: the finite-N curve and its limit accept the
        # same d, at the threshold where every supported row is defined
        try:
            scaling = ScalingSpec(0.5, critical_exponent(scheme, figure))
        except ValueError:
            scaling = ScalingSpec(0.5, 1.0)
        outcomes = []
        for evaluate in (
            lambda: finite_value(scheme, figure, 100, scaling.k_of(100), d),
            lambda: critical_limit(scheme, scaling, figure, d),
        ):
            try:
                evaluate()
                outcomes.append("accepts")
            except ValueError:
                outcomes.append("raises")
        assert outcomes[0] == outcomes[1], (scheme, figure, d, outcomes)

    def test_bound_scheme_general_dimension(self):
        c = critical_limit(SchemeId.MPBT_BOUND, ScalingSpec(0.5, 1.0), Figure.FIDELITY, d=3)
        assert math.isclose(c.value, math.exp(-8.0), rel_tol=1e-14)

    def test_bound_scheme_domain(self):
        with pytest.raises(ValueError):
            critical_limit(SchemeId.MPBT_BOUND, ScalingSpec(1.0, 1.0), Figure.FIDELITY)
        with pytest.raises(ValueError):
            critical_limit(SchemeId.MPBT_BOUND, ScalingSpec(0.5, 1.2), Figure.FIDELITY)

    def test_scaling_k_uses_floor(self):
        scaling = ScalingSpec(0.7, 1.0)
        assert scaling.k_of(10) == 7
        assert scaling.k_of(9) == math.floor(0.7 * 9)  # 6.3 -> 6

    @pytest.mark.parametrize("a, alpha", [
        (0.0, 0.5), (-1.0, 0.5), (math.inf, 0.5), (math.nan, 0.5),
        (1.0, 0.0), (1.0, -0.5), (1.0, math.inf), (1.0, math.nan),
    ])
    def test_scaling_rejects_non_positive_or_non_finite(self, a, alpha):
        with pytest.raises(ValueError):
            ScalingSpec(a, alpha)

    def test_scaling_k_rejects_bad_n_and_overflow(self):
        # a negative N to a fractional power is complex; 100**400 overflows
        for N in (0, -5):
            with pytest.raises(ValueError):
                ScalingSpec(1.0, 0.5).k_of(N)
        with pytest.raises(ValueError):
            ScalingSpec(1.0, 400.0).k_of(100)
        with pytest.raises(ValueError):
            ScalingSpec(1e308, 1.0).k_of(100)

    def test_convergence_along_grid(self):
        # strictly below / above alpha_cr the finite-N curve heads to 1 / 0
        grid = (100, 1000, 10_000, 100_000)
        cases = [
            (SchemeId.PACK_PBT, Figure.FIDELITY, 1.0),
            (SchemeId.PACK_OPBT, Figure.FIDELITY, 1.0),
            (SchemeId.MPBT_BOUND, Figure.FIDELITY, 1.0),
            (SchemeId.PACK_PBT, Figure.PSUCC, 1.0),
            (SchemeId.PACK_OPBT, Figure.PSUCC, 1.0),
            (SchemeId.MPBT_EXACT, Figure.PSUCC, 1.0),
            (SchemeId.OMPBT, Figure.PSUCC, 0.5),
        ]
        for scheme, figure, a in cases:
            a_cr = critical_exponent(scheme, figure)
            lo = [
                finite_value(scheme, figure, N, ScalingSpec(a, a_cr - 0.15).k_of(N), 2)
                for N in grid
            ]
            assert all(b > x for x, b in zip(lo, lo[1:])), (scheme, figure, lo)
            if scheme in (SchemeId.MPBT_BOUND,):
                continue  # no zero region: scaling undefined above alpha = 1
            hi = [
                finite_value(scheme, figure, N, ScalingSpec(a, a_cr + 0.15).k_of(N), 2)
                for N in grid[-2:]
            ]
            assert all(x <= y + 1e-30 for x, y in zip(hi[1:], hi[:-1])), (scheme, figure)
            assert hi[-1] < 0.01
