"""Acceptance suite: one test per release criterion, each printing a PASS
line (run with ``pytest -s tests/test_acceptance.py`` to see them).

Tolerances are pinned here and nowhere else.  Criterion 8's below-threshold
exponent check verifies classification plus strict monotone approach to 1
over N = 1e2..1e5 rather than a fixed distance at N = 1e5: every scheme's
approach to 1 on that side is polynomially slow (e.g. packaged optimal
fidelity at alpha = 2/3 - 0.15 is still 0.947 at N = 1e5 for any correct
implementation), so a 0.02 cap there would reject correct code.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from conftest import dense_rho, reference_signal_sum
from scipy import integrate

import portcap as pc
from portcap.cli import main
from portcap.core import ProtocolParams
from portcap.protocols import Figure, ScalingSpec, SchemeId, finite_value
from portcap.simulate import (
    all_port_tuples,
    pairwise_trace_matrix,
    signal_sum,
    srm_fidelity,
    srm_pdist,
)

PURITY_GRID = [(2, 1, 2), (3, 1, 2), (4, 1, 2), (4, 2, 2), (5, 2, 2), (2, 1, 3), (3, 1, 3)]


def _report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE PASS {criterion}: {detail}")


def test_criterion_01_trace_formulas():
    start = time.perf_counter()
    for d in (2, 3, 5):
        for n in range(3, 9):
            assert pc.trace_rho_squared(n, 1, d) == d ** (n - 2) * (n - 1) * (d * d + n - 2)
        for n in range(6, 10):
            assert pc.trace_rho_squared(n, 2, d) == (
                d ** (n - 4) * (n - 2) * (n - 3) * (d * d + n - 3) * (d * d + n - 4)
            )
    checked = 0
    for d in (2, 3):
        for n in range(3, 8):
            for k in (1, 2):
                if k > (n - k) // 2:
                    continue
                tuples = list(itertools.permutations(range(1, n - k + 1), k))
                total = sum(
                    pc.signal_pair_trace_raw(a, b, n, k, d)
                    for a in tuples
                    for b in tuples
                )
                formula = pc.trace_rho_squared(n, k, d)
                assert total == formula  # integers: "within 1e-9" met exactly
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report("criterion-1", f"trace formulas symbolic + {checked} tuple-pair sums in {elapsed:.2f}s")


def test_criterion_02_normalized_purity():
    for N, k, d in PURITY_GRID:
        p = ProtocolParams(N, k, d)
        rho = reference_signal_sum(p)
        assert np.array_equal(dense_rho(signal_sum(p)), rho), (N, k, d)
        rho_bar = rho / np.trace(rho)
        matrix = float((rho_bar * rho_bar.T).sum())
        closed = float(pc.trace_rho_bar_squared(N, k, d))
        assert abs(matrix - closed) <= 1e-10, (N, k, d)
    _report("criterion-2", f"matrix purity matches closed form on {len(PURITY_GRID)} instances @1e-10")


def test_criterion_03_bound_chain():
    points = list(PURITY_GRID) + [
        (N, k, 2) for N in range(2, 13) for k in range(1, N // 2 + 1)
    ]
    for N, k, d in points:
        bern = pc.fidelity_bound_bernoulli(N, k, d)
        prod = pc.fidelity_bound_product(N, k, d)
        ratio = pc.fidelity_bound_ratio(N, k, d)
        assert bern <= prod <= ratio  # exact rationals
        fid = pc.fidelity_exact(N, k, d).value
        assert float(ratio) <= fid + 1e-12, (N, k, d)
    _report("criterion-3", f"bernoulli <= product <= ratio <= fidelity on {len(points)} points, 0 violations")


def test_criterion_04_qubit_qudit_consistency():
    for N in range(1, 13):
        for k in range(1, N + 1):
            fq = pc.fidelity_qubit(N, k).value
            fe = pc.fidelity_exact(N, k, 2).value
            assert math.isclose(fq, fe, rel_tol=1e-12), (N, k)
            assert pc.psucc_qubit(N, k).exact == pc.psucc_exact(N, k, 2).exact, (N, k)
    _report("criterion-4", "angular-momentum forms == Schur-Weyl sums (fidelity @1e-12 rel, psucc exact), N<=12")


def test_criterion_05_oracle_fidelity():
    for N, k in ((4, 2), (3, 1)):
        p = ProtocolParams(N, k, 2)
        oracle = srm_fidelity(p)
        closed = pc.fidelity_exact(N, k, 2).value
        assert abs(oracle - closed) <= 1e-9, (N, k)
        pdist = srm_pdist(p)
        assert abs(oracle - p.num_signals / 2 ** (2 * k) * pdist) <= 1e-10
    _report("criterion-5", "SRM oracle matches closed forms @1e-9; discrimination relation @1e-10")


def test_criterion_06_overlap_counterexample():
    for d in (2, 3, 4):
        val = pc.pairwise_signal_trace((4, 3), (3, 4), 6, 2, d)
        assert val == Fraction(1, d**4)
        assert val != Fraction(1, d**6)
    matrix = pairwise_trace_matrix((4, 3), (3, 4), ProtocolParams(4, 2, 2))
    assert abs(matrix - 1 / 16) <= 1e-12
    _report("criterion-6", "overlapping-signal trace is 1/d^4 (never 1/d^6), matrix oracle agrees @1e-12")


def test_criterion_07_known_value_anchors():
    for d in (2, 3, 4):
        for N in range(2, 40):
            assert pc.fidelity_bound_ratio(N, 1, d) == 1 - Fraction(d * d - 1, d * d + N - 1)
        assert pc.psucc_exact(1, 1, d).exact == Fraction(1, d * d)
    assert abs(pc.opbt_fidelity(2) - 0.5) < 1e-15
    assert pc.ompbt_psucc(10, 2, 2) == Fraction(15, 26)
    _report("criterion-7", "k=1 bound collapse, opbt_fidelity(2)=0.5, psucc(1,1,d)=1/d^2, ompbt=15/26")


def test_criterion_08_table_limits():
    start = time.perf_counter()
    N_big = 100_000
    sweep = (100, 1000, 10_000, N_big)
    rows = [
        (SchemeId.PACK_PBT, Figure.FIDELITY, 1.0),
        (SchemeId.PACK_OPBT, Figure.FIDELITY, 1.0),
        (SchemeId.MPBT_BOUND, Figure.FIDELITY, 1.0),
        (SchemeId.PACK_PBT, Figure.PSUCC, 1.0),
        (SchemeId.PACK_OPBT, Figure.PSUCC, 1.0),
        (SchemeId.MPBT_EXACT, Figure.PSUCC, 1.0),
        (SchemeId.OMPBT, Figure.PSUCC, 0.5),
    ]
    for scheme, figure, a in rows:
        a_cr = pc.critical_exponent(scheme, figure)

        # above the threshold the value at N=1e5 sits within 0.02 of 0
        scaling_hi = ScalingSpec(a, a_cr + 0.15)
        if scheme is SchemeId.MPBT_BOUND:
            # no zero region: the bound's scaling law is undefined above alpha=1
            with pytest.raises(ValueError):
                pc.critical_limit(scheme, scaling_hi, figure)
        else:
            assert pc.critical_limit(scheme, scaling_hi, figure).kind == "zero"
            value = finite_value(scheme, figure, N_big, scaling_hi.k_of(N_big), 2)
            assert abs(value) <= 0.02, (scheme, figure, value)

        # at the threshold the value sits within 0.05 of the critical constant
        # (a < 1 required by the bound row's limit; same for ompbt)
        a_use = 0.5 if scheme in (SchemeId.MPBT_BOUND, SchemeId.OMPBT) else a
        scaling_cr = ScalingSpec(a_use, a_cr)
        limit = pc.critical_limit(scheme, scaling_cr, figure)
        assert limit.kind == "critical"
        value = finite_value(scheme, figure, N_big, scaling_cr.k_of(N_big), 2)
        assert abs(value - limit.value) <= 0.05, (scheme, figure, value, limit.value)

        # below the threshold: classified One, strictly monotone approach to 1
        scaling_lo = ScalingSpec(a, a_cr - 0.15)
        assert pc.critical_limit(scheme, scaling_lo, figure).kind == "one"
        values = [
            finite_value(scheme, figure, N, scaling_lo.k_of(N), 2) for N in sweep
        ]
        assert all(b > x for x, b in zip(values, values[1:])), (scheme, figure, values)
        assert values[-1] > values[0] and values[-1] < 1.0
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report("criterion-8", f"7 table rows: zero side @0.02, critical @0.05, one side monotone, {elapsed:.2f}s")


def test_criterion_09_gaussian_limit():
    for a in np.arange(0.0, 3.01, 0.25):
        quad, err = integrate.quad(
            lambda x: 2 * x * x * math.exp(-0.5 * (x + a) ** 2) / math.sqrt(2 * math.pi),
            0.0,
            np.inf,
            epsabs=1e-13,
            epsrel=1e-13,
        )
        assert err < 1e-11
        assert abs(pc.gaussian_limit(float(a)) - quad) <= 1e-10, a
    assert pc.gaussian_limit(0.0) == 1.0
    _report("criterion-9", "closed form vs quadrature @1e-10 on a=0..3; gaussian_limit(0)=1 exactly")


def test_criterion_10_sandwich():
    widths_by_a = {}
    for a in (0.5, 1.0):
        widths = []
        for N in (100, 400, 1600, 6400, 25600):
            k = pc.sandwich_k(N, a)
            lower, upper, _ = pc.psucc_sandwich(N, a)
            mid = pc.psucc_largeN(N, k)
            assert lower <= mid <= upper, (N, a, lower, mid, upper)
            widths.append(upper - lower)
        assert all(b < x for x, b in zip(widths, widths[1:])), (a, widths)
        assert widths[-1] < 0.15, (a, widths[-1])
        widths_by_a[a] = widths[-1]
    _report(
        "criterion-10",
        f"sandwich holds on the grid; widths at N=25600: "
        f"{widths_by_a[0.5]:.4f} (a=0.5), {widths_by_a[1.0]:.4f} (a=1.0) < 0.15, decreasing",
    )


def test_criterion_11_packaged_comparisons():
    for k in range(4, 11):
        for N in range(2 * k, 201):
            assert float(pc.fidelity_bound_ratio(N, k, 2)) > pc.packaged_fidelity_approx(N, k), (N, k)
    crossings = {}
    for k in (4, 6, 8):
        crossing = None
        for N in range(2 * k, 401):
            ratio = float(pc.fidelity_bound_ratio(N, k, 2))
            packed = math.cos(math.pi / (N / k + 2)) ** (2 * k)
            if packed > ratio:
                crossing = N
                break
            assert ratio >= packed  # bound dominates below the crossing
        assert crossing is not None and crossing <= 400, k
        crossings[k] = crossing
    _report("criterion-11", f"ratio bound beats packaged form for k=4..10; crossings at {crossings}")


def test_criterion_12_determinism(capsys):
    compare_args = ["compare", "--k-list", "4,6,8", "--N-range", "8:120:8"]
    asympt_args = [
        "asympt", "--scheme", "mpbt", "--figure", "psucc",
        "--a", "1.0", "--alpha", "0.5", "--N-list", "100,1000,10000",
    ]
    for name, args in (("compare", compare_args), ("asympt", asympt_args)):
        assert main(list(args)) == 0
        first = capsys.readouterr().out
        assert main(list(args)) == 0
        second = capsys.readouterr().out
        assert first == second, f"{name} not deterministic across runs"
    _report("criterion-12", "compare/asympt byte-identical across reruns")
