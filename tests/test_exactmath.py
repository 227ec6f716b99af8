import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from conftest import fraction_square_of_radical_sum
from portcap.exactmath import (
    exp_normal,
    ln_int,
    logsumexp,
    square_of_radical_sum,
    sum_of_radical_squares,
)

# square_of_radical_sum returns its square in units of 2**-256
UNIT = 1 << 256


def sqrt_as_fraction(x):
    """sqrt(x) as a rational: exact when x is a perfect square, else a dyadic
    approximation with relative error <= 2**-128 (flagged False)."""
    if x < 0:
        raise ValueError(f"radicand must be nonnegative, got {x}")
    root = math.isqrt(x)
    if root * root == x:
        return Fraction(root), True
    return Fraction(math.isqrt(x << 256), 1 << 128), False


def reference_square_of_radical_sum(terms):
    """The running-Fraction form of square_of_radical_sum: one
    sqrt_as_fraction and one Fraction addition per cross term."""
    live = [(c, r) for c, r in terms if c != 0 and r != 0]
    total = Fraction(0)
    exact = True
    for i, (ci, ri) in enumerate(live):
        total += ci * ci * ri
        for cj, rj in live[i + 1 :]:
            root, ok = sqrt_as_fraction(ri * rj)
            total += 2 * ci * cj * root
            exact = exact and ok
    return total, exact


def guarded_radical_sum_bounds(terms):
    """Rationals lo <= (sum_i c_i sqrt(R_i))**2 <= hi from roots with 512
    guard bits: hi / lo - 1 is about 2**-511."""
    floor = sum(c * math.isqrt(r << 1024) for c, r in terms if r)
    ceil = floor + sum(c for c, r in terms if r)
    return Fraction(floor * floor, 1 << 1024), Fraction(ceil * ceil, 1 << 1024)


# radicands q*s**2 with squarefree q make R_i*R_j a perfect square whenever
# the two share q
_radicands = st.one_of(
    st.integers(0, 2**200),
    st.builds(lambda q, s: q * s * s, st.sampled_from([1, 2, 3, 6]), st.integers(0, 2**100)),
)


class TestLnInt:
    @given(st.integers(min_value=1, max_value=10**40))
    def test_matches_fraction_log(self, x):
        # compare against log via float when in range, else via scaling
        expected = math.log(float(Fraction(x))) if x < 2**53 else None
        if expected is not None:
            assert math.isclose(ln_int(x), expected, rel_tol=1e-14)
        else:
            hi = x >> (x.bit_length() - 40)
            approx = math.log(hi) + (x.bit_length() - 40) * math.log(2)
            assert math.isclose(ln_int(x), approx, rel_tol=1e-10)


class TestRadicals:
    def test_perfect_square(self):
        root, exact = sqrt_as_fraction(144)
        assert exact and root == 12

    def test_irrational_certified(self):
        root, exact = sqrt_as_fraction(2)
        assert not exact
        assert abs(float(root) - math.sqrt(2)) < 1e-15

    def test_square_of_radical_sum_exact_case(self):
        # (2*sqrt(9) + 1*sqrt(4))^2 = (6+2)^2 = 64
        total, exact = square_of_radical_sum([(2, 9), (1, 4)], {})
        assert exact and total == 64 * UNIT

    def test_square_of_radical_sum_irrational(self):
        # (1 + sqrt(3))^2 = 4 + 2 sqrt(3)
        total, exact = square_of_radical_sum([(1, 1), (1, 3)], {})
        assert not exact
        assert abs(total / UNIT - (4 + 2 * math.sqrt(3))) < 1e-14

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            square_of_radical_sum([(-1, 2)], {})

    @pytest.mark.parametrize("terms", [[(-1, 0)], [(0, -3)], [(2, 9), (-5, 0)]])
    def test_rejects_negative_in_terms_that_vanish(self, terms):
        with pytest.raises(ValueError):
            square_of_radical_sum(terms, {})

    @given(st.lists(st.tuples(st.integers(0, 2**64), _radicands), max_size=8))
    @example([(3, 8), (5, 18), (0, 7), (2, 0)])
    @example([(1, 2), (1, 3), (4, 12)])
    def test_matches_fraction_sum_reference(self, terms):
        total, exact = square_of_radical_sum(terms, {})
        ref_total, ref_exact = reference_square_of_radical_sum(terms)
        assert exact == ref_exact
        total = Fraction(total, UNIT)
        if exact:
            assert total == ref_total
        else:
            lo, hi = guarded_radical_sum_bounds(terms)
            assert total <= lo
            assert total >= (1 - Fraction(1, 2**127)) * hi

    def test_all_pairs_square_but_not_the_first_radicand(self):
        # sqrt(2) + 3 sqrt(8) + sqrt(18) = 10 sqrt(2)
        assert square_of_radical_sum([(1, 2), (3, 8), (1, 18)], {}) == (200 * UNIT, True)

    @pytest.mark.parametrize(
        "terms,merged",
        [
            ([(2, 3), (5, 7), (1, 3)], [(3, 3), (5, 7)]),
            ([(2, 3), (1, 3)], [(3, 3)]),
            ([(1, 8), (4, 50), (7, 8)], [(8, 8), (4, 50)]),
        ],
    )
    def test_repeated_radicand_adds_its_coefficients(self, terms, merged):
        assert square_of_radical_sum(terms, {}) == square_of_radical_sum(merged, {})

    @given(st.lists(st.lists(st.tuples(st.integers(0, 2**16), _radicands), max_size=6),
                    max_size=6))
    def test_shared_roots_match_fresh_roots(self, lists):
        roots = {}
        for terms in lists:
            assert square_of_radical_sum(terms, roots) == square_of_radical_sum(terms, {})

    @pytest.mark.parametrize(
        "terms,expected",
        [
            ([(0, 5), (3, 0), (2, 9)], (36 * UNIT, True)),
            ([(5, 0), (1, 2), (1, 8)], (18 * UNIT, True)),
            ([(0, 2), (1, 3)], (3 * UNIT, True)),
            ([(0, 0), (0, 7), (4, 0)], (0, True)),
        ],
    )
    def test_zero_terms_skipped_after_validation(self, terms, expected):
        assert square_of_radical_sum(terms, {}) == expected

    @given(st.lists(st.tuples(st.integers(0, 2**64), _radicands), max_size=8))
    @example([(3, 8), (5, 18), (0, 7), (2, 0)])
    @example([(1, 2), (1, 3), (4, 12)])
    def test_is_the_fraction_form_in_units_of_2_to_the_minus_256(self, terms):
        total, exact = square_of_radical_sum(terms, {})
        assert isinstance(total, int)
        assert (Fraction(total, UNIT), exact) == fraction_square_of_radical_sum(terms)
        if exact:
            assert total % UNIT == 0

    @given(
        st.lists(
            st.tuples(st.integers(0, 50), st.integers(0, 400)), min_size=0, max_size=6
        )
    )
    def test_matches_float_evaluation(self, terms):
        total, _ = square_of_radical_sum(terms, {})
        direct = sum(c * math.sqrt(r) for c, r in terms) ** 2
        assert abs(total / UNIT - direct) <= 1e-9 * max(1.0, direct)


class TestSumOfRadicalSquares:
    _blocks = st.lists(st.lists(st.tuples(st.integers(0, 2**32), _radicands), max_size=6),
                       max_size=8)

    @given(_blocks)
    @example([])
    @example([[]])
    @example([[(2, 9), (1, 4)], [(0, 3), (5, 0)], [(1, 2), (3, 8)]])
    @example([[(2, 9), (1, 4)], [(1, 1), (1, 3)], [(0, 7)]])
    def test_equals_a_running_fraction_sum_of_the_blocks(self, blocks):
        total, exact = Fraction(0), True
        for terms in blocks:
            block, ok = fraction_square_of_radical_sum(terms)
            total += block
            exact = exact and ok
        assert sum_of_radical_squares(iter(blocks)) == (total, exact)

    def test_rejects_negative_in_any_block(self):
        with pytest.raises(ValueError):
            sum_of_radical_squares([[(1, 2)], [(3, -1)]])


class TestFractionAlgebra:
    """The exact-scalar carrier is fractions.Fraction; pin the field axioms we
    rely on (always-reduced form, exact associativity/commutativity)."""

    fracs = st.fractions(
        min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=999
    )

    @given(fracs, fracs, fracs)
    def test_associative_commutative(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a and a * b == b * a
        assert a * (b + c) == a * b + a * c

    @given(fracs)
    def test_reduced_representation(self, a):
        assert math.gcd(a.numerator, a.denominator) == 1
        assert a.denominator > 0


def test_logsumexp_matches_direct():
    vals = [-2.0, 0.5, 3.0, -math.inf]
    direct = math.log(sum(math.exp(v) for v in vals if v != -math.inf))
    assert math.isclose(logsumexp(vals), direct, rel_tol=1e-14)
    assert logsumexp([-math.inf]) == -math.inf


def test_exp_normal_refuses_values_below_the_smallest_normal_float():
    ln_min = math.log(sys.float_info.min)
    assert math.isclose(exp_normal(ln_min), sys.float_info.min, rel_tol=1e-12)
    assert exp_normal(-1.5) == math.exp(-1.5)
    with pytest.raises(ValueError, match="--arith exact"):
        exp_normal(ln_min - 1e-9)
