import itertools
import math
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import count_ssyt_brute, count_syt_brute, growth_paths_brute, syt_count_hook
from portcap.tableaux import (
    add_boxes,
    as_diagram,
    enumerate_diagrams,
    isotypic_dimensions,
    ssyt_count,
    syt_count,
)


@st.composite
def diagrams(draw, max_boxes=8, max_rows=4):
    n = draw(st.integers(min_value=0, max_value=max_boxes))
    options = enumerate_diagrams(n, max_rows)
    return draw(st.sampled_from(options))


class TestDiagramBasics:
    def test_canonicalization_trims_zeros(self):
        assert as_diagram([3, 1, 0, 0]) == (3, 1)
        assert as_diagram([]) == ()

    def test_rejects_increasing_rows(self):
        with pytest.raises(ValueError):
            as_diagram([1, 2])

    def test_enumeration_order_four_boxes(self):
        assert enumerate_diagrams(4, 4) == [
            (4,),
            (3, 1),
            (2, 2),
            (2, 1, 1),
            (1, 1, 1, 1),
        ]

    def test_enumeration_row_restricted(self):
        assert enumerate_diagrams(4, 2) == [(4,), (3, 1), (2, 2)]

    def test_zero_boxes(self):
        assert enumerate_diagrams(0, 3) == [()]

    @given(st.integers(0, 12), st.integers(1, 5))
    def test_enumeration_is_lex_decreasing_and_valid(self, n, rows):
        out = enumerate_diagrams(n, rows)
        assert out == sorted(out, reverse=True)
        assert len(set(out)) == len(out)
        for mu in out:
            assert sum(mu) == n and len(mu) <= rows
            assert as_diagram(mu) == mu


class TestCounts:
    def test_syt_examples(self):
        assert syt_count((2, 1, 1)) == 3
        assert syt_count((2, 2)) == 2
        for n in (1, 3, 9):
            assert syt_count((n,)) == 1

    def test_ssyt_examples(self):
        assert ssyt_count((3, 1), 2) == 3
        assert ssyt_count((3,), 2) == 4  # one-row shape of 2j boxes has 2j+1 fillings
        assert ssyt_count((1, 1, 1), 2) == 0

    def test_ssyt_matches_the_product_over_all_padded_row_pairs(self):
        # the Weyl form over every pair of the d padded rows, pairs of two
        # empty rows included
        for d in range(1, 7):
            pairs = list(itertools.combinations(range(d), 2))
            for n in range(9):
                for mu in enumerate_diagrams(n, d):
                    rows = mu + (0,) * (d - len(mu))
                    num = math.prod(rows[i] - rows[j] + j - i for i, j in pairs)
                    assert ssyt_count(mu, d) == num // math.prod(j - i for i, j in pairs), (mu, d)

    @settings(max_examples=60, deadline=None)
    @given(diagrams(max_boxes=8, max_rows=4))
    def test_syt_hook_formula_vs_enumeration(self, mu):
        assert syt_count(mu) == count_syt_brute(mu)

    @settings(max_examples=40, deadline=None)
    @given(diagrams(max_boxes=6, max_rows=3), st.integers(1, 3))
    def test_ssyt_weyl_formula_vs_enumeration(self, mu, d):
        assert ssyt_count(mu, d) == count_ssyt_brute(mu, d)

    def test_syt_matches_hook_length_product_on_large_shapes(self):
        shapes = enumerate_diagrams(40, 4) + enumerate_diagrams(14, 14)
        shapes += [(300, 200, 100), (120, 120, 7, 7, 1), (1,) * 60, (9,) * 9]
        for mu in shapes:
            assert syt_count(mu) == syt_count_hook(mu), mu

    @pytest.mark.parametrize("d", [2, 3])
    def test_schur_weyl_dimension_count(self, d):
        # sum over diagrams of multiplicity * irrep dimension fills d**n
        for n in range(11):
            total = sum(
                ssyt_count(mu, d) * syt_count(mu) for mu in enumerate_diagrams(n, d)
            )
            assert total == d**n


def one_pass_dimension(mu, d):
    """m_mu d_mu in one pass over d padded rows: with l_i = mu_i + d - i and
    V = prod_{i<j} (l_i - l_j), the Weyl form m_mu = V / prod_{i<j} (j - i)
    and Frobenius' d_mu = n! V / prod_i l_i! give n! V**2 / (prod_{i<d} i! *
    prod_i l_i!): each value counted on its own, with no ratio steps."""
    ell = [row + d - i for i, row in enumerate(mu + (0,) * (d - len(mu)), 1)]
    vandermonde = math.prod(li - lj for i, li in enumerate(ell) for lj in ell[i + 1 :])
    den = math.prod(math.factorial(i) for i in range(d)) * math.prod(map(math.factorial, ell))
    return math.factorial(sum(mu)) * vandermonde * vandermonde // den


class TestIsotypicDimensions:
    """The ratio walk against the counts it steps between: the same diagrams
    in the same order, each with m_mu d_mu."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 40), st.integers(1, 6))
    @example(0, 1)
    @example(0, 6)
    @example(3, 6)
    @example(40, 6)
    def test_walk_yields_every_diagram_with_its_count(self, n, d):
        walk = list(isotypic_dimensions(n, d))
        assert [mu for mu, _ in walk] == enumerate_diagrams(n, d)
        for mu, dim in walk:
            assert dim == ssyt_count(mu, d) * syt_count(mu) == one_pass_dimension(mu, d), (mu, d)
        assert sum(dim for _, dim in walk) == d**n

    @pytest.mark.parametrize("d", [50, 300, 1000])
    def test_walk_skips_the_empty_rows_at_large_d(self, d):
        # pairs of two empty padded rows cancel; multiplying them out took
        # over a minute at (2, 1000)
        for n in range(5):
            start = time.perf_counter()
            walk = list(isotypic_dimensions(n, d))
            assert time.perf_counter() - start < 1.0, (n, d)
            assert walk == [(mu, ssyt_count(mu, d) * syt_count(mu))
                            for mu in enumerate_diagrams(n, d)]

    @pytest.mark.parametrize("n,d", [(20, 1000), (30, 100)])
    def test_walk_step_cost_does_not_grow_with_d(self, n, d):
        # each changed row's factors against the empty padded rows telescope;
        # one factor per empty row took 17 s at (20, 1000) and 2.2 s at
        # (30, 100), the telescoped walk about 0.2 s each
        start = time.perf_counter()
        walk = list(isotypic_dimensions(n, d))
        assert time.perf_counter() - start < 2.0
        assert [mu for mu, _ in walk] == enumerate_diagrams(n, d)
        assert sum(dim for _, dim in walk) == d**n
        for mu, dim in walk[::50]:
            assert dim == ssyt_count(mu, d) * syt_count(mu), mu

    def test_small_walks(self):
        assert list(isotypic_dimensions(0, 3)) == [((), 1)]
        assert list(isotypic_dimensions(3, 1)) == [((3,), 1)]
        assert list(isotypic_dimensions(3, 2)) == [((3,), 4), ((2, 1), 4)]

    @pytest.mark.parametrize("n,d", [(-1, 3), (4, 0)])
    def test_rejects_bad_args(self, n, d):
        with pytest.raises(ValueError):
            list(isotypic_dimensions(n, d))


def contents(mu):
    """Contents (column minus row) of the boxes of mu."""
    return [j - i for i, row in enumerate(mu) for j in range(row)]


class TestHookContent:
    """d_mu / m_mu = n! / prod_{box} (d + c(box)), the identity behind
    psucc_exact's closed form, and the minimizer it implies."""

    def test_ratio_on_every_diagram_up_to_12_boxes(self):
        for n in range(13):
            for d in range(2, 7):
                for mu in enumerate_diagrams(n, d):
                    expected = Fraction(math.factorial(n), math.prod(d + c for c in contents(mu)))
                    assert Fraction(syt_count(mu), ssyt_count(mu, d)) == expected, (mu, d)

    def test_first_row_extension_minimizes_every_block(self):
        for d in range(2, 6):
            for n in range(10):
                for alpha in enumerate_diagrams(n, d):
                    for k in range(1, 6):
                        ratios = {mu: Fraction(syt_count(mu), ssyt_count(mu, d))
                                  for mu, _ in add_boxes(alpha, k, d)}
                        top = ((alpha[0] if alpha else 0) + k, *alpha[1:])
                        assert ratios[top] == min(ratios.values()), (alpha, k, d)


class TestBoxAddition:
    def test_single_path_example(self):
        assert add_boxes((1,), 2, 2) == [((3,), 1), ((2, 1), 2)]

    def test_empty_start(self):
        assert add_boxes((), 1, 3) == [((1,), 1)]

    def test_single_addable_corner(self):
        assert add_boxes((2, 2), 1, 2) == [((3, 2), 1)]

    def test_one_box_counts_are_one(self):
        for mu in enumerate_diagrams(6, 3):
            added = add_boxes(mu, 1, 3)
            assert [c for _, c in added] == [1] * len(added)

    @settings(max_examples=30, deadline=None)
    @given(diagrams(max_boxes=5, max_rows=3), st.integers(1, 4), st.integers(1, 4))
    def test_recursion_vs_brute_paths(self, alpha, k, max_rows):
        if len(alpha) > max_rows:
            return
        reached = dict(add_boxes(alpha, k, max_rows))
        for mu in enumerate_diagrams(sum(alpha) + k, max_rows):
            assert reached.get(mu, 0) == growth_paths_brute(alpha, mu, max_rows)


def gap_class_shift(alpha, k, d):
    """The smallest diagram whose row gaps over d padded rows are those of
    ``alpha`` capped at k, and the row-by-row shift from it to ``alpha``."""
    rows = alpha + (0,) * (d - len(alpha))
    gaps = [min(a - b, k) for a, b in zip(rows, rows[1:])]
    smallest = tuple(sum(gaps[i:]) for i in range(d - 1)) + (0,)
    return as_diagram(smallest), tuple(a - s for a, s in zip(rows, smallest))


def shifted(mu, shift):
    padded = mu + (0,) * (len(shift) - len(mu))
    return as_diagram(m + s for m, s in zip(padded, shift))


class TestGapClassInvariance:
    """add_boxes depends on alpha only through its row gaps capped at k:
    fidelity_exact grows each class once and shifts the table onto alpha."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.data())
    def test_table_is_the_representative_table_shifted(self, d, k, data):
        gaps = data.draw(st.lists(st.integers(0, k + 3), min_size=d, max_size=d))
        alpha = as_diagram(sum(gaps[i:]) for i in range(d))
        smallest, shift = gap_class_shift(alpha, k, d)
        expected = [(shifted(mu, shift), paths) for mu, paths in add_boxes(smallest, k, d)]
        assert add_boxes(alpha, k, d) == expected

    def test_cap_below_k_loses_targets(self):
        # at d = k = 2 the gap 2 of (2,) lets the second row take both boxes;
        # with the cap at k - 1 = 1, (2,) would share the table of (1,),
        # whose second row is blocked after one box
        assert ((2, 2), 1) in add_boxes((2,), 2, 2)
        assert [shifted(mu, (1, 0)) for mu, _ in add_boxes((1,), 2, 2)] == [(4,), (3, 1)]
