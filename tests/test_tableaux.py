import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import count_ssyt_brute, count_syt_brute, growth_paths_brute, syt_count_hook
from portcap.tableaux import (
    add_boxes,
    as_diagram,
    enumerate_diagrams,
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
