"""Closed-form coefficient tests, cross-validated against the Mobius oracle."""

import random

import pytest

from bpmdual import coeff
from bpmdual._errors import SizeLimitError
from bpmdual.bigraph import N_MAX, BipartiteGraph, all_graphs
from bpmdual.coeff import (
    binomial,
    block_coefficient,
    dual_coefficient,
    f_factor,
    sequence_coefficient,
)
from bpmdual.oracle import mobius_coefficient
from bpmdual.ordered import Block, RepresentingSequence, block_decompose
from bpmdual.polyspace import enumerate_sequences


def g(n, *edges):
    return BipartiteGraph.from_edges(n, edges)


def transpose(graph: BipartiteGraph) -> BipartiteGraph:
    """Swap the two bipartitions."""
    cols = [0] * graph.n
    for i, row in enumerate(graph.rows):
        r = row
        while r:
            j = (r & -r).bit_length() - 1
            cols[j] |= 1 << i
            r &= r - 1
    return BipartiteGraph(graph.n, tuple(cols))


class TestBinomial:
    def test_ordinary(self):
        assert binomial(3, 2) == 3
        assert binomial(0, 0) == 1

    def test_convention_zero(self):
        assert binomial(-1, 0) == 0
        assert binomial(2, -1) == 0
        assert binomial(2, 3) == 0


class TestFFactor:
    def test_nonpositive_d_branch(self):
        assert f_factor(4, 0, 2) == 3  # C(3, 2)
        assert f_factor(4, -1, 2) == 3

    def test_positive_d_branch(self):
        # Mobius oracle gives -1 for the 3-edge graph at n=2 whose only
        # factor this is (checked below via dual_coefficient agreement).
        assert f_factor(2, 1, 1) == -1

    def test_degenerate_binomial_vanishes(self):
        assert f_factor(3, 2, 3) == 0  # C(0, 1) = 0 in the d > 0 branch


class TestBlockCoefficient:
    def test_base_cases(self):
        # At n=2 only K_{2,2} contains these blocks among elementary graphs.
        assert block_coefficient(Block(2, 0, 1)) == 1
        assert block_coefficient(Block(2, 1, 1)) == -1

    def test_against_mobius(self):
        assert block_coefficient(Block(4, 1, 2)) == -2
        assert mobius_coefficient(Block(4, 1, 2).decode()) == -2

    def test_elementary_block_is_zero(self):
        assert block_coefficient(Block(4, 3, 2)) == 0
        assert mobius_coefficient(Block(4, 3, 2).decode()) == 0


class TestDualCoefficient:
    def test_complete_graph(self):
        for n in (1, 2, 3, 4):
            assert dual_coefficient(BipartiteGraph.complete(n)) == 1

    def test_not_totally_ordered_is_zero(self):
        graph = g(2, (1, 1), (2, 2))
        assert dual_coefficient(graph) == 0
        assert mobius_coefficient(graph) == 0

    def test_half_biclique(self):
        # Every left vertex joined to b_1..b_{n/2} at n=4: C(3, 2) = 3.
        rows = (0b0011,) * 4
        graph = BipartiteGraph(4, rows)
        assert dual_coefficient(graph) == 3
        assert mobius_coefficient(graph) == 3

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exhaustive_mobius_agreement(self, n):
        for graph in all_graphs(n):
            assert dual_coefficient(graph) == mobius_coefficient(graph), graph

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_transpose_invariance(self, n):
        for graph in all_graphs(n):
            assert dual_coefficient(graph) == dual_coefficient(transpose(graph))

    def test_transpose_invariance_n4(self):
        for mask in range(0, 1 << 16, 11):
            graph = BipartiteGraph.from_mask(4, mask)
            assert dual_coefficient(graph) == dual_coefficient(transpose(graph))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bipartition_permutation_invariance(self, n):
        from itertools import permutations

        for graph in all_graphs(n):
            c = dual_coefficient(graph)
            for lp in permutations(range(n)):
                rows = tuple(graph.rows[lp[i]] for i in range(n))
                assert dual_coefficient(BipartiteGraph(n, rows)) == c

    @pytest.mark.parametrize("n", range(1, 9))
    def test_magnitude_bound_over_sequences(self, n):
        cap = 1 << (2 * n)
        for s in enumerate_sequences(n):
            assert abs(sequence_coefficient(s)) <= cap


class NoWrap(list):
    """A list that refuses the negative indices a plain list would wrap."""

    def __getitem__(self, i):
        assert i >= 0, f"negative index {i}"
        return super().__getitem__(i)


def factor_product(s):
    """The closed form of the module docstring through binomial and f_factor."""
    value = binomial(s.n - s.k(s.t - 1) - 1, s.n - s.d(s.t))
    for i in range(1, s.t):
        value *= f_factor(s.d(i + 1) - s.k(i - 1), s.d(i) - s.k(i - 1), s.k(i) - s.k(i - 1))
    return value


def random_sequence(rng, n):
    t = rng.randint(1, n)
    ds = sorted(rng.sample(range(n + 1), t))
    ks = sorted(rng.sample(range(1, n), t - 1)) + [n]
    return RepresentingSequence(n, tuple(zip(ds, ks)))


class TestPascalTable:
    def test_entries_are_binomials(self):
        assert len(coeff._PASCAL) == N_MAX + 1
        for a, row in enumerate(coeff._PASCAL):
            assert row == [binomial(a, b) for b in range(N_MAX + 1)]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_closed_form_reads_no_negative_index(self, monkeypatch, n):
        # Every representing sequence of side n, degenerate ones included:
        # a negative index would wrap to the far end of a row or the table.
        monkeypatch.setattr(coeff, "_PASCAL", NoWrap(NoWrap(row) for row in coeff._PASCAL))
        for s in enumerate_sequences(n):
            assert sequence_coefficient(s) == factor_product(s), s

    def test_sides_up_to_the_cap(self, monkeypatch):
        monkeypatch.setattr(coeff, "_PASCAL", NoWrap(NoWrap(row) for row in coeff._PASCAL))
        rng = random.Random(20261020)
        for n in (N_MAX - 1, N_MAX):
            for _ in range(200):
                s = random_sequence(rng, n)
                assert sequence_coefficient(s) == factor_product(s), s
        with pytest.raises(SizeLimitError):
            sequence_coefficient(RepresentingSequence(N_MAX + 1, ((0, N_MAX + 1),)))


class TestBlockDecomposition:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_product_matches_formula(self, n):
        from bpmdual.coeff import binomial as binom
        from bpmdual.ordered import is_degenerate

        for s in enumerate_sequences(n):
            if is_degenerate(s):
                continue
            blocks, (a, b) = block_decompose(s)
            product = binom(a, b)
            for blk in blocks:
                product *= block_coefficient(blk)
            assert product == sequence_coefficient(s), s

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_product_matches_mobius(self, n):
        from bpmdual.ordered import is_degenerate

        for s in enumerate_sequences(n):
            if is_degenerate(s):
                continue
            blocks, (a, b) = block_decompose(s)
            product = binomial(a, b)
            for blk in blocks:
                product *= block_coefficient(blk)
            assert product == mobius_coefficient(s.decode()), s
