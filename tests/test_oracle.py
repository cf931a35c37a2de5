"""Brute-force oracle tests: the oracles agree with one another and with
the closed form, and the documented anomalies hold exactly as recorded."""

import random
import tracemalloc
from itertools import permutations

import numpy as np
import pytest

from bpmdual._errors import EmptyGraphError, PreconditionError, SizeLimitError
from bpmdual.bigraph import BipartiteGraph, all_graphs, is_matching_covered
from bpmdual.coeff import dual_coefficient
from bpmdual.oracle import (
    _chi_sum_raw,
    _lattice_sweep,
    bpm_star_value,
    coefficient_table,
    elementary_sum_coefficient,
    mc_chi_sum_coefficient,
    mobius_coefficient,
    mobius_transform,
    permitted_sum_coefficient,
    star_table,
    zeta_transform,
)
from bpmdual.ordered import Block, is_sorted_ordered
from bpmdual.polyspace import evaluate, monomial_count


def g(n, *edges):
    return BipartiteGraph.from_edges(n, edges)


class TestBpmStar:
    def test_complete(self):
        for n in (1, 2, 3):
            assert bpm_star_value(BipartiteGraph.complete(n)) == 1

    def test_empty(self):
        for n in (1, 2, 3):
            assert bpm_star_value(BipartiteGraph.empty(n)) == 0

    def test_row_pair(self):
        # Complement {(2,1),(2,2)} concentrates both edges at a_2: no PM.
        assert bpm_star_value(g(2, (1, 1), (1, 2))) == 1


def permutation_scan_star(n):
    """BPM* table by one full pass over all masks per permutation mask: the
    brute-force oracle for the superset closure in star_table."""
    size = 1 << (n * n)
    idx = np.arange(size, dtype=np.int64)
    has_pm = np.zeros(size, dtype=bool)
    for p in permutations(range(n)):
        pmask = sum(1 << (i * n + p[i]) for i in range(n))
        np.logical_or(has_pm, (idx & pmask) == pmask, out=has_pm)
    return (~has_pm[::-1]).astype(np.int64)


class TestStarTable:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_permutation_scan(self, n):
        table = star_table(n)
        assert table.dtype == np.int8
        assert np.array_equal(table, permutation_scan_star(n))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_matcher(self, n):
        table = star_table(n)
        for graph in all_graphs(n):
            assert table[graph.mask] == bpm_star_value(graph), graph

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_mutating_a_table_leaves_later_calls_alone(self, n):
        expected = coefficient_table(n).terms
        for table in (star_table(n), star_table(n, False), star_table(n, huge=False),
                      star_table(n, True), star_table(n, huge=True)):
            table[:] = 1
        assert coefficient_table(n).terms == expected


class TestLatticeTransforms:
    def test_int8_round_trip(self):
        table = star_table(4)
        coeffs = mobius_transform(table, 16)
        assert coeffs.dtype == np.int32
        assert np.array_equal(zeta_transform(coeffs, 16), table)

    def test_int64_round_trip(self):
        rng = np.random.default_rng(20261018)
        values = rng.integers(-(1 << 40), 1 << 40, size=1 << 12, dtype=np.int64)
        coeffs = mobius_transform(values, 12)
        assert coeffs.dtype == np.int64
        back = zeta_transform(coeffs, 12)
        assert back.dtype == np.int64
        assert np.array_equal(back, values)

    def test_input_left_unchanged(self):
        values = np.arange(16, dtype=np.int64)
        mobius_transform(values, 4)
        zeta_transform(values, 4)
        assert np.array_equal(values, np.arange(16))


def per_bit_sweep(a, bits, op):
    """One in-place pass per lattice bit over the whole array: the reference
    for the blocked sweep."""
    for b in range(bits):
        view = a.reshape(-1, 2, 1 << b)
        op(view[:, 1, :], view[:, 0, :], out=view[:, 1, :])
    return a


def random_values(rng, size, dtype):
    if dtype == np.bool_:
        return rng.random(size) < 0.1
    info = np.iinfo(dtype)
    return rng.integers(info.min, info.max, size=size, dtype=dtype, endpoint=True)


class TestLatticeSweep:
    @pytest.mark.parametrize("bits", range(7))
    @pytest.mark.parametrize("dtype, op", [
        (np.bool_, np.bitwise_or),
        *[(dtype, op) for dtype in (np.int8, np.int32, np.int64)
          for op in (np.bitwise_or, np.subtract, np.add)],
    ])
    def test_matches_per_bit_sweep(self, bits, dtype, op):
        values = random_values(np.random.default_rng(bits), 1 << bits, dtype)
        expected = per_bit_sweep(values.copy(), bits, op)
        swept = values.copy()
        assert _lattice_sweep(swept, bits, op) is swept
        assert np.array_equal(swept, expected)

    @pytest.mark.parametrize("op", [np.bitwise_or, np.subtract, np.add])
    def test_several_blocks(self, op):
        values = random_values(np.random.default_rng(20), 1 << 20, np.int64)
        expected = per_bit_sweep(values.copy(), 20, op)
        assert np.array_equal(_lattice_sweep(values, 20, op), expected)

    def test_mobius_allocates_little_beyond_its_output(self):
        values = (np.random.default_rng(1).random(1 << 20) < 0.5).astype(np.int32)
        tracemalloc.start()
        try:
            coeffs = mobius_transform(values, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert coeffs.nbytes <= peak <= coeffs.nbytes + (2 << 20)


class TestMobius:
    def test_path_graph(self):
        assert mobius_coefficient(g(2, (1, 1), (1, 2))) == 1

    def test_perfect_matching(self):
        assert mobius_coefficient(g(2, (1, 1), (2, 2))) == 0

    def test_complete(self):
        # 1 - 4 + 4 - 0 + 0 over the subset ranks of K_{2,2}.
        assert mobius_coefficient(BipartiteGraph.complete(2)) == 1

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            mobius_coefficient(BipartiteGraph.complete(6))


class TestChiSum:
    def test_examples(self):
        assert mc_chi_sum_coefficient(g(2, (1, 1), (1, 2))) == 1
        assert mc_chi_sum_coefficient(g(2, (1, 1), (2, 2))) == 0
        assert mc_chi_sum_coefficient(g(2, (1, 1), (1, 2), (2, 2))) == -1

    def test_empty_graph_rejected(self):
        with pytest.raises(EmptyGraphError):
            mc_chi_sum_coefficient(BipartiteGraph.empty(2))

    def test_documented_empty_graph_discrepancy(self):
        # The raw sign sum evaluates to -1 at the empty graph although the
        # true constant term is 0; the operation therefore excludes it.
        assert _chi_sum_raw(BipartiteGraph.empty(2)) == -1
        assert _chi_sum_raw(BipartiteGraph.empty(1)) == -1
        assert coefficient_table(2).constant_term == 0


class TestMatchingCoveredDiscrepancy:
    """Matching-covered graphs all have zero dual coefficient except the
    complete graph itself, whose coefficient is 1; the blanket zero claim
    sometimes quoted for this family fails exactly there."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_only_complete_graph_deviates(self, n):
        full_mask = (1 << (n * n)) - 1
        for graph in all_graphs(n):
            if not is_matching_covered(graph):
                continue
            expected = 1 if graph.mask == full_mask else 0
            assert dual_coefficient(graph) == expected, graph


class TestElementarySum:
    def test_examples(self):
        assert elementary_sum_coefficient(BipartiteGraph.complete(2)) == 1
        assert elementary_sum_coefficient(g(2, (1, 1), (1, 2), (2, 1))) == -1
        assert elementary_sum_coefficient(g(2, (2, 1), (2, 2))) == 1

    def test_component_precondition(self):
        with pytest.raises(PreconditionError):
            elementary_sum_coefficient(g(2, (1, 1), (2, 2)))
        with pytest.raises(PreconditionError):
            elementary_sum_coefficient(BipartiteGraph.empty(2))


class TestPermittedSum:
    def test_block(self):
        assert permitted_sum_coefficient(Block(4, 1, 2).decode()) == -2

    def test_complete(self):
        for n in (1, 2, 3):
            assert permitted_sum_coefficient(BipartiteGraph.complete(n)) == 1

    def test_isolated_plus_full_row(self):
        assert permitted_sum_coefficient(g(2, (2, 1), (2, 2))) == 1

    def test_rejects_unsorted(self):
        from bpmdual._errors import NotSortedOrderedError

        with pytest.raises(NotSortedOrderedError):
            permitted_sum_coefficient(g(2, (1, 1), (2, 2)))


class TestCoefficientTable:
    def test_n1(self):
        table = coefficient_table(1)
        assert table.terms == {1: 1}
        assert table.constant_term == 0

    def test_n2_nine_terms(self):
        table = coefficient_table(2)
        assert len(table) == 9
        by_degree = {}
        for mask, c in table.terms.items():
            by_degree.setdefault(mask.bit_count(), []).append(c)
        assert sorted(by_degree) == [2, 3, 4]
        assert by_degree[2] == [1, 1, 1, 1]
        assert by_degree[3] == [-1, -1, -1, -1]
        assert by_degree[4] == [1]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sum_of_entries_is_one(self, n):
        # Evaluation at the all-ones input: the complement is empty.
        assert sum(coefficient_table(n).terms.values()) == 1

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            coefficient_table(5)

    def test_n5_table(self):
        table = coefficient_table(5, huge=True)
        assert len(table) == monomial_count(5) == 95161
        rng = random.Random(20261018)
        nonzero = rng.sample(sorted(table.terms), 200)
        uniform = [rng.getrandbits(25) for _ in range(200)]
        for mask in nonzero + uniform:
            graph = BipartiteGraph.from_mask(5, mask)
            assert table.terms.get(mask, 0) == dual_coefficient(graph), graph

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_single_edge_coefficients(self, n):
        table = coefficient_table(n)
        expected = 1 if n == 1 else 0
        for bit in range(n * n):
            assert table.terms.get(1 << bit, 0) == expected


class TestConcordance:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_all_oracles_agree(self, n):
        for graph in all_graphs(n):
            if graph.edge_count == 0:
                continue
            expected = mobius_coefficient(graph)
            assert mc_chi_sum_coefficient(graph) == expected, graph
            assert dual_coefficient(graph) == expected, graph
            try:
                assert elementary_sum_coefficient(graph) == expected, graph
            except PreconditionError:
                pass
            if is_sorted_ordered(graph):
                assert permitted_sum_coefficient(graph) == expected, graph

    def test_sampled_agreement_n4(self):
        rng = random.Random(20260808)
        for _ in range(12):
            # bias toward denser graphs so supergraph sums stay small
            mask = rng.getrandbits(16) | rng.getrandbits(16)
            graph = BipartiteGraph.from_mask(4, mask)
            if graph.edge_count == 0:
                continue
            expected = mobius_coefficient(graph)
            assert dual_coefficient(graph) == expected, graph
            assert mc_chi_sum_coefficient(graph) == expected, graph


class TestReconstruction:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_subset_sums_recover_star(self, n):
        table = coefficient_table(n)
        star = star_table(n)
        size = 1 << (n * n)
        coeffs = np.zeros(size, dtype=np.int64)
        for mask, c in table.terms.items():
            coeffs[mask] = c
        assert np.array_equal(zeta_transform(coeffs, n * n), star)

    def test_pointwise_evaluation_n2(self):
        table = coefficient_table(2)
        for x in all_graphs(2):
            assert evaluate(table, x) == bpm_star_value(x)
