"""Structural layer tests: ordering, sequences, permitted edges, blocks."""

from itertools import permutations

import pytest

from bpmdual._errors import (
    DegenerateSequenceError,
    NotSortedOrderedError,
    NotTotallyOrderedError,
)
from bpmdual.bigraph import BipartiteGraph, all_graphs
from bpmdual.ordered import (
    Block,
    RepresentingSequence,
    _chain_profile,
    block_decompose,
    canonical_sort,
    is_degenerate,
    is_sorted_ordered,
    is_totally_ordered,
    permitted_edges,
    representing_sequence,
)


def g(n, *edges):
    return BipartiteGraph.from_edges(n, edges)


def seq(n, *pairs):
    return RepresentingSequence(n, tuple(pairs))


def brute_totally_ordered(graph):
    """Try every left ordering and test the chain property directly."""
    for p in permutations(range(graph.n)):
        rows = [graph.rows[i] for i in p]
        if all(a & ~b == 0 for a, b in zip(rows, rows[1:])):
            return True
    return False


class TestTotallyOrdered:
    def test_perfect_matching_is_not(self):
        assert not is_totally_ordered(g(2, (1, 1), (2, 2)))

    def test_bicliques_are(self):
        # K_{s,t} inside K_{4,4}: s left vertices joined to t right vertices.
        for s in range(5):
            for t in range(5):
                rows = tuple([(1 << t) - 1] * s + [0] * (4 - s))
                assert is_totally_ordered(BipartiteGraph(4, rows))

    def test_empty_graph_is(self):
        assert is_totally_ordered(BipartiteGraph.empty(3))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_agrees_with_existential_oracle(self, n):
        for graph in all_graphs(n):
            assert is_totally_ordered(graph) == brute_totally_ordered(graph)


class TestCanonicalSort:
    def test_already_sorted(self):
        graph = g(2, (2, 1), (2, 2))
        h, lperm, rperm = canonical_sort(graph)
        assert h == graph
        assert lperm == (0, 1)
        assert rperm == (0, 1)

    def test_left_swap(self):
        h, lperm, _ = canonical_sort(g(2, (1, 1), (1, 2)))
        assert h == g(2, (2, 1), (2, 2))
        assert lperm == (1, 0)

    def test_complete_fixed(self):
        k33 = BipartiteGraph.complete(3)
        h, lperm, rperm = canonical_sort(k33)
        assert h == k33
        assert lperm == rperm == (0, 1, 2)

    def test_rejects_unordered(self):
        with pytest.raises(NotTotallyOrderedError):
            canonical_sort(g(2, (1, 1), (2, 2)))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_permutations_reproduce_output(self, n):
        for graph in all_graphs(n):
            if not is_totally_ordered(graph):
                continue
            h, lperm, rperm = canonical_sort(graph)
            assert is_sorted_ordered(h)
            col_position = {j: pos for pos, j in enumerate(rperm)}
            rebuilt = []
            for i in lperm:
                row = 0
                for j in range(n):
                    if graph.rows[i] >> j & 1:
                        row |= 1 << col_position[j]
                rebuilt.append(row)
            assert tuple(rebuilt) == h.rows

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_invariant_on_orbits(self, n):
        for graph in all_graphs(n):
            if not is_totally_ordered(graph):
                continue
            h = canonical_sort(graph)[0]
            for lp in permutations(range(n)):
                for rp in permutations(range(n)):
                    rows = [0] * n
                    for i in range(n):
                        for j in range(n):
                            if graph.rows[i] >> j & 1:
                                rows[lp[i]] |= 1 << rp[j]
                    permuted = BipartiteGraph(n, tuple(rows))
                    assert canonical_sort(permuted)[0] == h


class TestRepresentingSequence:
    def test_biclique_sequence(self):
        # K_{s,t} inside K_{n,n} is represented by (0, n-s), (t, n) when s < n.
        n, s, t = 4, 2, 3
        rows = tuple([0] * (n - s) + [(1 << t) - 1] * s)
        assert representing_sequence(BipartiteGraph(n, rows)).pairs == ((0, 2), (3, 4))

    def test_complete_sequence(self):
        assert representing_sequence(BipartiteGraph.complete(3)).pairs == ((3, 3),)

    def test_block_sequence(self):
        assert Block(4, 1, 2).sequence().pairs == ((1, 2), (4, 4))

    def test_rejects_unsorted(self):
        with pytest.raises(NotSortedOrderedError):
            representing_sequence(g(2, (1, 2)))

    def test_validation(self):
        with pytest.raises(ValueError):
            seq(2, (1, 1), (1, 2))  # d not strictly increasing
        with pytest.raises(ValueError):
            seq(2, (0, 1))  # k_t != n

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_round_trip_exhaustive(self, n):
        for graph in all_graphs(n):
            if not is_sorted_ordered(graph):
                continue
            assert representing_sequence(graph).decode() == graph

    @pytest.mark.parametrize("degrees, pairs", [
        ([3], ((3, 1),)),
        ([2, 2, 2, 2], ((2, 4),)),
        ([0, 1, 2, 3], ((0, 1), (1, 2), (2, 3), (3, 4))),
        ([0, 0, 0], ((0, 3),)),
        ([0, 0, 2, 2, 2, 5], ((0, 2), (2, 5), (5, 6))),
    ])
    def test_run_lengths(self, degrees, pairs):
        # the prefix rows of a sorted ordered graph with this degree profile
        assert _chain_profile(tuple((1 << d) - 1 for d in degrees)) == pairs

    def test_run_sizes(self):
        assert seq(6, (0, 2), (2, 5), (5, 6)).run_sizes() == ([2, 3, 1], [0, 2, 3, 1])
        assert seq(3, (3, 3)).run_sizes() == ([3], [3, 0])

    def test_text_form_round_trip(self):
        s = seq(8, (2, 2), (5, 5), (8, 8))
        assert str(s) == "8; (2,2)(5,5)(8,8)"
        assert RepresentingSequence.parse("8; (2,2)(5,5)(8,8)") == s


class TestPermittedEdges:
    def test_block_bands(self):
        # <n,d,k>-block: rows 1..k get columns d+1..n, rows k+1..n get none.
        p = permitted_edges(seq(4, (1, 2), (4, 4)))
        assert set(p) == {(i, j) for i in (1, 2) for j in (2, 3, 4)}

    def test_complete_graph_none(self):
        assert len(permitted_edges(seq(3, (3, 3)))) == 0

    def test_empty_graph_all(self):
        assert len(permitted_edges(seq(3, (0, 3)))) == 9

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_disjoint_from_graph(self, n):
        for s in _all_sequences(n):
            graph = s.decode()
            for i, j in permitted_edges(s):
                assert not graph.has_edge(i, j)


def _all_sequences(n):
    """Every valid representing sequence for side size n (test-local)."""
    out = []

    def extend(pairs, last_d, last_k):
        for k in range(last_k + 1, n + 1):
            for d in range(last_d + 1, n + 1):
                if k == n:
                    out.append(RepresentingSequence(n, tuple(pairs + [(d, k)])))
                extend(pairs + [(d, k)], d, k)

    extend([], -1, 0)
    return out


class TestDegenerate:
    def test_examples(self):
        assert is_degenerate(seq(2, (0, 1), (1, 2)))
        assert not is_degenerate(seq(2, (0, 1), (2, 2)))
        assert not is_degenerate(seq(2, (2, 2)))


class TestBlockDecompose:
    def test_single_block(self):
        blocks, final = block_decompose(seq(4, (1, 2), (4, 4)))
        assert blocks == [Block(4, 1, 2)]
        assert final == (4 - 2 - 1, 0)

    def test_complete(self):
        blocks, final = block_decompose(seq(3, (3, 3)))
        assert blocks == []
        assert final == (2, 0)

    def test_two_pairs(self):
        blocks, final = block_decompose(seq(2, (1, 1), (2, 2)))
        assert blocks == [Block(2, 1, 1)]
        assert final == (0, 0)

    def test_rejects_degenerate(self):
        with pytest.raises(DegenerateSequenceError):
            block_decompose(seq(2, (0, 1), (1, 2)))
