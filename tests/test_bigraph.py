"""Graph type and predicate tests, including the exhaustive small-n invariants."""

import random
from itertools import permutations

import pytest

from bpmdual._errors import SizeLimitError
from bpmdual.bigraph import (
    BipartiteGraph,
    _components,
    _has_pm_with_forced_edge,
    _matching_classes,
    all_graphs,
    complement,
    connected_components,
    has_perfect_matching,
    hetyei_conditions,
    is_elementary,
    is_matching_covered,
    parse_graph,
)


def g(n, *edges):
    return BipartiteGraph.from_edges(n, edges)


def cyclomatic_number(g: BipartiteGraph) -> int:
    """|E| - |V| + #components; zero exactly on forests."""
    return g.edge_count - 2 * g.n + connected_components(g)


K22 = BipartiteGraph.complete(2)
PM2 = g(2, (1, 1), (2, 2))
EMPTY2 = BipartiteGraph.empty(2)


def brute_has_pm(graph):
    """Independent oracle: try all n! permutations."""
    return any(
        all(graph.rows[i] >> p[i] & 1 for i in range(graph.n))
        for p in permutations(range(graph.n))
    )


def brute_is_forest(graph):
    """Independent acyclicity check: DFS looking for a back edge."""
    n = graph.n
    adj = {("a", i): [] for i in range(n)}
    adj.update({("b", j): [] for j in range(n)})
    for i in range(n):
        for j in range(n):
            if graph.rows[i] >> j & 1:
                adj[("a", i)].append(("b", j))
                adj[("b", j)].append(("a", i))
    seen = set()
    for start in adj:
        if start in seen:
            continue
        stack = [(start, None)]
        seen.add(start)
        while stack:
            vertex, parent = stack.pop()
            skipped_parent = False
            for nb in adj[vertex]:
                if nb == parent and not skipped_parent:
                    skipped_parent = True  # multigraphs cannot occur here
                    continue
                if nb in seen:
                    return False
                seen.add(nb)
                stack.append((nb, vertex))
    return True


class TestConstruction:
    def test_mask_round_trip(self):
        for mask in range(16):
            assert BipartiteGraph.from_mask(2, mask).mask == mask

    def test_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            BipartiteGraph(2, (4, 0))
        with pytest.raises(ValueError):
            BipartiteGraph(2, (0,))

    def test_rejects_oversize(self):
        with pytest.raises(SizeLimitError):
            BipartiteGraph.empty(33)

    def test_from_mask_equals_the_constructor(self):
        for n, mask in ((1, 1), (3, 0b101_011_110), (5, (1 << 25) - 1), (2, 0b1001), (32, 1 << 1023)):
            graph = BipartiteGraph.from_mask(n, mask)
            full = (1 << n) - 1
            rows = tuple((mask >> (i * n)) & full for i in range(n))
            assert graph == BipartiteGraph(n, rows) and hash(graph) == hash(BipartiteGraph(n, rows))

    @pytest.mark.parametrize("n, mask, error", [
        (0, 0, ValueError),
        (-1, 0, ValueError),
        (33, 0, SizeLimitError),
        (2, -1, ValueError),
        (2, 1 << 4, ValueError),
        (2, 17, ValueError),
        (2, 1 << 10, ValueError),
        (5, 1 << 25, ValueError),
    ])
    def test_from_mask_rejects(self, n, mask, error):
        # A mask with a bit at n^2 or above, or a negative one, names an edge
        # outside K_{n,n}: it is refused like an out-of-range edge, never cut.
        with pytest.raises(error):
            BipartiteGraph.from_mask(n, mask)

    def test_edges_are_one_based(self):
        assert g(2, (1, 2)).edges() == [(1, 2)]

    def test_parse_round_trip(self):
        text = "2\n10\n01"
        graph = parse_graph(text)
        assert graph == PM2
        assert str(graph) == text

    def test_parse_rejects_ragged_and_bad_chars(self):
        with pytest.raises(ValueError):
            parse_graph("2\n101\n01")
        with pytest.raises(ValueError):
            parse_graph("2\n1x\n01")
        with pytest.raises(ValueError):
            parse_graph("2\n10")


class TestPerfectMatching:
    def test_complete_has_pm(self):
        assert has_perfect_matching(K22)

    def test_empty_has_none(self):
        assert not has_perfect_matching(EMPTY2)

    def test_three_edge_graph(self):
        # Exhaustive check over both permutations of S_2 finds {(1,1),(2,2)}.
        assert has_perfect_matching(g(2, (1, 1), (1, 2), (2, 1)))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_agrees_with_permutation_oracle(self, n):
        for graph in all_graphs(n):
            assert has_perfect_matching(graph) == brute_has_pm(graph)

    def test_monotone_under_edge_addition(self):
        for graph in all_graphs(3):
            if not has_perfect_matching(graph):
                continue
            for i in range(3):
                for j in range(3):
                    rows = list(graph.rows)
                    rows[i] |= 1 << j
                    assert has_perfect_matching(BipartiteGraph(3, tuple(rows)))


class TestComplement:
    def test_complete_to_empty(self):
        for n in (1, 2, 3):
            assert complement(BipartiteGraph.complete(n)) == BipartiteGraph.empty(n)
            assert complement(BipartiteGraph.empty(n)) == BipartiteGraph.complete(n)

    def test_bitwise_negation(self):
        assert complement(g(2, (1, 1), (1, 2))) == g(2, (2, 1), (2, 2))

    def test_involution_and_edge_count(self):
        for graph in all_graphs(2):
            assert complement(complement(graph)) == graph
            assert graph.edge_count + complement(graph).edge_count == 4


class TestComponents:
    def test_empty_counts_isolated_vertices(self):
        assert connected_components(EMPTY2) == 4

    def test_complete_is_connected(self):
        assert connected_components(K22) == 1

    def test_perfect_matching_two_components(self):
        assert connected_components(PM2) == 2

    @staticmethod
    def bfs_components(graph):
        """(left mask, right mask) of each component with a left vertex, by
        breadth-first search over the 2n vertices from each unseen row."""
        n = graph.n
        edges = graph.edges()
        adjacent = {v: set() for v in [("a", i) for i in range(n)] + [("b", j) for j in range(n)]}
        for i, j in edges:
            adjacent[("a", i - 1)].add(("b", j - 1))
            adjacent[("b", j - 1)].add(("a", i - 1))
        seen, comps = set(), []
        for start in range(n):
            if ("a", start) in seen:
                continue
            queue, component = [("a", start)], {("a", start)}
            while queue:
                for w in adjacent[queue.pop(0)] - component:
                    component.add(w)
                    queue.append(w)
            seen |= component
            left = sum(1 << k for side, k in component if side == "a")
            right = sum(1 << k for side, k in component if side == "b")
            comps.append((left, right))
        return comps

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_bfs_exhaustive(self, n):
        for graph in all_graphs(n):
            assert _components(graph) == self.bfs_components(graph), graph

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_matches_bfs_seeded(self, n):
        for graph in seeded_graphs(n, 200, seed=n):
            assert _components(graph) == self.bfs_components(graph), graph


class TestCyclomatic:
    def test_values(self):
        assert cyclomatic_number(K22) == 1
        assert cyclomatic_number(PM2) == 0
        for n in (1, 2, 3):
            assert cyclomatic_number(BipartiteGraph.empty(n)) == 0

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_nonnegative_and_forest_iff_zero(self, n):
        limit = 1 << (n * n)
        step = 1 if n <= 3 else 37  # sampled stride at n=4 keeps this quick
        for mask in range(0, limit, step):
            graph = BipartiteGraph.from_mask(n, mask)
            chi = cyclomatic_number(graph)
            assert chi >= 0
            assert (chi == 0) == brute_is_forest(graph)


class TestMatchingCovered:
    def test_perfect_matching_is_covered(self):
        assert is_matching_covered(PM2)

    def test_uncovered_edge(self):
        # Only PM is {(1,1),(2,2)}; edge (1,2) participates in none.
        assert not is_matching_covered(g(2, (1, 1), (1, 2), (2, 2)))

    def test_empty_graph_excluded_by_decision(self):
        assert not is_matching_covered(EMPTY2)
        assert not is_matching_covered(BipartiteGraph.empty(1))

    def test_implies_perfect_matching(self):
        for graph in all_graphs(3):
            if is_matching_covered(graph):
                assert has_perfect_matching(graph)


class TestElementary:
    def test_examples(self):
        assert is_elementary(K22)
        assert not is_elementary(PM2)
        assert is_elementary(BipartiteGraph.complete(1))


def per_edge_matching_covered(graph):
    """Test-local definition: a perfect matching exists and every edge lies
    in one, asked edge by edge."""
    return has_perfect_matching(graph) and all(
        _has_pm_with_forced_edge(graph, i - 1, j - 1) for i, j in graph.edges()
    )


def per_edge_elementary(graph):
    return connected_components(graph) == 1 and per_edge_matching_covered(graph)


def seeded_graphs(n, count, seed):
    """Half planted perfect matchings with sparse extra edges (often not
    matching-covered), half uniform graphs of random density."""
    rng = random.Random(seed)
    for _ in range(count):
        if rng.random() < 0.5:
            perm = list(range(n))
            rng.shuffle(perm)
            mask = sum(1 << (i * n + perm[i]) for i in range(n))
            density = rng.uniform(0.0, 0.5)
        else:
            mask = 0
            density = rng.uniform(0.1, 0.9)
        for b in range(n * n):
            if rng.random() < density:
                mask |= 1 << b
        yield BipartiteGraph.from_mask(n, mask)


class TestAlternatingReach:
    """One perfect matching plus alternating reachability equals the
    per-edge definitions of both predicates, and its classes are the
    components."""

    @staticmethod
    def check(graphs):
        seen = set()
        for graph in graphs:
            n, rows = graph.n, graph.rows
            covered = per_edge_matching_covered(graph)
            elementary = per_edge_elementary(graph)
            assert is_matching_covered(graph) == covered, graph
            assert is_elementary(graph) == elementary, graph
            seen.add((covered, elementary))
            match, classes = _matching_classes(n, rows)
            assert (match is not None) == has_perfect_matching(graph), graph
            if match is not None:  # a perfect matching of these rows, column -> row
                assert all(rows[i] >> j & 1 for j, i in enumerate(match)), graph
                assert sorted(match) == list(range(n)), graph
            if classes is not None:
                assert len(classes) == connected_components(graph), graph
                left = 0
                for c in classes:
                    assert c & left == 0
                    left |= c
                assert left == (1 << n) - 1
        return seen

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exhaustive(self, n):
        self.check(all_graphs(n))

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_seeded(self, n):
        seen = self.check(seeded_graphs(n, 1500, seed=n))
        # every outcome is exercised, including matching-covered but disconnected
        assert seen == {(False, False), (True, False), (True, True)}


class TestHetyei:
    def test_complete_all_true(self):
        assert hetyei_conditions(K22).as_tuple() == (True,) * 5

    def test_perfect_matching_all_false(self):
        assert hetyei_conditions(PM2).as_tuple() == (False,) * 5

    def test_empty_all_false(self):
        assert hetyei_conditions(EMPTY2).as_tuple() == (False,) * 5

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            hetyei_conditions(BipartiteGraph.empty(6))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equivalence_exhaustive(self, n):
        for graph in all_graphs(n):
            conditions = hetyei_conditions(graph)
            assert conditions.all_equal(), (graph, conditions)
