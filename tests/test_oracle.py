"""Brute-force oracle tests: the oracles agree with one another and with
the closed form, and the documented anomalies hold exactly as recorded."""

import random
import time
import tracemalloc
from itertools import permutations

import numpy as np
import pytest

from bpmdual._errors import EmptyGraphError, PreconditionError, SizeLimitError
from bpmdual import oracle
from bpmdual.bigraph import (
    BipartiteGraph,
    all_graphs,
    connected_components,
    is_elementary,
    is_matching_covered,
)
from bpmdual.coeff import dual_coefficient
from bpmdual.oracle import (
    _chi_sum_raw,
    _covered_components,
    _elementary_sum,
    _holds_rectangle,
    _lattice_sweep,
    _mobius_nonzeros,
    _permutation_masks,
    _rectangles,
    _signed_walk,
    bpm_star_value,
    coefficient_table,
    elementary_sum_coefficient,
    mc_chi_sum_coefficient,
    mobius_coefficient,
    mobius_transform,
    permitted_sum_coefficient,
    star_table,
    verify_counts,
    zeta_transform,
)
from bpmdual.ordered import Block, is_sorted_ordered
from bpmdual.polyspace import DualPolynomial, evaluate, materialize, monomial_count


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

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_packed_matches_permutation_scan(self, n):
        packed = star_table(n, packed=True)
        assert packed.dtype == np.uint8
        assert len(packed) == max(8, (1 << (n * n)) >> 3)  # padded to one word
        values = np.unpackbits(packed, count=1 << (n * n), bitorder="little")
        assert np.array_equal(values, permutation_scan_star(n))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_matcher(self, n):
        table = star_table(n)
        for graph in all_graphs(n):
            assert table[graph.mask] == bpm_star_value(graph), graph

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_side_below_one(self, n):
        with pytest.raises(ValueError, match="side size must be positive"):
            star_table(n)

    def test_n5_allocates_only_the_table(self):
        tracemalloc.start()
        try:
            table = star_table(5, huge=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.nbytes == 1 << 25
        # the table plus the packed bytes it is unpacked from, plus 1 MiB
        assert peak <= table.nbytes + (table.nbytes >> 3) + (1 << 20)

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


def parity_with_noise(rng, bits, rate):
    """0/1 array: the parity of each index's popcount, flipped at random with
    probability rate.  Its Mobius coefficients reach about 2^(bits-1)."""
    idx = np.arange(1 << bits)
    parity = np.zeros(1 << bits, dtype=bool)
    for b in range(bits):
        parity ^= (idx >> b & 1).astype(bool)
    return (parity ^ (rng.random(1 << bits) < rate)).astype(np.int8)


def packed(values):
    return np.packbits(values, bitorder="little")


def up_closure(bits, seeds):
    """0/1 array: 1 on every mask above one of seeds.  Its Mobius transform
    is nonzero only on unions of seeds, at most 2^len(seeds) - 1 masks."""
    idx = np.arange(1 << bits)
    values = np.zeros(1 << bits, dtype=bool)
    for seed in seeds:
        values |= (idx & seed) == seed
    return values.astype(np.int8)


def assert_nonzeros_match(values, bits):
    reference = mobius_transform(values, bits)
    masks, coeffs = _mobius_nonzeros(packed(values), bits)
    expected = np.flatnonzero(reference)
    assert np.array_equal(masks, expected)
    assert np.array_equal(coeffs, reference[expected])
    return reference


class TestMobiusNonzeros:
    @pytest.mark.parametrize("rate", [0.02, 0.3])
    def test_matches_mobius_transform_over_many_blocks(self, monkeypatch, rate):
        # 2^8 rows of 2^5 entries: 2^13-entry blocks, 2^7 of them, and the 7
        # bits above a block swept in int8.
        monkeypatch.setattr(oracle, "_BLOCK_ROWS", 1 << 8)
        values = parity_with_noise(np.random.default_rng(20261020), 20, rate)
        reference = assert_nonzeros_match(values, 20)
        assert np.abs(reference).max() > 1 << 15  # an int16 block would wrap

    @pytest.mark.parametrize("super_bits", [16, 13])
    def test_superblocks_match_mobius_transform(self, monkeypatch, super_bits):
        # 2^13-entry blocks in 2^super_bits-entry superblocks: the 20 - super_bits
        # top bits by inclusion-exclusion, super_bits - 13 sweeps in int8.
        monkeypatch.setattr(oracle, "_BLOCK_ROWS", 1 << 8)
        monkeypatch.setattr(oracle, "_SUPER_BITS", super_bits)
        values = parity_with_noise(np.random.default_rng(20261021), 20, 0.1)
        assert_nonzeros_match(values, 20)

    def test_refuses_more_than_seven_int8_sweeps(self, monkeypatch):
        # 2^12-entry blocks in 2^16-entry superblocks: 4 top bits plus 4 sweeps.
        monkeypatch.setattr(oracle, "_BLOCK_ROWS", 1 << 7)
        monkeypatch.setattr(oracle, "_SUPER_BITS", 16)
        with pytest.raises(AssertionError):
            _mobius_nonzeros(packed(np.zeros(1 << 20, dtype=np.int8)), 20)

    def test_allocates_less_than_the_unpacked_input(self, monkeypatch):
        monkeypatch.setattr(oracle, "_BLOCK_ROWS", 1 << 8)
        monkeypatch.setattr(oracle, "_SUPER_BITS", 16)
        seeds = [0x00013, 0x00C40, 0x31000, 0x80205, 0x4A800, 0x0F000]
        values = up_closure(20, seeds)
        packed_values = packed(values)
        tracemalloc.start()
        try:
            masks, _ = _mobius_nonzeros(packed_values, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < len(masks) < 1 << len(seeds)
        assert peak < values.nbytes
        assert_nonzeros_match(values, 20)

    def test_all_zero_input_has_no_terms(self, monkeypatch):
        # 2^9-entry blocks, pruned at 5, 1 and 0 bits, 2^7 of them.
        monkeypatch.setattr(oracle, "_BLOCK_ROWS", 1 << 4)
        masks, coeffs = _mobius_nonzeros(packed(np.zeros(1 << 16, dtype=np.int8)), 16)
        assert len(masks) == 0 and masks.dtype == np.int64 and coeffs.dtype == np.int32

    def test_all_one_input_has_only_the_constant_term(self, monkeypatch):
        monkeypatch.setattr(oracle, "_BLOCK_ROWS", 1 << 4)
        masks, coeffs = _mobius_nonzeros(packed(np.ones(1 << 16, dtype=np.int8)), 16)
        assert masks.tolist() == [0] and coeffs.tolist() == [1]

    @pytest.mark.parametrize("term", [(1 << 16) - 1, 0b1010_0001_1111_1111, 0b0001_1111])
    def test_term_at_the_end_of_its_rows(self, monkeypatch, term):
        # One coefficient, at a mask whose low bits are all set: in every row
        # that holds it while the block is pruned, only the last entry is nonzero.
        monkeypatch.setattr(oracle, "_BLOCK_ROWS", 1 << 4)
        values = up_closure(16, [term])
        masks, coeffs = _mobius_nonzeros(packed(values), 16)
        assert masks.tolist() == [term] and coeffs.tolist() == [1]
        assert_nonzeros_match(values, 16)

    @pytest.mark.parametrize("n", [1, 2])
    def test_block_narrower_than_one_pruning_step(self, monkeypatch, n):
        # Blocks of 2 bits: one pruning level that sweeps fewer than _PRUNE_BITS bits.
        monkeypatch.setattr(oracle, "_LOW_BITS", 1)
        monkeypatch.setattr(oracle, "_BLOCK_ROWS", 1 << 1)
        assert oracle._PRUNE_BITS > 2
        coeffs = mobius_transform(star_table(n), n * n)
        nz = np.flatnonzero(coeffs)
        assert list(coefficient_table(n).terms.items()) == list(zip(nz.tolist(), coeffs[nz].tolist()))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_table_equals_full_transform(self, n):
        coeffs = mobius_transform(star_table(n), n * n)
        nz = np.flatnonzero(coeffs)
        expected = dict(zip(nz.tolist(), coeffs[nz].tolist()))
        assert list(coefficient_table(n).terms.items()) == list(expected.items())


def corrupted(n, terms, rng):
    """terms with one coefficient +1, one term dropped and a spurious +3 on
    a mask where the table is zero."""
    out = dict(terms)
    raised = rng.choice([m for m, c in sorted(out.items()) if c != -1])
    out[raised] += 1
    del out[rng.choice([m for m in sorted(out) if m != raised])]
    out[rng.choice([m for m in range(1 << (n * n)) if m not in terms])] = 3
    return out


def dense_counts(n, terms):
    """verify_counts by whole-table transforms: the closed form as a dense
    int64 table against the Mobius transform of star_table, and its zeta
    transform against star_table."""
    bits = n * n
    closed = np.zeros(1 << bits, dtype=np.int64)
    closed[list(terms)] = list(terms.values())
    star = star_table(n)
    return (int(np.count_nonzero(mobius_transform(star, bits) != closed)),
            int(np.count_nonzero(zeta_transform(closed, bits) != star)))


class TestVerifyCounts:
    @pytest.mark.parametrize("super_bits", [10, 12])
    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_dense_reference(self, monkeypatch, n, super_bits):
        # 2^10-entry blocks; at n = 4 there are 2^(16 - super_bits) superblocks.
        monkeypatch.setattr(oracle, "_BLOCK_ROWS", 1 << 5)
        monkeypatch.setattr(oracle, "_SUPER_BITS", super_bits)
        truth = materialize(n)
        assert verify_counts(n, False, lambda _: truth) == (0, 0)
        rng = random.Random(20261020 + n)
        for _ in range(3):
            wrong = DualPolynomial(n, corrupted(n, truth.terms, rng))
            counts = verify_counts(n, False, lambda _: wrong)
            assert counts == dense_counts(n, wrong.terms)
            assert counts[0] == 3 and counts[1] > 0

    def test_n5_allocates_no_dense_table(self):
        # A dense closed form would be a 2^25-entry int32 table (128 MiB); the
        # superblock walk stays below half of that.
        prebuilt = materialize(5)
        tracemalloc.start()
        try:
            counts = verify_counts(5, True, lambda n: prebuilt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts == (0, 0)
        assert peak < 64 << 20


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


def subgraph_sign_sum(graph):
    """sum over H subseteq G of (-1)^(|E(G)| - |E(H)|) * BPM*(H), with one
    augmenting-path matching test per subgraph: the reference for the
    Frobenius-Konig walk in mobius_coefficient."""
    m = graph.mask
    acc, sub = 0, m
    while True:
        sign = -1 if (m.bit_count() - sub.bit_count()) & 1 else 1
        acc += sign * bpm_star_value(BipartiteGraph.from_mask(graph.n, sub))
        if sub == 0:
            return acc
        sub = (sub - 1) & m


def supergraph_sums(graph):
    """(raw chi sum, elementary sum) with one graph and the per-graph
    predicates per supergraph: the reference for the batched classifier."""
    n, m = graph.n, graph.mask
    free = ((1 << (n * n)) - 1) ^ m
    chi = elementary = 0
    sub = free
    while True:
        h = BipartiteGraph.from_mask(n, m | sub)
        sign = -1 if sub.bit_count() & 1 else 1
        if is_matching_covered(h):
            chi -= sign * (-1) ** connected_components(h)
            elementary += sign * is_elementary(h)
        if sub == 0:
            return chi, elementary
        sub = (sub - 1) & free


def sample_masks(n, count, seed):
    """Half a permutation plus random edges (often matching-covered), half
    uniform masks of random density."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        perm = rng.sample(range(n), n)
        mask = sum(1 << (i * n + perm[i]) for i in range(n)) if k % 2 else 0
        density = rng.uniform(0.0, 0.9)
        out.append(mask | sum(1 << b for b in range(n * n) if rng.random() < density))
    return out


class TestBatchedClassifier:
    """The numpy classifier of the supergraph oracles against the per-graph
    predicates: permutation-mask union instead of alternating reach, and a
    row-overlap closure instead of the component traversal."""

    @staticmethod
    def check(n, masks):
        comps = _covered_components(n, _permutation_masks(n), np.array(masks, dtype=np.int64))
        seen = set()
        for mask, c in zip(masks, comps.tolist()):
            graph = BipartiteGraph.from_mask(n, mask)
            covered = is_matching_covered(graph)
            assert (c > 0) == covered, graph
            assert (c == 1) == is_elementary(graph), graph
            if covered:
                assert c == connected_components(graph), graph
            seen.add(min(c, 2))
        return seen

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exhaustive(self, n):
        self.check(n, list(range(1 << (n * n))))

    @pytest.mark.parametrize("n", [4, 5])
    def test_seeded(self, n):
        # not covered, elementary, and covered with several components all occur
        assert self.check(n, sample_masks(n, 1500, seed=n)) == {0, 1, 2}


class TestWalks:
    def test_subset_walk_spans_blocks_in_order(self):
        bits = 14
        blocks = list(_signed_walk([1 << t for t in range(bits)]))
        assert len(blocks) == 1 << (bits - oracle._WALK_BITS)
        masks = np.concatenate([b[0] for b in blocks])
        signs = np.concatenate([b[1] for b in blocks])
        assert np.array_equal(masks, np.arange(1 << bits))
        assert signs.tolist() == [-1 if x.bit_count() & 1 else 1 for x in range(1 << bits)]

    def test_mobius_over_several_blocks(self):
        graph = BipartiteGraph.from_mask(4, 0xFFFF ^ 0b1000_0000_0000_0001)  # 14 edges
        assert mobius_coefficient(graph) == subgraph_sign_sum(graph) == dual_coefficient(graph)

    def test_supergraph_sums_over_several_blocks(self):
        graph = g(4, (1, 1), (1, 2), (2, 1))  # 13 free edges: two blocks
        chi, elementary = supergraph_sums(graph)
        assert _chi_sum_raw(graph) == chi == dual_coefficient(graph)
        # the sum behind elementary_sum_coefficient, whose precondition this graph fails
        assert _elementary_sum(4, graph.mask, 0xFFFF ^ graph.mask) == elementary

    def test_small_blocks_give_the_same_sums(self, monkeypatch):
        monkeypatch.setattr(oracle, "_WALK_BITS", 2)
        for graph in all_graphs(3):
            if graph.edge_count == 0:
                continue
            expected = dual_coefficient(graph)
            assert mobius_coefficient(graph) == expected, graph
            assert mc_chi_sum_coefficient(graph) == expected, graph
            try:
                assert elementary_sum_coefficient(graph) == expected, graph
            except PreconditionError:
                pass
            if is_sorted_ordered(graph):
                assert permitted_sum_coefficient(graph) == expected, graph

    def test_chi_sum_memory_is_one_block(self):
        graph = g(4, (1, 1))  # 2^15 supergraphs, eight blocks
        _chi_sum_raw(graph)  # numpy's first-use allocations stay out of the bound
        tracemalloc.start()
        try:
            _chi_sum_raw(graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one block of every array; the 2^15 supergraphs at once need 8x that
        assert peak < 1 << 20


class TestFrobeniusKonig:
    def test_star_of_every_mask_n4(self):
        # K_{4,4}'s compact edge index is the edge mask itself.
        rects = _rectangles(BipartiteGraph.complete(4))
        star = _holds_rectangle(np.arange(1 << 16, dtype=np.int64), rects)
        assert np.array_equal(star, star_table(4).astype(bool))

    @pytest.mark.parametrize("n", [8, 12])
    def test_mobius_matches_subgraph_sum(self, n):
        full = (1 << n) - 1
        graphs = [
            BipartiteGraph(n, (full,) + (0,) * (n - 1)),  # one full row
            BipartiteGraph(n, (full, 1) + (0,) * (n - 2)),  # a full row and one more edge
            BipartiteGraph(n, (1, 1, 1) + (0,) * (n - 4) + (0b1110,)),  # a short column and row
            BipartiteGraph.from_mask(n, sum(1 << (i * n + i) for i in range(n))),  # diagonal
        ]
        rng = random.Random(n)
        graphs += [BipartiteGraph.from_mask(n, sum(1 << b for b in rng.sample(range(n * n), 10)))
                   for _ in range(4)]
        values = []
        for graph in graphs:
            value = mobius_coefficient(graph)
            assert value == subgraph_sign_sum(graph) == dual_coefficient(graph), graph
            values.append(value)
        assert any(values)

    def test_no_rectangle_returns_zero_at_once(self):
        diagonal = BipartiteGraph.from_mask(16, sum(1 << (i * 16 + i) for i in range(16)))
        column = BipartiteGraph(26, (1,) * 25 + (0,))  # 2^25 row sets share its column
        for graph in (diagonal, column):
            start = time.perf_counter()
            assert mobius_coefficient(graph) == 0
            assert time.perf_counter() - start < 0.25


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

    def test_empty_graph_rejected(self):
        # empty(1) meets the component precondition; the sum would be -1
        with pytest.raises(EmptyGraphError):
            elementary_sum_coefficient(BipartiteGraph.empty(1))


class TestPermittedSum:
    def test_block(self):
        assert permitted_sum_coefficient(Block(4, 1, 2).decode()) == -2

    def test_complete(self):
        for n in (1, 2, 3):
            assert permitted_sum_coefficient(BipartiteGraph.complete(n)) == 1

    def test_isolated_plus_full_row(self):
        assert permitted_sum_coefficient(g(2, (2, 1), (2, 2))) == 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_empty_graph_rejected(self, n):
        # the sum would be -1, 1, -4, 33 where the true constant term is 0
        with pytest.raises(EmptyGraphError):
            permitted_sum_coefficient(BipartiteGraph.empty(n))

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

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_side_below_one(self, n):
        with pytest.raises(ValueError, match="side size must be positive"):
            coefficient_table(n)

    def test_n5_table(self):
        tracemalloc.start()
        try:
            table = coefficient_table(5, huge=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the packed table, one int8 superblock and its addend, one int32 block
        assert peak <= 16 << 20
        assert len(table) == monomial_count(5) == 95161
        assert table.terms == materialize(5).terms
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
