"""Polynomial-space tests: enumeration, orbit counting, bounds, serialization.

Pinned values (121 monomials at n=3, 2721 at n=4, max |a*| = 4 at n=4) were
derived from the subset-lattice inversion table and frozen here.  Sequence
enumeration is the oracle of the transfer-matrix counts, and the scan of all
2^(n^2) edge sets (`mask_scan_materialize`) the oracle of the orbit
expansion in `materialize`.
"""

import math
import random

import pytest

from bpmdual._errors import DimensionMismatchError, SizeLimitError
from bpmdual.bigraph import BipartiteGraph, all_graphs
from bpmdual.coeff import binomial, dual_coefficient, sequence_coefficient
from bpmdual.oracle import bpm_star_value, coefficient_table
from bpmdual.ordered import RepresentingSequence, is_degenerate, is_totally_ordered
from bpmdual.polyspace import (
    COUNT_N_MAX,
    MATERIALIZE_N_MAX,
    DualPolynomial,
    _sequence_dp,
    bound_report,
    enumerate_sequences,
    evaluate,
    labeled_count,
    materialize,
    max_abs_coefficient,
    monomial_count,
    tsv_side_size,
)


def seq(n, *pairs):
    return RepresentingSequence(n, tuple(pairs))


def mask_scan_materialize(n):
    """The polynomial from the closed form on every one of the 2^(n^2) edge sets."""
    terms = {}
    for mask in range(1 << (n * n)):
        c = dual_coefficient(BipartiteGraph.from_mask(n, mask))
        if c:
            terms[mask] = c
    return DualPolynomial(n, terms)


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("build", [
    materialize, monomial_count, max_abs_coefficient, bound_report,
    pytest.param(lambda n: list(enumerate_sequences(n)), id="enumerate_sequences"),
])
def test_side_size_below_one_rejected(build, n):
    with pytest.raises(ValueError, match=f"side size must be positive, got {n}"):
        build(n)


class TestEnumerateSequences:
    def test_n1(self):
        assert [s.pairs for s in enumerate_sequences(1)] == [((0, 1),), ((1, 1),)]

    def test_n2_all(self):
        got = {s.pairs for s in enumerate_sequences(2)}
        assert got == {
            ((0, 2),),
            ((1, 2),),
            ((2, 2),),
            ((0, 1), (1, 2)),
            ((0, 1), (2, 2)),
            ((1, 1), (2, 2)),
        }

    def test_n2_nonzero_only(self):
        got = {s.pairs for s in enumerate_sequences(2) if sequence_coefficient(s) != 0}
        assert got == {
            ((1, 2),),
            ((2, 2),),
            ((0, 1), (2, 2)),
            ((1, 1), (2, 2)),
        }

    def test_lexicographic_order(self):
        flat = [sum(s.pairs, ()) for s in enumerate_sequences(4)]
        assert flat == sorted(flat)

    def test_unique_and_complete(self):
        # Vandermonde over lengths: sum_t C(n+1, t) * C(n-1, t-1) = C(2n, n).
        for n in (1, 2, 3, 4, 5):
            seqs = list(enumerate_sequences(n))
            assert len(seqs) == len(set(seqs)) == math.comb(2 * n, n)

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            next(enumerate_sequences(11))


class TestLabeledCount:
    def test_complete_is_rigid(self):
        assert labeled_count(seq(2, (2, 2))) == 1

    def test_examples_against_exhaustive_scan(self):
        # Frozen from the 16-graph scan at n=2.
        assert labeled_count(seq(2, (0, 1), (2, 2))) == 2
        assert labeled_count(seq(2, (1, 1), (2, 2))) == 4

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_orbit_sizes_cover_all_ordered_graphs(self, n):
        from bpmdual.ordered import canonical_sort

        by_shape: dict[tuple, int] = {}
        for graph in all_graphs(n):
            if not is_totally_ordered(graph):
                continue
            h = canonical_sort(graph)[0]
            by_shape[h.rows] = by_shape.get(h.rows, 0) + 1
        for rows, count in by_shape.items():
            from bpmdual.ordered import representing_sequence

            s = representing_sequence(BipartiteGraph(n, rows))
            assert labeled_count(s) == count, s


class TestMonomialCount:
    def test_small_values(self):
        assert monomial_count(1) == 1
        assert monomial_count(2) == 9
        assert monomial_count(3) == 121  # pinned by the n=3 inversion table
        assert monomial_count(4) == 2721

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_table(self, n):
        assert monomial_count(n) == len(coefficient_table(n))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_within_stated_bounds(self, n):
        count = monomial_count(n)
        assert math.factorial(n) ** 2 <= count <= (n + 2) ** (2 * n + 2)


class TestSequenceDP:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_enumeration(self, n):
        seqs = list(enumerate_sequences(n))
        count = sum(labeled_count(s) for s in seqs if sequence_coefficient(s))
        top = max(abs(sequence_coefficient(s)) for s in seqs)
        assert _sequence_dp(n) == (count, top)

    def test_bounds_up_to_cap(self):
        for n in range(2, COUNT_N_MAX + 1):
            count, top = _sequence_dp(n)
            assert math.factorial(n) ** 2 <= count <= (n + 2) ** (2 * n + 2), n
            assert binomial(n - 1, n // 2) <= top <= 1 << (2 * n), n

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            monomial_count(COUNT_N_MAX + 1)
        with pytest.raises(SizeLimitError):
            max_abs_coefficient(COUNT_N_MAX + 1)


class TestMaxAbsCoefficient:
    def test_small_values(self):
        assert max_abs_coefficient(1) == 1
        assert max_abs_coefficient(2) == 1
        assert max_abs_coefficient(4) == 4  # pinned by enumeration; >= C(3,2)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_within_bounds(self, n):
        value = max_abs_coefficient(n)
        assert binomial(n - 1, n // 2) <= value <= 1 << (2 * n)


class TestMaterialize:
    def test_n1(self):
        assert materialize(1).terms == {1: 1}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equals_table(self, n):
        assert materialize(n).terms == coefficient_table(n).terms

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_equals_mask_scan(self, n):
        assert materialize(n).terms == mask_scan_materialize(n).terms

    def test_n5(self):
        poly = materialize(5)
        assert len(poly) == monomial_count(5) == 95161
        rng = random.Random(5)
        for mask in rng.sample(sorted(poly.terms), 200):
            assert poly.terms[mask] == dual_coefficient(BipartiteGraph.from_mask(5, mask))

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            materialize(MATERIALIZE_N_MAX + 1)

    def test_terms_decode_to_ordered_nondegenerate(self):
        from bpmdual.ordered import canonical_sort, representing_sequence

        poly = materialize(3)
        for mask in poly.terms:
            graph = BipartiteGraph.from_mask(3, mask)
            assert is_totally_ordered(graph)
            s = representing_sequence(canonical_sort(graph)[0])
            assert not is_degenerate(s)


class TestEvaluate:
    def test_examples(self):
        poly = materialize(2)
        assert evaluate(poly, BipartiteGraph.complete(2)) == 1
        assert evaluate(poly, BipartiteGraph.empty(2)) == 0
        assert evaluate(poly, BipartiteGraph.from_edges(2, [(1, 1), (1, 2)])) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            evaluate(materialize(2), BipartiteGraph.empty(3))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_representation_identity(self, n):
        poly = materialize(n)
        for x in all_graphs(n):
            assert evaluate(poly, x) == bpm_star_value(x)


class TestSerialization:
    def test_tsv_shape(self):
        text = materialize(2).to_tsv()
        lines = text.strip().split("\n")
        assert len(lines) == 9
        first_coeff, first_edges = lines[0].split("\t")
        assert first_coeff == "1"
        assert first_edges.count("(") == 2

    def test_constant_term_dash(self):
        poly = DualPolynomial(2, {0: 5, 3: 1})
        assert poly.to_tsv().splitlines()[0] == "5\t-"

    def test_tsv_round_trip(self):
        poly = materialize(3)
        assert DualPolynomial.from_tsv(poly.to_tsv(), 3).terms == poly.terms

    def test_json_round_trip(self):
        poly = materialize(3)
        assert DualPolynomial.from_json(poly.to_json()).terms == poly.terms

    def test_sparse_n32_round_trip(self):
        # high rows of n = 32, where a text for every row mask would be
        # 32 * 2^32 texts; rows 31 and 32 share the row mask of column 1
        n = 32

        def edge(i, j):
            return 1 << ((i - 1) * n + (j - 1))

        terms = {0: 1, edge(32, 32): 5, edge(31, 1) | edge(32, 1) | edge(32, 32): -7,
                 edge(1, 32) | edge(17, 5) | edge(17, 6): 3}
        poly = DualPolynomial(n, terms)
        text = poly.to_tsv()
        assert text.splitlines()[:3] == ["1\t-", "5\t(32,32)", "3\t(1,32),(17,5),(17,6)"]
        assert DualPolynomial.from_tsv(text, n).terms == terms
        assert DualPolynomial.from_json(poly.to_json()).terms == terms
        assert DualPolynomial(n).to_tsv() == ""

    def test_deterministic_output(self):
        a = materialize(3)
        b = materialize(3)
        assert a.to_tsv() == b.to_tsv()
        assert a.to_json() == b.to_json()

    def test_rejects_stored_zero(self):
        with pytest.raises(ValueError):
            DualPolynomial(2, {1: 0})

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_tsv_side_size(self, n):
        assert tsv_side_size(materialize(n).to_tsv()) == n

    @pytest.mark.parametrize("text", ["", "\n", "1\t-\n", "1\t-\n-1\t(1,1)\n"])
    def test_tsv_side_size_needs_edge_terms(self, text):
        with pytest.raises(ValueError):
            tsv_side_size(text)

    def test_tsv_rejects_out_of_range_edges(self):
        # a dump made at larger n must not silently re-key under smaller n
        text = materialize(3).to_tsv()
        with pytest.raises(ValueError):
            DualPolynomial.from_tsv(text, 2)


class TestBoundReport:
    def test_n2(self):
        report = bound_report(2)
        assert report.monomial_count == 9
        assert report.max_abs_coefficient == 1
        assert report.count_in_bounds
        assert report.coeff_in_bounds
