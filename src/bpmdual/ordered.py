"""Totally ordered graphs, representing sequences, and block decomposition.

A totally ordered graph has left neighbour sets forming a chain under
inclusion.  Sorting both bipartitions by degree turns it into a sorted
ordered graph whose biadjacency matrix is a staircase of full prefixes;
the run-length encoding of its left degree profile is the representing
sequence (d_1, k_1), ..., (d_t, k_t).
"""

from __future__ import annotations

from dataclasses import dataclass

from ._errors import (
    DegenerateSequenceError,
    NotSortedOrderedError,
    NotTotallyOrderedError,
)
from .bigraph import BipartiteGraph


@dataclass(frozen=True)
class RepresentingSequence:
    """Pairs (d_i, k_i) with 0 <= d_1 < ... < d_t <= n and 0 < k_1 < ... < k_t = n."""

    n: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.pairs:
            raise ValueError("a representing sequence has at least one pair")
        ds = [d for d, _ in self.pairs]
        ks = [k for _, k in self.pairs]
        if not (0 <= ds[0] and ds[-1] <= self.n and all(a < b for a, b in zip(ds, ds[1:]))):
            raise ValueError(f"d values must satisfy 0 <= d_1 < ... < d_t <= n: {ds}")
        if not (0 < ks[0] and ks[-1] == self.n and all(a < b for a, b in zip(ks, ks[1:]))):
            raise ValueError(f"k values must satisfy 0 < k_1 < ... < k_t = n: {ks}")

    @property
    def t(self) -> int:
        return len(self.pairs)

    def d(self, i: int) -> int:
        """d_i for 1 <= i <= t, with the convention d_{t+1} = n."""
        if i == self.t + 1:
            return self.n
        return self.pairs[i - 1][0]

    def k(self, i: int) -> int:
        """k_i for 1 <= i <= t, with the convention k_0 = 0."""
        if i == 0:
            return 0
        return self.pairs[i - 1][1]

    def run_sizes(self) -> tuple[list[int], list[int]]:
        """(row band sizes k_i - k_{i-1}, column group sizes d_1, d_2 - d_1,
        ..., n - d_t): row band i holds the rows of degree d_i, column group
        i the columns that band i is the first to see, and no band sees the
        last group."""
        ds = [d for d, _ in self.pairs]
        ks = [0] + [k for _, k in self.pairs]
        return ([b - a for a, b in zip(ks, ks[1:])],
                [b - a for a, b in zip([0] + ds, ds + [self.n])])

    def decode(self) -> BipartiteGraph:
        """The sorted ordered graph this sequence describes."""
        rows: list[int] = []
        for (d, _), size in zip(self.pairs, self.run_sizes()[0]):
            rows.extend([(1 << d) - 1] * size)
        return BipartiteGraph(self.n, tuple(rows))

    def __str__(self) -> str:
        body = "".join(f"({d},{k})" for d, k in self.pairs)
        return f"{self.n}; {body}"

    @classmethod
    def parse(cls, text: str) -> "RepresentingSequence":
        """Parse the CLI text form, e.g. ``8; (2,2)(5,5)(8,8)``."""
        head, _, body = text.partition(";")
        n = int(head.strip())
        pairs = []
        for chunk in body.replace(")", ")\x00").split("\x00"):
            chunk = chunk.strip()
            if not chunk:
                continue
            if not (chunk.startswith("(") and chunk.endswith(")")):
                raise ValueError(f"malformed pair {chunk!r}")
            d_str, _, k_str = chunk[1:-1].partition(",")
            pairs.append((int(d_str), int(k_str)))
        return cls(n, tuple(pairs))


@dataclass(frozen=True)
class Block:
    """Sorted ordered graph with sequence {(d, k), (n, n)}: rows 1..k see
    b_1..b_d and rows k+1..n see everything."""

    n: int
    d: int
    k: int

    def __post_init__(self):
        if not 0 <= self.d <= self.n:
            raise ValueError(f"block needs 0 <= d <= n, got d={self.d}, n={self.n}")
        if not 0 < self.k < self.n:
            raise ValueError(f"block needs 0 < k < n, got k={self.k}, n={self.n}")

    def sequence(self) -> RepresentingSequence:
        if self.d == self.n:
            return RepresentingSequence(self.n, ((self.n, self.n),))
        return RepresentingSequence(self.n, ((self.d, self.k), (self.n, self.n)))

    def decode(self) -> BipartiteGraph:
        return self.sequence().decode()


@dataclass(frozen=True)
class PermittedEdgeSet:
    """1-based non-edges usable in elementary completions of a sorted graph."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self):
        return iter(sorted(self.edges))


def is_totally_ordered(g: BipartiteGraph) -> bool:
    """True iff the left neighbour sets form a chain under inclusion.

    Sorting the rows and checking consecutive containment is equivalent
    to the existential over-all-orderings definition.
    """
    return _chain_profile(g.rows) is not None


def _chain_profile(rows: tuple[int, ...]) -> tuple[tuple[int, int], ...] | None:
    """The (d_i, k_i) pairs of the rows' degree profile if they form a chain
    under inclusion, else None.

    A chain ascends as integers too, so a plain sort orders it, and its
    degree changes exactly where its row does.  So one pass over the sorted
    rows tests the chain and run-length encodes the degree profile, which
    halves the time per graph on the closed form's hot path.
    """
    pairs = []
    prev = count = 0
    for row in sorted(rows):
        if prev & ~row:
            return None
        if row != prev and count:
            pairs.append((prev.bit_count(), count))
        prev = row
        count += 1
    pairs.append((prev.bit_count(), count))
    return tuple(pairs)


def canonical_sort(
    g: BipartiteGraph,
) -> tuple[BipartiteGraph, tuple[int, ...], tuple[int, ...]]:
    """Sort both bipartitions of a totally ordered graph.

    Returns (h, left_perm, right_perm) where h is the sorted ordered graph
    and the permutations map positions of h to original 0-based indices:
    h's left vertex i is g's left vertex left_perm[i], and likewise for
    columns.  Ties break by original index, so the result is deterministic.
    """
    if not is_totally_ordered(g):
        raise NotTotallyOrderedError("left neighbour sets do not form a chain")
    n = g.n
    left_perm = tuple(sorted(range(n), key=lambda i: (g.rows[i].bit_count(), i)))
    col_degree = [0] * n
    for row in g.rows:
        r = row
        while r:
            j = (r & -r).bit_length() - 1
            r &= r - 1
            col_degree[j] += 1
    right_perm = tuple(sorted(range(n), key=lambda j: (-col_degree[j], j)))
    # in a chain each row of degree k is the k columns of largest degree,
    # and columns of equal degree lie in the same rows: a prefix of h
    rows = tuple((1 << g.rows[i].bit_count()) - 1 for i in left_perm)
    return BipartiteGraph(n, rows), left_perm, right_perm


def is_sorted_ordered(g: BipartiteGraph) -> bool:
    """Degrees ascend and every row is a prefix of the right side."""
    prev = -1
    for row in g.rows:
        deg = row.bit_count()
        if deg < prev or row != (1 << deg) - 1:
            return False
        prev = deg
    return True


def representing_sequence(h: BipartiteGraph) -> RepresentingSequence:
    """Run-length encode the left degree profile of a sorted ordered graph;
    its rows are ascending prefixes, a chain that sorting leaves in order."""
    if not is_sorted_ordered(h):
        raise NotSortedOrderedError("rows are not ascending right-side prefixes")
    return RepresentingSequence(h.n, _chain_profile(h.rows))


def permitted_edges(s: RepresentingSequence) -> PermittedEdgeSet:
    """Band k_{j-1} < i <= k_j may receive columns d_j < col <= d_{j+1}."""
    out = set()
    for band in range(1, s.t + 1):
        lo_col, hi_col = s.d(band), s.d(band + 1)
        for i in range(s.k(band - 1) + 1, s.k(band) + 1):
            for j in range(lo_col + 1, hi_col + 1):
                out.add((i, j))
    return PermittedEdgeSet(s.n, frozenset(out))


def is_degenerate(s: RepresentingSequence) -> bool:
    """True iff some i in [t-1] has d_{i+1} <= k_i (zero coefficient)."""
    return any(s.d(i + 1) <= s.k(i) for i in range(1, s.t))


def block_decompose(s: RepresentingSequence) -> tuple[list[Block], tuple[int, int]]:
    """Split a non-degenerate sequence into blocks plus the final biclique.

    Block i (for i in [t-1]) is <d_{i+1}-k_{i-1}, d_i-k_{i-1}, k_i-k_{i-1}>;
    the trailing biclique factor contributes binomial(n-k_{t-1}-1, n-d_t).
    The product of the factors equals the dual coefficient of the decoded
    graph.
    """
    if is_degenerate(s):
        raise DegenerateSequenceError(f"degenerate sequence {s}")
    blocks = [
        Block(
            n=s.d(i + 1) - s.k(i - 1),
            d=s.d(i) - s.k(i - 1),
            k=s.k(i) - s.k(i - 1),
        )
        for i in range(1, s.t)
    ]
    final = (s.n - s.k(s.t - 1) - 1, s.n - s.d(s.t))
    return blocks, final
