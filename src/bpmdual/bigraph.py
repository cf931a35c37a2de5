"""Balanced bipartite graphs on the vertices of K_{n,n} and their predicates.

A graph is stored as one bitmask per left vertex: bit j of ``rows[i]`` means
the edge (a_{i+1}, b_{j+1}) is present.  Vertex indices are 0-based
internally and 1-based in every file format and CLI surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

from ._errors import SizeLimitError

# Hard cap on the side size; exhaustive oracles enforce much smaller limits.
N_MAX = 32

# Cap for the vertex-cover / neighbourhood enumerations in hetyei_conditions.
HETYEI_N_MAX = 5


def _check_side(n: int, cap: int = N_MAX) -> None:
    """Raise unless 1 <= n <= cap."""
    if n < 1:
        raise ValueError(f"side size must be positive, got {n}")
    if n > cap:
        raise SizeLimitError("n", n, cap)


# Per side n, the bit offset of each row in an n^2-bit edge mask.
_ROW_SHIFTS = [tuple(i * n for i in range(n)) for n in range(N_MAX + 1)]


@dataclass(frozen=True, slots=True)
class BipartiteGraph:
    """Immutable balanced bipartite graph over the vertices of K_{n,n}."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        _check_side(self.n)
        if len(self.rows) != self.n:
            raise ValueError(f"expected {self.n} rows, got {len(self.rows)}")
        full = (1 << self.n) - 1
        for i, row in enumerate(self.rows):
            if row & ~full:
                raise ValueError(f"row {i + 1} has a bit index >= n={self.n}")

    @classmethod
    def empty(cls, n: int) -> "BipartiteGraph":
        return cls(n, (0,) * n)

    @classmethod
    def complete(cls, n: int) -> "BipartiteGraph":
        full = (1 << n) - 1
        return cls(n, (full,) * n)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "BipartiteGraph":
        """Build from 1-based (i, j) edge pairs."""
        rows = [0] * n
        for i, j in edges:
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"edge ({i},{j}) out of range for n={n}")
            rows[i - 1] |= 1 << (j - 1)
        return cls(n, tuple(rows))

    @classmethod
    def from_mask(cls, n: int, mask: int) -> "BipartiteGraph":
        """Build from an n^2-bit edge mask; bit i*n+j is the 0-based edge (i, j)."""
        if not 0 < n <= N_MAX:
            _check_side(n)
        if mask >> n * n:  # also every negative mask
            raise ValueError(f"edge mask {mask} out of range for n={n}")
        full = (1 << n) - 1
        # Each row is masked to n bits here, so the row checks of __init__ are
        # skipped: the slots are filled past the frozen __setattr__.
        g = object.__new__(cls)
        _SET_N(g, n)
        _SET_ROWS(g, tuple([mask >> s & full for s in _ROW_SHIFTS[n]]))
        return g

    @property
    def mask(self) -> int:
        """Canonical n^2-bit edge key (row-major)."""
        m = 0
        for i, row in enumerate(self.rows):
            m |= row << (i * self.n)
        return m

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.rows)

    def edges(self) -> list[tuple[int, int]]:
        """Edges as 1-based (i, j) pairs in row-major order."""
        out = []
        for i, row in enumerate(self.rows):
            r = row
            while r:
                j = (r & -r).bit_length() - 1
                out.append((i + 1, j + 1))
                r &= r - 1
        return out

    def has_edge(self, i: int, j: int) -> bool:
        """Test a 1-based edge."""
        return bool(self.rows[i - 1] >> (j - 1) & 1)

    def __str__(self) -> str:
        lines = [str(self.n)]
        for row in self.rows:
            lines.append("".join("1" if row >> j & 1 else "0" for j in range(self.n)))
        return "\n".join(lines)


_SET_N, _SET_ROWS = BipartiteGraph.n.__set__, BipartiteGraph.rows.__set__


def parse_graph(text: str) -> BipartiteGraph:
    """Parse the graph text format: line 1 is n, then n rows of n chars in {0,1}."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty graph file")
    try:
        n = int(lines[0])
    except ValueError:
        raise ValueError(f"first line must be n, got {lines[0]!r}") from None
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} rows after the first line, got {len(lines) - 1}")
    rows = []
    for i, line in enumerate(lines[1:]):
        if len(line) != n:
            raise ValueError(f"row {i + 1} has length {len(line)}, expected {n}")
        if set(line) - {"0", "1"}:
            raise ValueError(f"row {i + 1} contains characters outside {{0,1}}")
        rows.append(sum(1 << j for j, ch in enumerate(line) if ch == "1"))
    return BipartiteGraph(n, tuple(rows))


def complement(g: BipartiteGraph) -> BipartiteGraph:
    """Edge present iff absent in g."""
    full = (1 << g.n) - 1
    return BipartiteGraph(g.n, tuple(row ^ full for row in g.rows))


def _match_rows(n: int, rows: tuple[int, ...]) -> list[int] | None:
    """One perfect matching as match_of_col (column -> row) by augmenting-path
    search over row masks, or None when there is none."""
    # Hall-style quick rejection: any empty row kills the matching.
    if not all(rows):
        return None
    match_of_col = [-1] * n

    def augment(i: int, visited: int) -> tuple[bool, int]:
        r = rows[i] & ~visited
        while r:
            j = (r & -r).bit_length() - 1
            r &= r - 1
            visited |= 1 << j
            owner = match_of_col[j]
            if owner == -1:
                match_of_col[j] = i
                return True, visited
            ok, visited = augment(owner, visited)
            if ok:
                match_of_col[j] = i
                return True, visited
        return False, visited

    for i in range(n):
        ok, _ = augment(i, 0)
        if not ok:
            return None
    return match_of_col


def has_perfect_matching(g: BipartiteGraph) -> bool:
    """True iff n pairwise-disjoint edges cover all 2n vertices."""
    return _match_rows(g.n, g.rows) is not None


def _transitive_closure(reach: list[int]) -> list[int]:
    """Warshall's transitive closure of a relation given as one successor
    mask per row, in place, one row mask at a time; returns reach."""
    for k in range(len(reach)):
        bit, via = 1 << k, reach[k]
        for i in range(len(reach)):
            if reach[i] & bit:
                reach[i] |= via
    return reach


def _components(g: BipartiteGraph) -> list[tuple[int, int]]:
    """(left mask, right mask) of each connected component with a left
    vertex, in order of its first row: rows join when they share a column."""
    rows = g.rows
    reach = _transitive_closure(
        [sum(1 << r for r, other in enumerate(rows) if other & row) | 1 << i
         for i, row in enumerate(rows)]
    )
    comps, seen = [], 0
    for left in reach:
        if not left & seen:
            seen |= left
            comps.append((left, _neighbourhood(g, left)))
    return comps


def connected_components(g: BipartiteGraph) -> int:
    """Number of components of the graph on all 2n vertices (isolated count)."""
    comps = _components(g)
    seen_right = 0
    for _, right in comps:
        seen_right |= right
    # Right vertices never reached are isolated components of their own.
    return len(comps) + g.n - seen_right.bit_count()


def _has_pm_with_forced_edge(g: BipartiteGraph, i: int, j: int) -> bool:
    """Perfect matching on the vertices of g - a_{i+1} - b_{j+1}?

    When (i, j) is an edge of g this asks for a perfect matching of g
    containing it.
    """
    n = g.n
    if n == 1:
        return True
    colbit = 1 << j
    rows = tuple(g.rows[r] & ~colbit for r in range(n) if r != i)
    # Row i is replaced by a dummy accepting anything; in any matching the
    # dummy is forced onto column j, so this solves the reduced subproblem.
    return _match_rows(n, rows + ((1 << n) - 1,)) is not None


def _matching_classes(
    n: int, rows: tuple[int, ...]
) -> tuple[list[int] | None, set[int] | None]:
    """(match_of_col, classes) of the graph with these rows.

    match_of_col is one perfect matching M, None when there is none.
    classes is the set of left masks of the components when the graph is
    matching-covered, else None.

    Bit r of reach[i] says that row r is reachable from row i by steps
    "edge (i, j), then back along M to the row matched to j" (every row
    reaches itself).  An edge (i, j) lies in some perfect matching iff the
    row matched to j reaches i (Lovasz-Plummer, Matching Theory).  So every
    edge lies in a perfect matching iff reachability is symmetric.  Being
    reflexive and transitive it is then an equivalence, and the distinct
    reach masks partition the rows; otherwise two of them overlap and their
    sizes sum past n.  Each class is one component, since the components of
    a matching-covered graph are elementary (Lovasz-Plummer).
    """
    match_of_col = _match_rows(n, rows)
    if match_of_col is None:
        return None, None
    reach = []
    for i, row in enumerate(rows):
        acc = 1 << i
        while row:
            j = (row & -row).bit_length() - 1
            row &= row - 1
            acc |= 1 << match_of_col[j]
        reach.append(acc)
    classes = set(_transitive_closure(reach))
    return match_of_col, (classes if sum(c.bit_count() for c in classes) == n else None)


def is_matching_covered(g: BipartiteGraph) -> bool:
    """True iff g has a perfect matching and every edge lies in one.

    The empty graph is not matching-covered: PM(g) must be nonempty.
    """
    return _matching_classes(g.n, g.rows)[1] is not None


def is_elementary(g: BipartiteGraph) -> bool:
    """Connected and matching-covered: every row reaches every row by
    alternating paths of one perfect matching."""
    return _matching_classes(g.n, g.rows)[1] == {(1 << g.n) - 1}


@dataclass(frozen=True)
class HetyeiConditions:
    """The five equivalent characterizations of elementary bipartite graphs."""

    elementary: bool
    two_minimum_vertex_covers: bool
    strict_neighbourhood_surplus: bool
    pm_after_vertex_deletion: bool
    connected_all_edges_allowed: bool

    def as_tuple(self) -> tuple[bool, bool, bool, bool, bool]:
        return (
            self.elementary,
            self.two_minimum_vertex_covers,
            self.strict_neighbourhood_surplus,
            self.pm_after_vertex_deletion,
            self.connected_all_edges_allowed,
        )

    def all_equal(self) -> bool:
        return len(set(self.as_tuple())) == 1


def _neighbourhood(g: BipartiteGraph, left_set: int) -> int:
    acc = 0
    s = left_set
    while s:
        i = (s & -s).bit_length() - 1
        s &= s - 1
        acc |= g.rows[i]
    return acc


def _minimum_vertex_covers(g: BipartiteGraph) -> set[tuple[int, int]]:
    """All minimum vertex covers as (left mask, right mask) pairs."""
    n = g.n
    edges = [(i, j) for i in range(n) for j in range(n) if g.rows[i] >> j & 1]
    best_size = None
    best: set[tuple[int, int]] = set()
    verts = list(range(2 * n))
    for size in range(0, 2 * n + 1):
        if best_size is not None:
            break
        for combo in combinations(verts, size):
            lm = 0
            rm = 0
            for v in combo:
                if v < n:
                    lm |= 1 << v
                else:
                    rm |= 1 << (v - n)
            if all(lm >> i & 1 or rm >> j & 1 for i, j in edges):
                best.add((lm, rm))
        if best:
            best_size = size
    return best


def hetyei_conditions(g: BipartiteGraph) -> HetyeiConditions:
    """Evaluate the five elementary-graph conditions independently.

    Used only for cross-validation at n <= 5; the subset enumerations in
    conditions (2) and (3) are exponential.  Condition (3) carries an
    explicit nonempty-edge-set guard so the equivalence also holds for the
    edgeless n=1 graph, where the surplus quantifier is vacuous.
    """
    n = g.n
    if n > HETYEI_N_MAX:
        raise SizeLimitError("n", n, HETYEI_N_MAX)

    cond1 = is_elementary(g)

    full = (1 << n) - 1
    covers = _minimum_vertex_covers(g)
    cond2 = covers == {(full, 0), (0, full)}

    cond3 = g.edge_count > 0 and all(
        _neighbourhood(g, x).bit_count() > x.bit_count()
        for x in range(1, full)  # nonempty proper subsets of the left side
    )

    if n == 1:
        cond4 = g.rows[0] == 1  # G = K_2
    else:
        cond4 = all(
            _has_pm_with_forced_edge(g, i, j) for i in range(n) for j in range(n)
        )

    cond5 = connected_components(g) == 1 and all(
        _has_pm_with_forced_edge(g, i, j)
        for i in range(n)
        for j in range(n)
        if g.rows[i] >> j & 1
    )

    return HetyeiConditions(cond1, cond2, cond3, cond4, cond5)


def all_graphs(n: int) -> Iterator[BipartiteGraph]:
    """Every balanced bipartite graph on K_{n,n}'s vertices, by edge mask."""
    for mask in range(1 << (n * n)):
        yield BipartiteGraph.from_mask(n, mask)
