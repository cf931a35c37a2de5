"""The dual polynomial as an explicit object: enumeration, counting, bounds.

Terms are keyed by canonical n^2-bit edge masks (bit i*n+j is the 0-based
edge (i, j)); coefficients are exact integers and zero coefficients are
never stored.  Serialized dumps sort terms by (degree, mask) so output is
reproducible byte for byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import accumulate, combinations
from typing import Iterator

from ._errors import DimensionMismatchError
from .bigraph import N_MAX, BipartiteGraph, _check_side
from .coeff import binomial, f_factor, sequence_coefficient
from .ordered import RepresentingSequence

ENUMERATION_N_MAX = 10
COUNT_N_MAX = 40
MATERIALIZE_N_MAX = 5


@dataclass(frozen=True)
class DualPolynomial:
    """Exact multilinear polynomial: edge-set masks -> integer coefficients."""

    n: int
    terms: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if any(c == 0 for c in self.terms.values()):
            raise ValueError("zero coefficients must not be stored")

    def coefficient(self, g: BipartiteGraph) -> int:
        if g.n != self.n:
            raise DimensionMismatchError(f"polynomial has n={self.n}, graph n={g.n}")
        return self.terms.get(g.mask, 0)

    @property
    def constant_term(self) -> int:
        return self.terms.get(0, 0)

    def __len__(self) -> int:
        return len(self.terms)

    def sorted_items(self) -> list[tuple[int, int]]:
        """(mask, coefficient) pairs ordered by (degree, mask)."""
        return sorted(self.terms.items(), key=lambda kv: (kv[0].bit_count(), kv[0]))

    def _edge_texts(self, edge: str) -> Iterator[tuple[int, str]]:
        """(coefficient, edge text) per term in sorted_items() order: the
        nonempty row texts joined by ",", where row i with row mask r joins
        edge % (i + 1, j + 1) over the set bits j of r.  Each row text is
        written once per call, for the row masks that occur."""
        n = self.n
        full = (1 << n) - 1
        texts: list[dict[int, str]] = [{} for _ in range(n)]  # row i's texts by row mask
        for mask, c in self.sorted_items():
            parts = []
            for i, row_texts in enumerate(texts):
                if r := mask >> (i * n) & full:
                    text = row_texts.get(r)
                    if text is None:
                        text = row_texts[r] = ",".join(
                            edge % (i + 1, j + 1) for j in range(n) if r >> j & 1)
                    parts.append(text)
            yield c, ",".join(parts)

    def to_tsv(self) -> str:
        return "".join(f"{c}\t{edges or '-'}\n" for c, edges in self._edge_texts("(%d,%d)"))

    def to_json(self) -> str:
        # The text json.dumps(..., separators=(",", ":")) gives, written per term:
        # building ~10^6 nested edge lists first spends most of the time in the
        # garbage collector.
        terms = ",".join('{"coeff":"%d","edges":[%s]}' % t for t in self._edge_texts("[%d,%d]"))
        return f'{{"n":{self.n},"terms":[{terms}]}}'

    @staticmethod
    def _add_edge(mask: int, i: int, j: int, n: int) -> int:
        """mask with the 1-based edge (i, j) added; a repeated or
        out-of-range edge raises ValueError."""
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"edge ({i},{j}) out of range for n={n}")
        bit = 1 << ((i - 1) * n + (j - 1))
        if mask & bit:
            raise ValueError(f"repeated edge ({i},{j})")
        return mask | bit

    @classmethod
    def from_tsv(cls, text: str, n: int) -> "DualPolynomial":
        """Parse a `to_tsv` dump; a malformed line, one that repeats an
        edge, or one that repeats an earlier line's term, raises ValueError
        naming its 1-based number."""
        terms: dict[int, int] = {}
        for number, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line:
                continue
            coeff_str, _, edge_str = line.partition("\t")
            try:
                c = int(coeff_str)
                mask = 0
                if edge_str != "-":
                    for chunk in edge_str.split("),("):
                        i_str, _, j_str = chunk.strip("()").partition(",")
                        mask = cls._add_edge(mask, int(i_str), int(j_str), n)
            except ValueError as exc:
                raise ValueError(f"line {number}: {exc}") from None
            if mask in terms:
                raise ValueError(f"line {number}: duplicate term {edge_str}")
            terms[mask] = c
        return cls(n, _nonzero(terms))

    @classmethod
    def from_json(cls, text: str) -> "DualPolynomial":
        """Parse a `to_json` dump; any other shape, a repeated edge within a
        term, or a repeated term raises ValueError."""
        data = json.loads(text)
        if not (isinstance(data, dict) and _is_int(data.get("n")) and 1 <= data["n"] <= N_MAX
                and isinstance(data.get("terms"), list)):
            raise ValueError(f'expected {{"n": 1..{N_MAX}, "terms": [...]}}')
        n = data["n"]
        terms: dict[int, int] = {}
        for t in data["terms"]:
            if not (isinstance(t, dict) and isinstance(t.get("edges"), list)
                    and (isinstance(t.get("coeff"), str) or _is_int(t.get("coeff")))):
                raise ValueError(f'expected a term {{"coeff": ..., "edges": [...]}}, got {t!r}')
            mask = 0
            for e in t["edges"]:
                if not (isinstance(e, list) and len(e) == 2 and all(map(_is_int, e))):
                    raise ValueError(f"expected an edge [i, j] of integers, got {e!r}")
                try:
                    mask = cls._add_edge(mask, e[0], e[1], n)
                except ValueError as exc:
                    raise ValueError(f"term with edges {t['edges']}: {exc}") from None
            c = int(t["coeff"])
            if mask in terms:
                raise ValueError(f"duplicate term with edges {t['edges']}")
            terms[mask] = c
        return cls(n, _nonzero(terms))


def _nonzero(terms: dict[int, int]) -> dict[int, int]:
    """The terms without zero coefficients, which a dump may spell out."""
    return terms if all(terms.values()) else {m: c for m, c in terms.items() if c}


def _is_int(value) -> bool:
    """A JSON integer: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def tsv_side_size(text: str) -> int:
    """Side size n of a TSV dump, which does not store it: the lowest-degree
    terms of BPM*_n are its 2n full rows and columns, each of n edges."""
    sizes = [line.partition("\t")[2].count("(") for line in text.splitlines() if line.strip()]
    if not sizes or min(sizes) < 1:
        raise ValueError("a TSV dump needs edge terms and no constant term to fix its n")
    return min(sizes)


def evaluate(p: DualPolynomial, x: BipartiteGraph) -> int:
    """Multilinear evaluation at a 0/1 input: sum coefficients of contained terms."""
    if p.n != x.n:
        raise DimensionMismatchError(f"polynomial has n={p.n}, input has n={x.n}")
    xm = x.mask
    return sum(c for mask, c in p.terms.items() if mask & ~xm == 0)


def enumerate_sequences(n: int) -> Iterator[RepresentingSequence]:
    """Yield every representing sequence for side n, in lexicographic order
    of the flattened (d_1, k_1, d_2, k_2, ...) tuple."""
    _check_side(n, ENUMERATION_N_MAX)

    def extend(prefix: list[tuple[int, int]], last_d: int, last_k: int):
        for d in range(last_d + 1, n + 1):
            for k in range(last_k + 1, n + 1):
                if k == n:
                    yield RepresentingSequence(n, tuple(prefix + [(d, k)]))
                else:
                    yield from extend(prefix + [(d, k)], d, k)

    yield from extend([], -1, 0)


def _multinomial(n: int, parts: list[int]) -> int:
    out = math.factorial(n)
    for p in parts:
        out //= math.factorial(p)
    return out


def labeled_count(s: RepresentingSequence) -> int:
    """Number of labeled graphs obtainable from the decoded sorted graph by
    relabeling each bipartition separately."""
    row_sizes, col_sizes = s.run_sizes()
    return _multinomial(s.n, row_sizes) * _multinomial(s.n, col_sizes)


def _sequence_dp(n: int) -> tuple[int, int]:
    """(monomial count, largest |coefficient|) by a transfer matrix over the
    states (k_{i-1}, d_i, k_i) of a representing sequence.

    A coefficient is a product of one f factor per step and a terminal
    binomial, and `labeled_count` is a product of one row and one column
    binomial per step, so the count is a path sum and the largest
    |coefficient| a path maximum.  The f factor of the step to
    (d_{i+1}, k_{i+1}) does not depend on k_{i+1}, and the row binomial
    depends only on (k_i, k_{i+1}), so each step costs O(n^2) per
    (k_i, d_{i+1}) and the whole DP O(n^4) integer operations.
    """
    comb = math.comb
    # count[k][a][d] and best[k][a][d]: summed orbit sizes and largest
    # |partial product| over the nonzero prefixes ending in state (a, d, k).
    count = [[[0] * (n + 1) for _ in range(n)] for _ in range(n + 1)]
    best = [[[0] * (n + 1) for _ in range(n)] for _ in range(n + 1)]
    for k in range(1, n + 1):
        for d in range(n + 1):
            count[k][0][d] = comb(n, k) * comb(n, d)
            best[k][0][d] = 1
    for k in range(1, n):
        count_k, best_k = count[k], best[k]
        for d_next in range(1, n + 1):
            paths = largest = 0
            for a in range(k):
                count_a, best_a = count_k[a], best_k[a]
                for d in range(d_next):
                    f = f_factor(d_next - a, d - a, k - a)
                    if f:
                        paths += count_a[d] * comb(n - d, d_next - d)
                        largest = max(largest, best_a[d] * abs(f))
            for k_next in range(k + 1, n + 1):
                count[k_next][k][d_next] = paths * comb(n - k, k_next - k)
                best[k_next][k][d_next] = largest
    total = top = 0
    for a in range(n):
        for d in range(n + 1):
            last = binomial(n - a - 1, n - d)
            if last:
                total += count[n][a][d]
                top = max(top, best[n][a][d] * last)
    return total, top


def monomial_count(n: int) -> int:
    """Number of monomials of the dual polynomial, by orbit counting."""
    _check_side(n, COUNT_N_MAX)
    return _sequence_dp(n)[0]


def max_abs_coefficient(n: int) -> int:
    """Largest coefficient magnitude over all monomials."""
    _check_side(n, COUNT_N_MAX)
    return _sequence_dp(n)[1]


def _splits(bits: list[int], sizes: list[int]) -> Iterator[tuple[int, ...]]:
    """Every way to deal `bits` into an ordered list of groups of the given
    sizes, as the OR of each group's bits."""
    if not sizes:
        yield ()
        return
    for chosen in combinations(bits, sizes[0]):
        rest = [b for b in bits if b not in chosen]
        head = sum(chosen)
        for tail in _splits(rest, sizes[1:]):
            yield (head,) + tail


def materialize(n: int) -> DualPolynomial:
    """Build the full labeled polynomial by expanding every nonzero
    representing sequence into its orbit.

    Rows go to bands of sizes k_i - k_{i-1} and columns to groups of sizes
    d_1, d_2 - d_1, ..., n - d_t; a row in band b (0-based) is adjacent to
    column groups 0..b.  A row's band is fixed by its degree and a column's
    group by the first band that sees it, so distinct assignments give
    distinct graphs: the orbit has `labeled_count(s)` members, and every
    totally ordered graph lies in the orbit of its own sequence.
    """
    _check_side(n, MATERIALIZE_N_MAX)
    row_bits = [1 << (i * n) for i in range(n)]
    col_bits = [1 << j for j in range(n)]
    terms: dict[int, int] = {}
    for s in enumerate_sequences(n):
        c = sequence_coefficient(s)
        if not c:
            continue
        row_sizes, col_sizes = s.run_sizes()
        # bands[b] has bit i*n for each row i of band b, so seen * bands[b]
        # copies the columns band b sees into each of its rows.
        bands_list = list(_splits(row_bits, row_sizes))
        for groups in _splits(col_bits, col_sizes):
            seen = list(accumulate(groups))
            for bands in bands_list:
                terms[sum(u * r for u, r in zip(seen, bands))] = c
    return DualPolynomial(n, terms)


@dataclass(frozen=True)
class BoundReport:
    """Monomial-count and coefficient-magnitude bounds for one side size."""

    n: int
    monomial_count: int
    count_lower: int  # (n!)^2
    count_upper: int  # (n+2)^(2n+2)
    max_abs_coefficient: int
    coeff_upper: int  # 2^(2n)
    coeff_lower: int  # binomial(n-1, floor(n/2)), the half biclique

    @property
    def count_in_bounds(self) -> bool:
        return self.count_lower <= self.monomial_count <= self.count_upper

    @property
    def coeff_in_bounds(self) -> bool:
        return self.coeff_lower <= self.max_abs_coefficient <= self.coeff_upper

    @property
    def log2_count_ratio(self) -> float:
        """log2(count) / (2n log2 n); reported, never asserted."""
        if self.n < 2:
            return float("nan")
        return math.log2(self.monomial_count) / (2 * self.n * math.log2(self.n))


def bound_report(n: int) -> BoundReport:
    return BoundReport(
        n=n,
        monomial_count=monomial_count(n),
        count_lower=math.factorial(n) ** 2,
        count_upper=(n + 2) ** (2 * n + 2),
        max_abs_coefficient=max_abs_coefficient(n),
        coeff_upper=1 << (2 * n),
        coeff_lower=binomial(n - 1, n // 2),
    )
