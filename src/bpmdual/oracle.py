"""Independent brute-force oracles for the dual polynomial.

Everything here is ground truth computed without the closed form: direct
subset-lattice inversion, the matching-covered sign sum, the elementary
completion sums, and the full coefficient table via a fast Mobius transform
over all 2^(n^2) edge sets.  The formula side of the package is validated
against these exhaustively at small n.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from typing import TYPE_CHECKING

from ._errors import EmptyGraphError, PreconditionError, SizeLimitError
from .bigraph import (
    BipartiteGraph,
    _components,
    _match_rows,
    _matching_classes,
    complement,
    has_perfect_matching,
)
from .ordered import permitted_edges, representing_sequence
from .polyspace import DualPolynomial

if TYPE_CHECKING:  # numpy is imported only by the functions that build arrays
    import numpy as np

MOBIUS_EDGE_MAX = 25
SUPERGRAPH_N_MAX = 4
PERMITTED_N_MAX = 5
TABLE_N_MAX = 4
TABLE_N_MAX_HUGE = 5


def bpm_star_value(g: BipartiteGraph) -> int:
    """1 iff the complement of g has no perfect matching."""
    return 0 if has_perfect_matching(complement(g)) else 1


# Room for all 66,066 masks with n <= 4: at 2^16 a process that mixes sizes
# cycles the LRU through more keys than it holds and misses on every scan.
@lru_cache(maxsize=1 << 17)
def _star_by_mask(n: int, mask: int) -> int:
    full = (1 << n) - 1
    complement_rows = tuple(~(mask >> (i * n)) & full for i in range(n))
    return 0 if _match_rows(n, complement_rows) is not None else 1


def mobius_coefficient(g: BipartiteGraph) -> int:
    """Coefficient of g's monomial by direct inversion over subgraphs:
    sum over H subseteq G of (-1)^(|E(G)| - |E(H)|) * BPM*(H)."""
    m = g.mask
    edges = m.bit_count()
    if edges > MOBIUS_EDGE_MAX:
        raise SizeLimitError("|E|", edges, MOBIUS_EDGE_MAX)
    n = g.n
    acc = 0
    sub = m
    while True:
        sign = -1 if (edges - sub.bit_count()) & 1 else 1
        acc += sign * _star_by_mask(n, sub)
        if sub == 0:
            return acc
        sub = (sub - 1) & m


def _superset_rows(n: int, m: int, free: int):
    """Row masks of every edge set m | sub with sub a subset of free, as
    (sub, rows) pairs from sub = free down to sub = 0."""
    full = (1 << n) - 1
    shifts = range(0, n * n, n)
    sub = free
    while True:
        h = m | sub
        yield sub, tuple((h >> s) & full for s in shifts)
        if sub == 0:
            return
        sub = (sub - 1) & free


def _chi_sum_raw(g: BipartiteGraph) -> int:
    """The matching-covered sign sum with no domain guard (see Open Question).

    (-1)^(|E(G)|+1) * sum over matching-covered H >= G of (-1)^chi(H), where
    chi(H) = |E(H)| - 2n + #components.  Consecutive supersets share most
    edges, so each reuses the last perfect matching found when it still fits.
    """
    n = g.n
    m = g.mask
    acc = 0
    match = None
    for sub, rows in _superset_rows(n, m, ((1 << (n * n)) - 1) ^ m):
        found, classes = _matching_classes(n, rows, match)
        match = found or match
        if classes is not None:
            acc += -1 if ((m | sub).bit_count() + len(classes)) & 1 else 1
    return acc if (m.bit_count() + 1) & 1 == 0 else -acc


def mc_chi_sum_coefficient(g: BipartiteGraph) -> int:
    """Coefficient via the sign sum over matching-covered supergraphs.

    The empty graph is excluded: the raw sum evaluates to -1 there while
    the true constant term is 0.
    """
    if g.n > SUPERGRAPH_N_MAX:
        raise SizeLimitError("n", g.n, SUPERGRAPH_N_MAX)
    if g.edge_count == 0:
        raise EmptyGraphError("the sign-sum oracle excludes the empty graph")
    return _chi_sum_raw(g)


def elementary_sum_coefficient(g: BipartiteGraph) -> int:
    """Signed count of elementary supergraphs: sum over elementary H >= G
    of (-1)^(|E(H)| - |E(G)|).

    Requires all left vertices, or all right vertices, to lie in one
    connected component.
    """
    n = g.n
    if n > SUPERGRAPH_N_MAX:
        raise SizeLimitError("n", n, SUPERGRAPH_N_MAX)
    full = (1 << n) - 1
    if not any(left == full or right == full for left, right in _components(g)):
        raise PreconditionError(
            "neither bipartition lies inside a single connected component"
        )
    m = g.mask
    return _elementary_sum(n, m, ((1 << (n * n)) - 1) ^ m)


def permitted_sum_coefficient(h: BipartiteGraph) -> int:
    """Elementary-supergraph sum restricted to subsets of the permitted edges."""
    n = h.n
    if n > PERMITTED_N_MAX:
        raise SizeLimitError("n", n, PERMITTED_N_MAX)
    s = representing_sequence(h)  # raises NotSortedOrderedError if unsorted
    pmask = 0
    for i, j in permitted_edges(s):
        pmask |= 1 << ((i - 1) * n + (j - 1))
    return _elementary_sum(n, h.mask, pmask)


def _elementary_sum(n: int, m: int, free: int) -> int:
    """Sum over elementary H = m | sub, sub a subset of free, of (-1)^|sub|."""
    elementary = {(1 << n) - 1}
    acc = 0
    match = None
    for sub, rows in _superset_rows(n, m, free):
        found, classes = _matching_classes(n, rows, match)
        match = found or match
        if classes == elementary:
            acc += -1 if sub.bit_count() & 1 else 1
    return acc


def star_table(n: int, huge: bool = False) -> np.ndarray:
    """BPM* values for every edge mask, as an int8 0/1 array of size 2^(n^2).

    Built as the OR superset closure of the n! permutation masks, so the table
    is independent of the per-graph matching code.
    """
    import numpy as np

    cap = TABLE_N_MAX_HUGE if huge else TABLE_N_MAX
    if n > cap:
        raise SizeLimitError("n", n, cap)
    has_pm = np.zeros(1 << (n * n), dtype=bool)
    for p in permutations(range(n)):
        has_pm[sum(1 << (i * n + p[i]) for i in range(n))] = True
    _lattice_sweep(has_pm, n * n, np.bitwise_or)
    # star[mask] = 1 - has_pm[complement of mask]; complement reverses index order.
    return np.logical_not(has_pm[::-1]).view(np.int8)


# A lattice sweep over bit b runs numpy's inner loop over 2^b contiguous
# entries, so the low bits pay per-call overhead on tiny runs.  The array is
# cut into contiguous blocks of _BLOCK_ROWS rows of 2^_LOW_BITS entries (1 MiB
# of int32), each small enough to stay in cache while all its bits are swept.
_LOW_BITS = 5
_BLOCK_ROWS = 1 << 13


def _lattice_sweep(a: np.ndarray, bits: int, op) -> np.ndarray:
    """In each lattice dimension, set the bit-on half to op(bit-on, bit-off), in place.

    Each block is copied transposed into one buffer, where the low bits run
    along rows of a whole block's length, and copied back; the block's
    remaining bits are swept in place while it is still cached, and only the
    bits above a block touch the whole array.
    """
    import numpy as np

    low = min(bits, _LOW_BITS)
    rows = a.reshape(-1, 1 << low)
    count = min(len(rows), _BLOCK_ROWS)
    inside = low + count.bit_length() - 1  # bits below this stay within one block
    buf = np.empty((1 << low, count), dtype=a.dtype)
    low_views = [buf.reshape(-1, 2, count << b) for b in range(low)]
    for start in range(0, len(rows), count):
        block = rows[start:start + count]
        buf[...] = block.T
        for view in low_views:
            op(view[:, 1], view[:, 0], out=view[:, 1])
        block[...] = buf.T
        _in_place_sweep(block.reshape(-1), range(low, inside), op)
    _in_place_sweep(a, range(inside, bits), op)
    return a


def _in_place_sweep(a: np.ndarray, bit_range: range, op) -> None:
    for b in bit_range:
        view = a.reshape(-1, 2, 1 << b)
        op(view[:, 1, :], view[:, 0, :], out=view[:, 1, :])


def mobius_transform(values: np.ndarray, bits: int) -> np.ndarray:
    """Subset-lattice inversion in at least int32, exact for 0/1 input: after b
    sweeps an entry is a signed sum of at most 2^b inputs, so |entry| <= 2^25 <
    2^31 up to n = TABLE_N_MAX_HUGE; int64 input stays int64."""
    import numpy as np

    return _lattice_sweep(values.astype(np.result_type(values.dtype, np.int32)), bits, np.subtract)


def zeta_transform(values: np.ndarray, bits: int) -> np.ndarray:
    """Subset sums: the inverse of the Mobius transform."""
    import numpy as np

    return _lattice_sweep(values.copy(), bits, np.add)


def coefficient_table(n: int, huge: bool = False) -> DualPolynomial:
    """Complete exact coefficient table of BPM*_n via the fast transform."""
    import numpy as np

    coeffs = mobius_transform(star_table(n, huge), n * n)
    nz = np.nonzero(coeffs)[0]
    return DualPolynomial(n, dict(zip(nz.tolist(), coeffs[nz].tolist())))
