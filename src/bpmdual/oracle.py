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

import numpy as np

from ._errors import EmptyGraphError, PreconditionError, SizeLimitError
from .bigraph import (
    BipartiteGraph,
    _components,
    complement,
    cyclomatic_number,
    has_perfect_matching,
    is_elementary,
    is_matching_covered,
)
from .ordered import permitted_edges, representing_sequence
from .polyspace import DualPolynomial

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
    return bpm_star_value(BipartiteGraph.from_mask(n, mask))


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


def _chi_sum_raw(g: BipartiteGraph) -> int:
    """The matching-covered sign sum with no domain guard (see Open Question).

    (-1)^(|E(G)|+1) * sum over matching-covered H >= G of (-1)^chi(H).
    """
    n = g.n
    m = g.mask
    free = ((1 << (n * n)) - 1) ^ m
    acc = 0
    sub = free
    while True:
        h = BipartiteGraph.from_mask(n, m | sub)
        if is_matching_covered(h):
            acc += -1 if cyclomatic_number(h) & 1 else 1
        if sub == 0:
            break
        sub = (sub - 1) & free
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
    free = ((1 << (n * n)) - 1) ^ m
    acc = 0
    sub = free
    while True:
        if is_elementary(BipartiteGraph.from_mask(n, m | sub)):
            acc += -1 if sub.bit_count() & 1 else 1
        if sub == 0:
            return acc
        sub = (sub - 1) & free


def permitted_sum_coefficient(h: BipartiteGraph) -> int:
    """Elementary-supergraph sum restricted to subsets of the permitted edges."""
    n = h.n
    if n > PERMITTED_N_MAX:
        raise SizeLimitError("n", n, PERMITTED_N_MAX)
    s = representing_sequence(h)  # raises NotSortedOrderedError if unsorted
    pmask = 0
    for i, j in permitted_edges(s):
        pmask |= 1 << ((i - 1) * n + (j - 1))
    m = h.mask
    acc = 0
    sub = pmask
    while True:
        if is_elementary(BipartiteGraph.from_mask(n, m | sub)):
            acc += -1 if sub.bit_count() & 1 else 1
        if sub == 0:
            return acc
        sub = (sub - 1) & pmask


def star_table(n: int, huge: bool = False) -> np.ndarray:
    """BPM* values for every edge mask, as an int8 0/1 array of size 2^(n^2).

    Built as the OR superset closure of the n! permutation masks, so the table
    is independent of the per-graph matching code.
    """
    cap = TABLE_N_MAX_HUGE if huge else TABLE_N_MAX
    if n > cap:
        raise SizeLimitError("n", n, cap)
    has_pm = np.zeros(1 << (n * n), dtype=bool)
    for p in permutations(range(n)):
        has_pm[sum(1 << (i * n + p[i]) for i in range(n))] = True
    _lattice_sweep(has_pm, n * n, np.bitwise_or)
    # star[mask] = 1 - has_pm[complement of mask]; complement reverses index order.
    return np.logical_not(has_pm[::-1]).view(np.int8)


def _lattice_sweep(a: np.ndarray, bits: int, op) -> np.ndarray:
    """In each lattice dimension, set the bit-on half to op(bit-on, bit-off), in place."""
    for b in range(bits):
        view = a.reshape(-1, 2, 1 << b)
        op(view[:, 1, :], view[:, 0, :], out=view[:, 1, :])
    return a


def mobius_transform(values: np.ndarray, bits: int) -> np.ndarray:
    """Subset-lattice inversion in at least int32, exact for 0/1 input: after b
    sweeps an entry is a signed sum of at most 2^b inputs, so |entry| <= 2^25 <
    2^31 up to n = TABLE_N_MAX_HUGE; int64 input stays int64."""
    return _lattice_sweep(values.astype(np.result_type(values.dtype, np.int32)), bits, np.subtract)


def zeta_transform(values: np.ndarray, bits: int) -> np.ndarray:
    """Subset sums: the inverse of the Mobius transform."""
    return _lattice_sweep(values.copy(), bits, np.add)


def coefficient_table(n: int, huge: bool = False) -> DualPolynomial:
    """Complete exact coefficient table of BPM*_n via the fast transform."""
    coeffs = mobius_transform(star_table(n, huge), n * n)
    nz = np.nonzero(coeffs)[0]
    return DualPolynomial(n, dict(zip(nz.tolist(), coeffs[nz].tolist())))
