"""Exact closed-form dual coefficients.

The coefficient of a totally ordered graph with representing sequence
(d_1, k_1), ..., (d_t, k_t) is

    binomial(n - k_{t-1} - 1, n - d_t)
        * prod_{i=1..t-1} f(d_{i+1} - k_{i-1}, d_i - k_{i-1}, k_i - k_{i-1})

under the convention binomial(a, b) = 0 unless 0 <= b <= a; graphs that are
not totally ordered have coefficient 0.  All values are exact arbitrary
precision integers.
"""

from __future__ import annotations

import math

from ._errors import SizeLimitError
from .bigraph import N_MAX, BipartiteGraph
from .ordered import Block, RepresentingSequence, _chain_profile

# _PASCAL[a][b] = C(a, b) for 0 <= a, b <= N_MAX, 0 for b > a.
_PASCAL = [[math.comb(a, b) for b in range(N_MAX + 1)] for a in range(N_MAX + 1)]


def binomial(a: int, b: int) -> int:
    """binomial(a, b) with value 0 outside 0 <= b <= a (no generalization)."""
    if b < 0 or a < 0 or b > a:
        return 0
    return math.comb(a, b)


def f_factor(n: int, d: int, k: int) -> int:
    """The per-block factor: C(n-1, k) for d <= 0, else -C(n-d-1, k-d)*C(k-1, d-1).

    Degenerate inputs make one of the binomials vanish, so the degenerate
    sequence case needs no separate handling.
    """
    if d <= 0:
        return binomial(n - 1, k)
    return -binomial(n - d - 1, k - d) * binomial(k - 1, d - 1)


def block_coefficient(block: Block) -> int:
    """Dual coefficient of an <n, d, k>-block."""
    return f_factor(block.n, block.d, block.k)


def sequence_coefficient(s: RepresentingSequence) -> int:
    """Dual coefficient of the sorted ordered graph with sequence s, for
    s.n <= N_MAX (the side cap of a graph, and the size of _PASCAL)."""
    if s.n > N_MAX:
        raise SizeLimitError("n", s.n, N_MAX)
    return _closed_form(s.n, s.pairs)


def _closed_form(n: int, pairs: tuple[tuple[int, int], ...]) -> int:
    """The closed form on valid (d_i, k_i) pairs, with k_0 = 0 and n <= N_MAX.

    Block i contributes f(d_{i+1} - k_{i-1}, d_i - k_{i-1}, k_i - k_{i-1}),
    with every binomial read from _PASCAL, whose rows hold 0 for b > a.  A
    negative index would wrap silently, but none is reached.  As d and k
    ascend strictly, the one binomial argument that can be negative is
    k - d, which the branch tests.  The top d_{i+1} - k_{i-1} - 1 of the
    d <= k_{i-1} branch is never negative where it is reached:
    d_{i+1} <= k_{i-1} gives d_i < k_{i-1}, which makes block i - 1's factor
    0 and ends the loop.
    """
    value = 1
    prev_k = 0
    for (d, k), (d_next, _) in zip(pairs, pairs[1:]):
        if d <= prev_k:  # C(d_next - prev_k - 1, k - prev_k)
            value *= _PASCAL[d_next - prev_k - 1][k - prev_k]
        elif k < d:  # C(d_next - d - 1, k - d) = 0
            return 0
        else:
            value *= -_PASCAL[d_next - d - 1][k - d] * _PASCAL[k - prev_k - 1][d - prev_k - 1]
        if value == 0:
            return 0
        prev_k = k
    return value * _PASCAL[n - prev_k - 1][n - pairs[-1][0]]


def dual_coefficient(g: BipartiteGraph) -> int:
    """Coefficient of g's monomial in the dual matching polynomial.

    Zero whenever the left neighbour sets do not form a chain; otherwise the
    closed form evaluated on the degree profile.  Agrees with subset-lattice
    inversion on every graph with n <= 4 (exhaustively tested).
    """
    pairs = _chain_profile(g.rows)
    if pairs is None:
        return 0
    return _closed_form(g.n, pairs)
