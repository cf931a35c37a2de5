"""Sensitivity of the matching function and the resulting degree lower bound.

The sensitive input is a pair of disjoint alternating paths; joining any
left vertex of the first path to any right vertex of the second splits both
into even paths and creates a perfect matching, so every such pair of
vertices contributes a sensitive bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._errors import DomainError, SizeLimitError
from .bigraph import BipartiteGraph, has_perfect_matching

SENSITIVITY_N_MAX = 16


@dataclass(frozen=True)
class SensitivityReport:
    n: int
    input: BipartiteGraph
    sensitive_edges: tuple[tuple[int, int], ...]  # 1-based positions
    count: int
    lower_bound_formula: int
    degree_lower_bound: int


def sens_lower_bound(n: int) -> int:
    """(n/2)(n/2+1) for even n, ((n-1)/2+1)^2 for odd n."""
    if n < 2:
        raise DomainError(f"the bound needs n >= 2, got {n}")
    if n % 2 == 0:
        return (n // 2) * (n // 2 + 1)
    return ((n - 1) // 2 + 1) ** 2


def degree_lower_bound(n: int) -> int:
    """ceil(sqrt(sens_lower_bound(n) / 6)), exactly in integers."""
    bound = sens_lower_bound(n)
    # Least z with 6 z^2 >= bound.
    z = math.isqrt(bound // 6)
    while 6 * z * z < bound:
        z += 1
    return z


def construct_path_input(n: int) -> BipartiteGraph:
    """The two-disjoint-paths input witnessing the sensitivity bound.

    With p = floor(n/2) + 1: P1 = (a_1, b_1, a_2, ..., b_{p-1}, a_p) and
    P2 = (b_p, a_{p+1}, b_{p+1}, ..., a_n, b_n).  For odd n only the
    stated odd-case bound is asserted against the flip count.
    """
    if n < 2:
        raise DomainError(f"construction needs n >= 2, got {n}")
    p = n // 2 + 1
    edges: list[tuple[int, int]] = []
    for i in range(1, p):
        edges.append((i, i))
        edges.append((i + 1, i))
    for i in range(p + 1, n + 1):
        edges.append((i, i - 1))
        edges.append((i, i))
    return BipartiteGraph.from_edges(n, edges)


def sensitivity_at(x: BipartiteGraph) -> SensitivityReport:
    """Flip each of the n^2 positions once and count output changes of BPM."""
    n = x.n
    if n > SENSITIVITY_N_MAX:
        raise SizeLimitError("n", n, SENSITIVITY_N_MAX)
    base = has_perfect_matching(x)
    sensitive = []
    for i in range(n):
        for j in range(n):
            rows = list(x.rows)
            rows[i] ^= 1 << j
            if has_perfect_matching(BipartiteGraph(n, tuple(rows))) != base:
                sensitive.append((i + 1, j + 1))
    formula = sens_lower_bound(n) if n >= 2 else 0
    degree = degree_lower_bound(n) if n >= 2 else 0
    return SensitivityReport(
        n=n,
        input=x,
        sensitive_edges=tuple(sensitive),
        count=len(sensitive),
        lower_bound_formula=formula,
        degree_lower_bound=degree,
    )
