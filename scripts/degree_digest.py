"""Digest of the exchange engine's results over a fixed set of 862 queries.

    python3 scripts/degree_digest.py

Runs the uncached search `_search` on
  - m = 1..256 at eps in {1/3, 1/10, 1/1000},
  - the `bpm_degree_bound` grids m = n^2, n = 2..32, at eps in {1/3, 1/10, 1/100},
  - the n = 64 grid at eps = 1/3,
and prints two sha256 digests: one of the degrees alone, and one of each
(degree, node set).  Two checkouts whose engines give the same results
print the same lines.  Runs in a few seconds.
"""

from __future__ import annotations

import hashlib
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bpmdual.approxdeg import (  # noqa: E402
    _search,
    and_feasibility_target,
    epsilon_prime,
)


def queries() -> list[tuple[int, Fraction]]:
    """(m, target) for every query, in a fixed order."""
    out = [
        (m, and_feasibility_target(Fraction(1, k)))
        for m in range(1, 257)
        for k in (3, 10, 1000)
    ]
    out += [
        (n * n, and_feasibility_target(epsilon_prime(n, Fraction(1, k))))
        for n in range(2, 33)
        for k in (3, 10, 100)
    ]
    out.append((64 * 64, and_feasibility_target(epsilon_prime(64, Fraction(1, 3)))))
    return out


def main() -> None:
    degrees, results = hashlib.sha256(), hashlib.sha256()
    qs = queries()
    for m, target in qs:
        degree, nodes = _search(m, target)
        degrees.update(f"{degree}\n".encode())
        results.update(f"{degree} {list(nodes)}\n".encode())
    print(f"queries {len(qs)}")
    print(f"degrees {degrees.hexdigest()}")
    print(f"degrees+nodes {results.hexdigest()}")


if __name__ == "__main__":
    main()
