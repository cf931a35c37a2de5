"""Library jobs of the benchmark, each run in its own interpreter.

    python3 perfbench/jobs.py oracles|table|andsweep INPUT.json

A job reads the inputs the benchmark generated from its seed, calls the
bpmdual library, and prints its results as one JSON line on stdout. Nothing
on stdout depends on timing, so a traced and an untraced run of the same
job print the same bytes. The benchmark checks the results.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from bpmdual import PreconditionError
from bpmdual.bigraph import BipartiteGraph
from bpmdual.coeff import dual_coefficient
from bpmdual.oracle import (
    coefficient_table,
    elementary_sum_coefficient,
    mc_chi_sum_coefficient,
    mobius_coefficient,
    permitted_sum_coefficient,
)
from bpmdual.ordered import canonical_sort, is_totally_ordered


def oracles(inp: dict) -> dict:
    """Every coefficient derivation on each graph; None marks a skipped one."""
    n = inp["n"]
    rows = []
    for mask in inp["masks"]:
        g = BipartiteGraph.from_mask(n, mask)
        try:
            elementary = elementary_sum_coefficient(g)
        except PreconditionError:
            elementary = None
        # The permitted-edge sum needs a totally ordered graph; others have coefficient 0.
        permitted = permitted_sum_coefficient(canonical_sort(g)[0]) if is_totally_ordered(g) else None
        rows.append([mask, dual_coefficient(g), mobius_coefficient(g), mc_chi_sum_coefficient(g),
                     elementary, permitted])
    return {"rows": rows}


def table(inp: dict) -> dict:
    """The full coefficient table, compared entry by entry with the closed form."""
    n = inp["n"]
    poly = coefficient_table(n, huge=inp["huge"])
    terms = poly.terms
    mismatches = sum(
        1 for mask, c in terms.items() if dual_coefficient(BipartiteGraph.from_mask(n, mask)) != c
    )
    probe_mismatches = sum(
        1 for mask in inp["probes"]
        if dual_coefficient(BipartiteGraph.from_mask(n, mask)) != terms.get(mask, 0)
    )
    return {"support": len(terms), "mismatches": mismatches, "probe_mismatches": probe_mismatches}


def andsweep(inp: dict) -> dict:
    """Each (m, eps) pair queried at two tolerances, then witnesses for some pairs."""
    # Imported here so that the other jobs never load the approximation engine.
    from bpmdual.approxdeg import build_and_approximant, min_and_approx_degree

    pairs = [(m, Fraction(eps)) for m, eps in inp["pairs"]]
    degrees = []
    for m, eps in pairs:
        first = min_and_approx_degree(m, eps, Fraction(1, 10**9))
        second = min_and_approx_degree(m, eps, Fraction(1, 10**12))
        degrees.append([first, second])
    witnesses = [build_and_approximant(*pairs[i]).degree for i in inp["build"]]
    return {"degrees": degrees, "witness_degrees": witnesses}


JOBS = {"oracles": oracles, "table": table, "andsweep": andsweep}


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in JOBS:
        print(f"usage: jobs.py {{{'|'.join(JOBS)}}} INPUT.json", file=sys.stderr)
        return 2
    with open(argv[1], encoding="utf-8") as fh:
        inp = json.load(fh)
    print(json.dumps(JOBS[argv[0]](inp), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
