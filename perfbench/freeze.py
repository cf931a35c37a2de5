"""Recompute the reference outputs that the benchmark checks against.

    PYTHONPATH=src python3 perfbench/freeze.py > perfbench/reference.json

Run it only to re-freeze at a commit whose outputs are trusted; it takes a
few minutes. The values come from the program itself, so a later change
that alters any of them fails the benchmark's output checks.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

from bpmdual.approxdeg import bpm_degree_bound, min_and_approx_degree
from bpmdual.oracle import coefficient_table
from bpmdual.polyspace import max_abs_coefficient, monomial_count
from bpmdual.sensitivity import construct_path_input, sensitivity_at

from run import AND_EPS, APXDEG_EPS


def poly_hashes(n: int) -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for fmt in ("tsv", "json"):
            path = Path(tmp) / f"poly.{fmt}"
            subprocess.run([sys.executable, "-m", "bpmdual.cli", "poly", "--n", str(n),
                            "--format", fmt, "--out", str(path)], check=True)
            out[fmt] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def support(n: int) -> int:
    size = len(coefficient_table(n, huge=n > 4).terms)
    if size != monomial_count(n):
        raise SystemExit(f"table support {size} differs from monomial_count({n})")
    return size


def degree(n: int, eps: str) -> int:
    report = bpm_degree_bound(n, eps)
    if not report.certified:
        raise SystemExit(f"apxdeg n={n} eps={eps} is not certified")
    return report.and_degree


def main() -> None:
    warnings.simplefilter("ignore")
    ref = {
        "poly_sha256": {str(n): poly_hashes(n) for n in (3, 4)},
        "count": {str(n): {"monomial_count": monomial_count(n),
                           "max_abs_coefficient": max_abs_coefficient(n)} for n in (3, 10)},
        "sens_count": {str(n): sensitivity_at(construct_path_input(n)).count for n in (4, 16)},
        "support": {str(n): support(n) for n in (4, 5)},
        "apxdeg": {str(n): {eps: degree(n, eps) for eps in APXDEG_EPS} for n in (8, 16, 26)},
        "and_degree": {eps: [min_and_approx_degree(m, eps) for m in range(1, 257)] for eps in AND_EPS},
    }
    items = (f" {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(ref.items()))
    print("{\n" + ",\n".join(items) + "\n}")


if __name__ == "__main__":
    main()
