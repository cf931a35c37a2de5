"""A/B timing of bpm_degree_bound(n, 1/3) between two checkouts.

    python3 scripts/time_degree_bound.py --parent ../parent --change . --n 32 64 --repeats 5

Each timing starts a new interpreter that imports bpmdual from the
checkout's src directory and times the one call, imports excluded.  Each
repeat times every size on both sides, and the side that goes first
alternates from repeat to repeat, so slow drift of a shared machine falls
on both.  The record written to --out (default BENCH_degree_bound.json at
the root of this repository) holds every time, each side's median and
quartiles per size, how many repeats the change won, both commits with a
sha256 of their src/bpmdual/*.py, and the environment.  The run stops with
an error if repeats of one side and size disagree on the degree or the
certificate; where the two sides disagree, the size's `same_outcome` is
false and a warning goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from time_workload import SIDES, _git, source_sha256  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import json, sys, time
from fractions import Fraction
import numpy
from bpmdual.approxdeg import bpm_degree_bound
n = int(sys.argv[1])
start = time.perf_counter()
report = bpm_degree_bound(n, Fraction(1, 3))
seconds = time.perf_counter() - start
print(json.dumps({"seconds": seconds, "degree": report.and_degree,
                  "certified": report.certified, "numpy": numpy.__version__}))
"""


def _time_once(root: Path, n: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run([sys.executable, "-c", CHILD, str(n)], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median_s": round(median, 3), "q1_s": round(q1, 3), "q3_s": round(q3, 3)}


def measure(roots: dict[str, Path], sizes: list[int], repeats: int) -> tuple[list[dict], str]:
    samples = {(side, n): [] for side in SIDES for n in sizes}
    for k in range(repeats):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        for n in sizes:
            for side in order:
                samples[side, n].append(_time_once(roots[side], n))
            print(f"repeat {k}, n={n}: " + ", ".join(
                f"{side} {samples[side, n][-1]['seconds']:.2f} s" for side in SIDES),
                file=sys.stderr)
    results = []
    for n in sizes:
        result = {"n": n, "eps": "1/3", "repeats": repeats}
        for side in SIDES:
            runs = samples[side, n]
            outcomes = {(r["degree"], r["certified"]) for r in runs}
            if len(outcomes) != 1:
                raise SystemExit(f"error: {side} n={n} repeats disagree: {sorted(outcomes)}")
            (degree, certified), = outcomes
            seconds = [r["seconds"] for r in runs]
            result[side] = {"degree": degree, "certified": certified,
                            "seconds": [round(s, 3) for s in seconds], **_quartiles(seconds)}
        result["same_outcome"] = all(
            result["parent"][key] == result["change"][key] for key in ("degree", "certified"))
        if not result["same_outcome"]:
            print(f"warning: n={n}: parent and change report different outcomes; "
                  "their times do not compare the same work", file=sys.stderr)
        result["change_wins"] = sum(
            1 for a, b in zip(samples["parent", n], samples["change", n])
            if b["seconds"] < a["seconds"])
        medians = [statistics.median(r["seconds"] for r in samples[side, n]) for side in SIDES]
        result["median_change"] = round(medians[1] / medians[0] - 1, 3) if medians[0] else None
        results.append(result)
    return results, samples["change", sizes[0]][0]["numpy"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="root of the parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="root of the changed checkout")
    parser.add_argument("--n", type=int, nargs="+", default=[32, 64])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_degree_bound.json")
    args = parser.parse_args(argv)
    if args.repeats < 1 or min(args.n) < 1:
        parser.error("--repeats and every --n must be at least 1")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, root in roots.items():
        if not (root / "src" / "bpmdual" / "approxdeg.py").is_file():
            parser.error(f"--{side} {root} has no src/bpmdual/approxdeg.py")

    results, numpy_version = measure(roots, args.n, args.repeats)
    record = {
        "what": "bpm_degree_bound(n, 1/3) call time, one fresh interpreter per timing, "
                f"parent and change alternating in {args.repeats} repeats",
        "commits": {side: {"commit": _git(root, "rev-parse", "HEAD"),
                           "modified": bool(_git(root, "status", "--porcelain", "--", "src")),
                           "src_sha256": source_sha256(root)}
                    for side, root in roots.items()},
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy_version,
            "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, {platform.system()}",
        },
        "results": results,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({r["n"]: {"change_wins": r["change_wins"],
                               "median_change": r["median_change"]} for r in results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
