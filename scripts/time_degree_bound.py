"""Time bpm_degree_bound(n, 1/3) in fresh interpreters and record the result.

    python3 scripts/time_degree_bound.py --n 32 64 --repeats 3 --label change
    python3 scripts/time_degree_bound.py --src ../parent/src --label parent

Each repeat starts a new interpreter that imports bpmdual from --src and
times the one call, imports excluded; repeats cycle over the sizes so slow
drift of a shared machine spreads over all of them.  The entry written for
--label replaces any entry with the same label in --out, so one file holds a
commit and its parent measured on the same machine.  The run stops with an
error if repeats of one size disagree on the degree or the certificate.
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


def _git(src: Path, *args: str) -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(src), *args], capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def _time_once(src: Path, n: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", CHILD, str(n)], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def measure(src: Path, sizes: list[int], repeats: int) -> tuple[list[dict], str]:
    samples: dict[int, list[dict]] = {n: [] for n in sizes}
    for _ in range(repeats):
        for n in sizes:
            samples[n].append(_time_once(src, n))
            print(f"n={n}: {samples[n][-1]['seconds']:.2f} s", file=sys.stderr)
    results = []
    for n, runs in samples.items():
        outcomes = {(r["degree"], r["certified"]) for r in runs}
        if len(outcomes) != 1:
            raise SystemExit(f"error: n={n} repeats disagree: {sorted(outcomes)}")
        (degree, certified), = outcomes
        seconds = [r["seconds"] for r in runs]
        q1, median, q3 = (statistics.quantiles(seconds, n=4, method="inclusive")
                          if len(seconds) > 1 else seconds * 3)
        results.append({"n": n, "eps": "1/3", "degree": degree, "certified": certified,
                        "repeats": len(seconds), "seconds": [round(s, 3) for s in seconds],
                        "median_s": round(median, 3), "q1_s": round(q1, 3),
                        "q3_s": round(q3, 3)})
    return results, samples[sizes[0]][0]["numpy"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, nargs="+", default=[32, 64])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory that holds the bpmdual package")
    parser.add_argument("--label", required=True, help="entry name, e.g. change or parent")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_degree_bound.json")
    args = parser.parse_args(argv)
    if args.repeats < 1 or min(args.n) < 1:
        parser.error("--repeats and every --n must be at least 1")

    src = args.src.resolve()
    results, numpy_version = measure(src, args.n, args.repeats)
    entry = {
        "label": args.label,
        "commit": _git(src, "rev-parse", "HEAD"),
        "src_modified": bool(_git(src, "status", "--porcelain", "--", ".")),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, {platform.system()}",
        "results": results,
    }
    record = {"what": "bpm_degree_bound(n, 1/3) call time, one fresh interpreter per repeat",
              "entries": []}
    if args.out.exists():
        record = json.loads(args.out.read_text(encoding="utf-8"))
    record["entries"] = [e for e in record["entries"] if e["label"] != args.label] + [entry]
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(entry))
    return 0


if __name__ == "__main__":
    sys.exit(main())
