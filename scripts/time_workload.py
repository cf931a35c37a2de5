"""A/B timing of one benchmark workload between two checkouts.

    python3 scripts/time_workload.py --workload exact --parent ../parent --change . --pairs 10

Each pair runs `perfbench/run.py` of both checkouts, each from its own root
and with the same seed, one after the other; the side that goes first
alternates from pair to pair so that slow drift of a shared machine falls on
both. Pair k uses seed --seed + k, and every run lasts the run_seconds of
the changed checkout's BENCHMARK.json (--tiny: one pass of the smallest
inputs, for the tests). Only the last line of run.py's stdout is read: the JSON object with its end-to-end metrics. The record written to
--out (default BENCH_<workload>.json at the root of this repository) holds
every pair's metrics, each side's median and quartiles, how many pairs the
change won on each metric, both commits with a sha256 of their
src/bpmdual/*.py, and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def _git(root: Path, *args: str) -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def source_sha256(root: Path) -> str:
    """sha256 over the names and bytes of root/src/bpmdual/*.py, sorted by name."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "bpmdual").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def _spec(root: Path) -> dict:
    try:
        return json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}


def run_once(root: Path, workload: str, seed: int, seconds: float, tiny: bool) -> dict:
    argv = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    if tiny:
        argv.append("--tiny")
    out = subprocess.run(argv, cwd=root, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def summarize(pairs: list[dict], directions: dict[str, str]) -> dict:
    names = [name for name in pairs[0]["parent"]["metrics"]
             if all(name in p[side]["metrics"] for p in pairs for side in SIDES)]
    summary = {}
    for name in names:
        entry = {}
        for side in SIDES:
            values = [p[side]["metrics"][name] for p in pairs]
            q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                              if len(values) > 1 else values * 3)
            entry[side] = {"median": median, "q1": q1, "q3": q3}
        better = directions.get(name)
        if better in ("lower", "higher"):
            sign = 1 if better == "lower" else -1
            entry["better"] = better
            entry["change_wins"] = sum(
                1 for p in pairs
                if sign * (p["change"]["metrics"][name] - p["parent"]["metrics"][name]) < 0)
            entry["median_change"] = (entry["change"]["median"] / entry["parent"]["median"] - 1
                                      if entry["parent"]["median"] else None)
        summary[name] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--parent", type=Path, required=True, help="root of the parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="root of the changed checkout")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=100, help="seed of the first pair")
    parser.add_argument("--tiny", action="store_true",
                        help="run.py --tiny --seconds 0, for the tests")
    parser.add_argument("--out", type=Path, help="default: BENCH_<workload>.json here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, root in roots.items():
        if not (root / "perfbench" / "run.py").is_file():
            parser.error(f"--{side} {root} has no perfbench/run.py")
    spec = _spec(roots["change"])
    if args.tiny:
        seconds = 0
    elif "run_seconds" in spec:
        seconds = spec["run_seconds"]
    else:
        parser.error(f"--change {roots['change']} has no BENCHMARK.json with run_seconds")
    out_path = args.out or ROOT / f"BENCH_{args.workload}.json"

    pairs = []
    for k in range(args.pairs):
        seed = args.seed + k
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        pair = {"pair": k, "seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(roots[side], args.workload, seed, seconds, args.tiny)
        pairs.append(pair)
        print(f"pair {k} (seed {seed}, {order[0]} first): "
              + ", ".join(f"{side} wall_s {pair[side]['metrics'].get('wall_s', float('nan')):.3f}"
                          for side in SIDES), file=sys.stderr)

    record = {
        "what": f"perfbench/run.py --workload {args.workload} --seconds {seconds:g}"
                f"{' --tiny' if args.tiny else ''}, parent and change alternating in {args.pairs} pairs",
        "workload": args.workload,
        "commits": {side: {"commit": _git(root, "rev-parse", "HEAD"),
                           "modified": bool(_git(root, "status", "--porcelain", "--",
                                                 "src", "perfbench")),
                           "src_sha256": source_sha256(root)}
                    for side, root in roots.items()},
        "environment": {
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, {platform.system()}",
        },
        "all_correct": all(p[side]["correct"] for p in pairs for side in SIDES),
        "summary": summarize(pairs, {m["name"]: m["better"]
                                     for m in spec.get("end_to_end", [])}),
        "pairs": pairs,
    }
    out_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({name: s.get("change_wins") for name, s in record["summary"].items()}))
    return 0 if record["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
