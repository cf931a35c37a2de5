"""A/B timing of one benchmark workload, or one CLI call, between two checkouts.

    python3 scripts/time_workload.py --workload exact --parent ../parent --change . --pairs 10
    python3 scripts/time_workload.py --cli "apxdeg --n 64 --eps 1/3" --parent ../parent --change .

Each pair runs both checkouts, each from its own root, one after the other;
the side that goes first alternates from pair to pair so that slow drift of
a shared machine falls on both.

--workload W runs `perfbench/run.py --workload W` with seed --seed + k in
pair k, every run lasting the run_seconds of the changed checkout's
BENCHMARK.json (--tiny: one pass of the smallest inputs, for the tests).
--cli ARGS starts a fresh interpreter with the checkout's src on PYTHONPATH
that imports `bpmdual.cli` and `bpmdual.approxdeg` (the modules perfbench's
setup_s imports) and then times one `bpmdual.cli.run(ARGS)` with its stdout
redirected, so imports are excluded from wall_s. peak_rss_mb is the child's
ru_maxrss, imports included; Linux carries the launching process's peak
across exec, so it never reads below this script's own (about 21 MB). The
run stops with an error if one side's runs print different stdout; where
the two sides differ, `same_outcome` is false and a warning goes to stderr.
The child hashes its stdout as it is written and keeps only the first 4096
characters of the text, which is all the record keeps: neither the child
nor this launcher ever holds a whole `poly --n 5` dump, so peak_rss_mb
counts the call's own memory and not its captured output.

Only the last line of a run's stdout is read: the JSON object with its
end-to-end metrics. The record written to --out (default BENCH_<workload>.json,
or BENCH_cli_<args>.json, at the root of this repository) holds every
pair's metrics, each side's median and quartiles, how many pairs the change
won on each metric, both commits with a sha256 of their src/bpmdual/*.py,
and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shlex
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")

# The line perfbench/run.py ends with, for one timed CLI call, plus the
# start of the captured stdout and the sha256 of all of it.
CLI_CHILD = """
import contextlib, hashlib, json, resource, sys, time
import bpmdual.cli, bpmdual.approxdeg
class Out:  # hashes what is written and keeps only its start
    def __init__(self):
        self.digest, self.head = hashlib.sha256(), ""
    def write(self, text):
        self.digest.update(text.encode())
        self.head += text[:4096 - len(self.head)]
        return len(text)
    def flush(self):
        pass
out = Out()
start = time.perf_counter()
with contextlib.redirect_stdout(out):
    code = bpmdual.cli.run(sys.argv[1:])
wall = time.perf_counter() - start
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"correct": code == 0, "attempted": 1, "failed": int(code != 0),
                  "metrics": {"wall_s": {"value": wall, "unit": "s"},
                              "peak_rss_mb": {"value": rss, "unit": "MB"}},
                  "stdout": out.head, "stdout_sha256": out.digest.hexdigest()}))
"""


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


def run_once(root: Path, argv: list[str]) -> dict:
    """One run of argv (after the interpreter) from root: its last stdout line."""
    out = subprocess.run([sys.executable, *argv], cwd=root, capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=str(root / "src")))
    result = json.loads(out.stdout.splitlines()[-1])
    result["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    return result


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


def _cli_outcome(pairs: list[dict]) -> dict:
    """Each side's one stdout (its start), and whether the sides agree by the
    sha256 of the whole; exits with an error if one side's runs disagree."""
    stdout, digests = {}, {}
    for side in SIDES:
        runs = {(p[side]["stdout_sha256"], p[side].pop("stdout")) for p in pairs}
        if len(runs) != 1:
            raise SystemExit(f"error: the {side} runs printed {len(runs)} different outputs")
        (digests[side], stdout[side]), = runs
    same = digests["parent"] == digests["change"]
    if not same:
        print("warning: parent and change print different output; "
              "their times do not compare the same work", file=sys.stderr)
    return {"same_outcome": same, "stdout": stdout}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", help="a perfbench workload")
    mode.add_argument("--cli", help='one bpmdual CLI call, e.g. "apxdeg --n 64 --eps 1/3"')
    parser.add_argument("--parent", type=Path, required=True, help="root of the parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="root of the changed checkout")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, help="seed of the first pair (default 100)")
    parser.add_argument("--tiny", action="store_true",
                        help="run.py --tiny --seconds 0, for the tests")
    parser.add_argument("--out", type=Path,
                        help="default: BENCH_<workload>.json or BENCH_cli_<args>.json here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.cli is not None and (args.seed is not None or args.tiny):
        parser.error("--seed and --tiny apply to --workload only")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    needs = "perfbench/run.py" if args.cli is None else "src/bpmdual/cli.py"
    for side, root in roots.items():
        if not (root / needs).is_file():
            parser.error(f"--{side} {root} has no {needs}")

    if args.cli is None:
        spec = _spec(roots["change"])
        if args.tiny:
            seconds = 0
        elif "run_seconds" in spec:
            seconds = spec["run_seconds"]
        else:
            parser.error(f"--change {roots['change']} has no BENCHMARK.json with run_seconds")
        seed = 100 if args.seed is None else args.seed
        what = (f"perfbench/run.py --workload {args.workload} --seconds {seconds:g}"
                f"{' --tiny' if args.tiny else ''}")
        directions = {m["name"]: m["better"] for m in spec.get("end_to_end", [])}
        subject, label = {"workload": args.workload}, args.workload

        def command(k: int) -> list[str]:
            return (["perfbench/run.py", "--workload", args.workload, "--seed", str(seed + k),
                     "--seconds", str(seconds)] + (["--tiny"] if args.tiny else []))
    else:
        cli_args = shlex.split(args.cli)
        what = f"bpmdual.cli.run({cli_args}) in a fresh interpreter, imports excluded from wall_s"
        directions = {"wall_s": "lower", "peak_rss_mb": "lower"}
        subject = {"cli": cli_args}
        label = "cli_" + "_".join(re.findall(r"[A-Za-z0-9.]+", args.cli))

        def command(k: int) -> list[str]:
            return ["-c", CLI_CHILD, *cli_args]
    out_path = args.out or ROOT / f"BENCH_{label}.json"

    pairs = []
    for k in range(args.pairs):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        pair = {"pair": k, "first": order[0]}
        if args.cli is None:
            pair["seed"] = seed + k
        for side in order:
            pair[side] = run_once(roots[side], command(k))
        pairs.append(pair)
        print(f"pair {k} ({order[0]} first): "
              + ", ".join(f"{side} wall_s {pair[side]['metrics'].get('wall_s', float('nan')):.3f}"
                          for side in SIDES), file=sys.stderr)
    if args.cli is not None:
        subject.update(_cli_outcome(pairs))

    record = {
        "what": f"{what}, parent and change alternating in {args.pairs} pairs",
        **subject,
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
        "summary": summarize(pairs, directions),
        "pairs": pairs,
    }
    out_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({name: s.get("change_wins") for name, s in record["summary"].items()}))
    return 0 if record["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
