"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 > perfbench/baseline.json
    python3 perfbench/spread.py --workloads exact,and-sweep --seeds 11-15

For every workload and end-to-end metric this prints the median of the
per-run values, their quartiles (statistics.quantiles, n=4) and the spread,
which is the distance between the quartiles as a share of the median. Runs
go one at a time, with the same settings as BENCHMARK.json. A run that
fails or reports failed jobs stops the summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = parser.parse_args()
    out = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        durations = []
        for seed in args.seeds:
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            durations.append(time.monotonic() - start)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if not result or not result["correct"]:
                print(f"{workload} seed {seed} failed:\n{proc.stdout}\n{proc.stderr}", file=sys.stderr)
                return 1
            if "env" not in out:
                out["env"] = json.loads(lines[0].removeprefix("# env "))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: {durations[-1]:.1f} s", file=sys.stderr)
        out["workloads"][workload] = {
            "run_s": summary(durations),
            **{name: summary(v) for name, v in values.items()},
        }
        for name, s in out["workloads"][workload].items():
            print(f"{workload} {name}: median {s['median']:.4g}, spread {s['spread']:.3f}", file=sys.stderr)
    out["env"].pop("seed", None)
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
