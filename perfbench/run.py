"""The bpmdual benchmark: cold-process workloads with checked outputs.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 30 --trace 0

Every job runs in a fresh interpreter, one at a time, because that is what
a CLI user pays: the module-level caches of the program start empty in
each process. The seed generates the inputs only; the program receives
only those inputs. Every output is checked against a brute-force test or
the values frozen in reference.json, and a failed check counts as a failed
job rather than stopping the run.

With --trace 0 the run repeats the workload's jobs in passes until
--seconds have been measured (at least one pass) and reports the
end-to-end metrics as medians over passes. With --trace 1 it runs each job
twice in a row, untraced and then with every public bpmdual function wrapped
in a span (see spans.py), checks that both print the same bytes, and reports
the per-layer metrics. The last line of stdout is one JSON object; lines before
it record the environment, the quartiles and the failures.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import random
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from itertools import permutations
from pathlib import Path
from typing import Callable, Optional

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
JOBS_PY = HERE / "jobs.py"
SPANS_PY = HERE / "spans.py"

WORKLOADS = ("exact", "table5", "degree-bound", "and-sweep")
APXDEG_EPS = ("1/3", "1/10", "1/100")
AND_EPS = ("1/3", "1/10", "1/1000")
CLI_SUBCOMMANDS = ("verify", "poly", "eval", "count", "sens", "apxdeg")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 16  # set-up times per untraced run, whatever its number of passes
RUN_LIMIT_S = 165  # every run, traced or not, ends well inside 180 s

Check = Callable[[str], Optional[str]]  # job stdout -> failure reason, or None


@dataclass
class Job:
    kind: str  # CLI subcommand, or "lib.<job>" for jobs.py
    argv: list[str]  # arguments after the interpreter
    check: Check
    files: list[Path] = field(default_factory=list)  # outputs written besides stdout


def cli(*args) -> list[str]:
    return ["-m", "bpmdual.cli", *map(str, args)]


def lib(work: Path, name: str, inp: dict, check: Callable[[dict], Optional[str]]) -> Job:
    """A jobs.py job, whose stdout is one JSON result for `check`."""
    path = work / f"{name}.in.json"
    path.write_text(json.dumps(inp), encoding="utf-8")
    return Job(f"lib.{name}", [str(JOBS_PY), name, str(path)], check_json(check))


# ---------------------------------------------------------------------------
# Independent checks, written without bpmdual


def star_value(n: int, mask: int) -> int:
    """BPM* by brute force: 1 iff every perfect matching of K_{n,n} meets the graph."""
    return int(all(any(mask >> (i * n + p[i]) & 1 for i in range(n)) for p in permutations(range(n))))


def graph_text(n: int, mask: int) -> str:
    rows = ("".join("1" if mask >> (i * n + j) & 1 else "0" for j in range(n)) for i in range(n))
    return f"{n}\n" + "\n".join(rows) + "\n"


def fields(out: str) -> dict[str, str]:
    return dict(line.split("\t", 1) for line in out.splitlines() if "\t" in line)


def expect(label: str, got, want) -> Optional[str]:
    return None if got == want else f"{label}: got {got!r}, expected {want!r}"


def check_verify(n: int) -> Check:
    size = 1 << (n * n)
    want = (f"{size} coefficients compared against the closed form; 0 mismatches\n"
            f"{size} evaluation points checked against the matching oracle; 0 mismatches\nOK\n")
    return lambda out: expect("verify output", out, want)


def check_file(path: Path, sha256: str) -> Check:
    def check(_out: str) -> Optional[str]:
        if not path.is_file():
            return f"{path.name} was not written"
        return expect(f"sha256 of {path.name}", hashlib.sha256(path.read_bytes()).hexdigest(), sha256)
    return check


def check_fields(want: dict) -> Check:
    def check(out: str) -> Optional[str]:
        got = fields(out)
        for key, value in want.items():
            reason = expect(key, got.get(key), str(value))
            if reason:
                return reason
        return None
    return check


def check_json(predicate: Callable[[dict], Optional[str]]) -> Check:
    def check(out: str) -> Optional[str]:
        try:
            result = json.loads(out)
        except ValueError:
            return "job printed no JSON result"
        return predicate(result)
    return check


# ---------------------------------------------------------------------------
# Workloads: each builds its jobs from the seed and the frozen reference


def random_mask(rng: random.Random, n: int, edges: int) -> int:
    return sum(1 << b for b in rng.sample(range(n * n), edges))


def ordered_mask(rng: random.Random, n: int, edges: int) -> int:
    """A random totally ordered graph: a staircase with shuffled rows and columns."""
    while True:
        degrees = sorted(rng.randint(0, n) for _ in range(n))
        if sum(degrees) == edges:
            break
    rows, cols = rng.sample(range(n), n), rng.sample(range(n), n)
    return sum(1 << (rows[i] * n + cols[j]) for i, d in enumerate(degrees) for j in range(d))


def exact(rng: random.Random, work: Path, ref: dict, tiny: bool) -> list[Job]:
    n, count_n, sens_n, graphs, (lo, hi) = (3, 3, 4, 12, (2, 7)) if tiny else (4, 10, 16, 100, (5, 11))
    poly = {fmt: work / f"poly.{fmt}" for fmt in ("tsv", "json")}
    jobs = [Job("verify", cli("verify", "--n", n), check_verify(n))]
    for fmt, path in poly.items():
        jobs.append(Job("poly", cli("poly", "--n", n, "--format", fmt, "--out", path),
                        check_file(path, ref["poly_sha256"][str(n)][fmt]), files=[path]))
    for i, (fmt, edges) in enumerate((("tsv", n * n // 2), ("json", n * n * 3 // 4))):
        mask = random_mask(rng, n, edges)
        graph = work / f"graph{i}.txt"
        graph.write_text(graph_text(n, mask), encoding="utf-8")
        jobs.append(Job("eval", cli("eval", "--graph", graph, "--poly", poly[fmt]),
                        lambda out, want=star_value(n, mask): expect("eval", out.strip(), str(want))))
    jobs.append(Job("count", cli("count", "--n", count_n),
                    check_fields({**ref["count"][str(count_n)], "bounds": "OK"})))
    jobs.append(Job("sens", cli("sens", "--n", sens_n),
                    check_fields({"count": ref["sens_count"][str(sens_n)]})))
    # Every seed gets the same edge counts: the oracles enumerate 2^|E| subsets or
    # 2^(n^2-|E|) supersets, so the edge counts set the job's cost. Half of the
    # graphs are totally ordered, so that nonzero coefficients are compared too.
    sizes = [lo + i // 2 % (hi - lo + 1) for i in range(graphs)]
    masks = [(random_mask if i % 2 else ordered_mask)(rng, n, k) for i, k in enumerate(sizes)]

    def agree(result: dict) -> Optional[str]:
        rows = result.get("rows", [])
        if [row[0] for row in rows] != masks:
            return "oracles: graphs missing from the result"
        for mask, *values in rows:
            if len({v for v in values if v is not None}) != 1:
                return f"oracles disagree on mask {mask}: {values}"
        return None

    return jobs + [lib(work, "oracles", {"n": n, "masks": masks}, agree)]


def table5(rng: random.Random, work: Path, ref: dict, tiny: bool) -> list[Job]:
    n = 4 if tiny else 5
    probes = [rng.getrandbits(n * n) for _ in range(200 if tiny else 2000)]
    want = {"support": ref["support"][str(n)], "mismatches": 0, "probe_mismatches": 0}
    return [lib(work, "table", {"n": n, "huge": n > 4, "probes": probes},
                lambda result: expect("table", result, want))]


def degree_bound(rng: random.Random, work: Path, ref: dict, tiny: bool) -> list[Job]:
    # n = 26 stays at eps = 1/3: its cost moves by a third across the eps set,
    # which would swamp the run-to-run spread. n = 16 costs about the same at each eps.
    if tiny:
        runs = [(8, e) for e in rng.sample(APXDEG_EPS, 2)]
    else:
        runs = rng.sample([(16, rng.choice(APXDEG_EPS)), (26, "1/3")], 2)
    return [Job("apxdeg", cli("apxdeg", "--n", n, "--eps", eps),
                check_fields({"and_degree": ref["apxdeg"][str(n)][eps], "certified": True}))
            for n, eps in runs]


def and_sweep(rng: random.Random, work: Path, ref: dict, tiny: bool) -> list[Job]:
    # One m from each of `count` equal strata of [lo, hi], so that every seed
    # spreads the same cost over the range; each eps gets a third of the pairs.
    lo, hi, count, builds = (8, 32, 6, 2) if tiny else (64, 256, 42, 4)
    edges = [lo + (hi + 1 - lo) * i // count for i in range(count + 1)]
    ms = [rng.randrange(a, b) for a, b in zip(edges, edges[1:])]
    eps = [e for _ in range(count // 3) for e in rng.sample(AND_EPS, 3)]
    pairs = list(zip(ms, eps))
    group = count // builds
    build = [g * group + rng.randrange(group) for g in range(builds)]
    want = {"degrees": [[ref["and_degree"][e][m - 1]] * 2 for m, e in pairs],
            "witness_degrees": [ref["and_degree"][pairs[i][1]][pairs[i][0] - 1] for i in build]}
    return [lib(work, "andsweep", {"pairs": pairs, "build": build},
                lambda result: expect("and-sweep", result, want))]


BUILDERS = {"exact": exact, "table5": table5, "degree-bound": degree_bound, "and-sweep": and_sweep}


# ---------------------------------------------------------------------------
# Running jobs


@dataclass
class Outcome:
    wall: float
    cpu: float
    rss_mb: float
    digest: str
    failure: Optional[str]


def job_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def spawn(argv: list[str], out: Path, err: Path, env: dict, deadline: float):
    """Run one interpreter to completion; returns (exit code, rusage).

    The exit code is None when the run limit killed the interpreter. The child
    is reaped with wait4 because its own max RSS is needed: the ru_maxrss of
    RUSAGE_CHILDREN is the largest over every child so far, set-up
    interpreters included. It is killed only while unreaped, so its pid is
    still its own.
    """
    with open(out, "wb") as fo, open(err, "wb") as fe:
        proc = subprocess.Popen([sys.executable, *argv], stdout=fo, stderr=fe, env=env, cwd=ROOT)
    pidfd = os.pidfd_open(proc.pid)
    try:
        exited = select.select([pidfd], [], [], max(deadline - time.monotonic(), 0.1))[0]
    finally:
        os.close(pidfd)
    if not exited:
        proc.kill()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait again
    return (proc.returncode if exited else None), usage


def run_job(job: Job, index: int, work: Path, env: dict, deadline: float,
            spans_path: Optional[Path]) -> Outcome:
    out, err = work / f"job{index}.out", work / f"job{index}.err"
    argv = job.argv if spans_path is None else [str(SPANS_PY), str(spans_path), *job.argv]
    start = time.perf_counter()
    code, usage = spawn(argv, out, err, env, deadline)
    stdout = out.read_bytes()
    stderr = err.read_text(encoding="utf-8", errors="replace")
    if code is None:
        failure = "killed at the run limit"
    elif code != 0:
        failure = f"exit code {code}: {stderr.strip()[-300:]}"
    elif "Traceback" in stderr:
        failure = f"traceback on stderr: {stderr.strip()[-300:]}"
    else:
        failure = job.check(stdout.decode("utf-8", errors="replace"))
    wall = time.perf_counter() - start
    digest = hashlib.sha256(stdout)
    for path in job.files:
        digest.update(path.read_bytes() if path.is_file() else b"")
    return Outcome(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                   digest.hexdigest(), failure)


@dataclass
class Pass:
    outcomes: list[Outcome] = field(default_factory=list)
    spans: dict = field(default_factory=dict)
    counters: dict = field(default_factory=lambda: dict.fromkeys(spans.COUNTERS, 0))

    @property
    def wall(self) -> float:
        """Launch to checked output, summed over the pass's jobs."""
        return sum(o.wall for o in self.outcomes)

    @property
    def cpu(self) -> float:
        return sum(o.cpu for o in self.outcomes)

    def add_spans(self, path: Path) -> None:
        if not path.is_file():
            return
        report = json.loads(path.read_text(encoding="utf-8"))
        for name, (calls, self_s) in report["spans"].items():
            total = self.spans.setdefault(name, [0, 0.0])
            total[0] += calls
            total[1] += self_s
        for name, value in report["counters"].items():
            self.counters[name] = (max(self.counters[name], value) if name == "oracle.table_bytes"
                                   else self.counters[name] + value)


def run_passes(jobs: list[Job], work: Path, env: dict, deadline: float,
               modes: tuple[bool, ...] = (False,)) -> list[Pass]:
    """One pass per mode (traced or not). The modes of a job run back to back,
    so that with (False, True) both sides sample the same stretch of time."""
    passes = [Pass() for _ in modes]
    for i, job in enumerate(jobs):
        for into, traced in zip(passes, modes):
            spans_path = work / f"job{i}.spans.json" if traced else None
            into.outcomes.append(run_job(job, i, work, env, deadline, spans_path))
            if traced:
                into.add_spans(spans_path)
    return passes


def measure_setup(env: dict, work: Path, deadline: float, repeats: int) -> list[float]:
    """Wall times of fresh interpreters that import the CLI and the engine."""
    argv = ["-c", "import bpmdual.cli, bpmdual.approxdeg"]
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        code, _ = spawn(argv, work / "setup.out", work / "setup.err", env, deadline)
        if code != 0:
            raise RuntimeError((work / "setup.err").read_text(encoding="utf-8", errors="replace")
                               or "set-up killed at the run limit")
        times.append(time.perf_counter() - start)
    return times


# ---------------------------------------------------------------------------
# Reporting


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def per_layer(traced: Pass, plain: Pass, jobs: list[Job]) -> dict:
    metrics = {}
    for layer, names in spans.TRACED.items():
        for qualname in names:
            name = f"{layer}.{qualname.rpartition('.')[2]}"
            calls, self_s = traced.spans.get(name, (0, 0.0))
            metrics[f"{name}.calls"] = (calls, "count")
            metrics[f"{name}.self_s"] = (self_s, "s")
    c = traced.counters
    metrics["oracle.transform_bytes"] = (c["oracle.transform_bytes"], "B")
    metrics["oracle.table_bytes"] = (c["oracle.table_bytes"], "B")
    metrics["polyspace.sequences_visited"] = (c["polyspace.sequences_visited"], "count")
    metrics["approxdeg.repeat_query_s"] = (c["approxdeg.repeat_query_s"], "s")
    reports = c["approxdeg.reports"]
    metrics["approxdeg.certified_share"] = (c["approxdeg.certified_reports"] / reports if reports else 0.0,
                                            "ratio")
    for sub in CLI_SUBCOMMANDS:
        wall = sum(o.wall for job, o in zip(jobs, plain.outcomes) if job.kind == sub)
        metrics[f"cli.{sub}_s"] = (wall, "s")
    metrics["trace_overhead_s"] = (traced.wall - plain.wall, "s")
    return metrics


def environment(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():  # never the commit of a repository around the checkout
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "bpmdual").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "seed": seed,
        "job_threads": {var: "1" for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs, for the tests")
    args = parser.parse_args(argv)
    if not (SRC / "bpmdual" / "__init__.py").is_file():
        print(f"error: no bpmdual source tree at {SRC}", file=sys.stderr)
        return 2
    ref = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        rng = random.Random(f"{args.workload}:{args.seed}")
        jobs = BUILDERS[args.workload](rng, work, ref, args.tiny)
        env = job_env()
        measure_setup(env, work, deadline, 1)  # writes the bytecode caches; not reported
        if args.trace:
            passes = run_passes(jobs, work, env, deadline, modes=(False, True))
        else:
            # Half of the set-up samples go before the first pass and half are spread
            # over the gaps after each pass, so they sample the same stretch of time.
            setup = measure_setup(env, work, deadline, SETUP_SAMPLES // 2)
            passes = run_passes(jobs, work, env, deadline)
            planned = max(1, int(args.seconds // passes[0].wall))  # passes that fit in --seconds
            for gap in range(planned):
                if gap:
                    if time.monotonic() + passes[0].wall >= deadline:
                        break
                    passes += run_passes(jobs, work, env, deadline)
                setup += measure_setup(env, work, deadline, (SETUP_SAMPLES - len(setup)) // (planned - gap))
            setup += measure_setup(env, work, deadline, SETUP_SAMPLES - len(setup))  # left by the deadline
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            work.parent.rmdir()

    outcomes = [o for p in passes for o in p.outcomes]
    failures = [(job.kind, o.failure) for p in passes for job, o in zip(jobs, p.outcomes) if o.failure]
    if args.trace:
        plain, traced = passes
        for job, a, b in zip(jobs, plain.outcomes, traced.outcomes):
            if a.digest != b.digest and not b.failure:
                b.failure = "traced output differs from untraced output"
                failures.append((job.kind, b.failure))
        metrics = per_layer(traced, plain, jobs)
    else:
        metrics = {
            "wall_s": ([p.wall for p in passes], "s"),
            "cpu_s": ([p.cpu for p in passes], "s"),
            "setup_s": (setup, "s"),
            "peak_rss_mb": (max(o.rss_mb for o in outcomes), "MB"),
        }
    failed = sum(1 for o in outcomes if o.failure)

    print("# env " + json.dumps(environment(args.seed), sort_keys=True))
    print(f"# workload {args.workload}: {len(jobs)} jobs per pass, {len(passes)} passes"
          f"{' (untraced, traced)' if args.trace else ''}")
    for kind, reason in failures:
        print(f"# FAILED {kind}: {reason}")
    print(f"# error_rate {failed}/{len(outcomes)} = {failed / len(outcomes):.4f}")
    result = {}
    for name, (value, unit) in metrics.items():
        if isinstance(value, list):
            q1, med, q3 = quartiles(value)
            print(f"# {name} median {med:.6g} {unit}, quartiles {q1:.6g} .. {q3:.6g}, n={len(value)}")
            value = med
        else:
            print(f"# {name} {value:.6g} {unit}")
        result[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": len(outcomes), "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
