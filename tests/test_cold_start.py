"""Only `verify`, `apxdeg` and the oracle methods of `coeff` need numpy:
every other subcommand runs, with the same output, in an interpreter where
importing numpy fails.  `apxdeg` never loads the oracle layer."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from bpmdual.cli import run

SRC = Path(__file__).resolve().parent.parent / "src"

# Imports the CLI, records whether numpy came with it, then blocks numpy and
# runs each argv of sys.argv[1] (a JSON list), printing [exit code, stdout] pairs.
CHILD = """
import contextlib, io, json, sys
import bpmdual.cli
loaded = "numpy" in sys.modules
sys.modules["numpy"] = None  # any later `import numpy` raises ImportError
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = bpmdual.cli.run(argv)
    results.append([code, out.getvalue()])
print(json.dumps({"numpy_loaded_by_import": loaded, "results": results}))
"""

# Imports what the benchmark's set-up imports, runs one assembled apxdeg and
# prints its exit code and whether bpmdual.oracle was loaded.
APXDEG_CHILD = """
import contextlib, io, sys
import bpmdual.cli, bpmdual.approxdeg
with contextlib.redirect_stdout(io.StringIO()):
    code = bpmdual.cli.run(["apxdeg", "--n", "2", "--eps", "1/3", "--assemble"])
print(code, "bpmdual.oracle" in sys.modules)
"""


def run_in_process(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    return [code, out.getvalue()]


def test_cli_without_numpy_matches_a_normal_run(tmp_path):
    graph = tmp_path / "graph.txt"
    graph.write_text("3\n111\n110\n100\n")  # a connected staircase: every oracle applies
    dumps = {fmt: tmp_path / f"poly.{fmt}" for fmt in ("tsv", "json")}
    for fmt, path in dumps.items():
        assert run(["poly", "--n", "3", "--format", fmt, "--out", str(path)]) == 0
    commands = [
        ["count", "--n", "10"],
        ["poly", "--n", "3"],
        ["poly", "--n", "3", "--format", "json"],
        *(["eval", "--graph", str(graph), "--poly", str(path)] for path in dumps.values()),
        ["sens", "--n", "16"],
        ["coeff", "--graph", str(graph), "--method", "formula"],
    ]
    child = subprocess.run([sys.executable, "-c", CHILD, json.dumps(commands)],
                           env=dict(os.environ, PYTHONPATH=str(SRC)),
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout)
    assert report["numpy_loaded_by_import"] is False
    for argv, got in zip(commands, report["results"]):
        assert got == run_in_process(argv), argv
        assert got[0] == 0 and got[1], argv


def test_oracle_methods_run_with_numpy(tmp_path):
    graph = tmp_path / "graph.txt"
    graph.write_text("3\n111\n110\n100\n")
    want = run_in_process(["coeff", "--graph", str(graph), "--method", "formula"])
    for method in ("mobius", "chisum", "elemsum", "permitted"):
        assert run_in_process(["coeff", "--graph", str(graph), "--method", method]) == want


def test_verify_still_runs_with_numpy():
    code, out = run_in_process(["verify", "--n", "2"])
    assert code == 0 and out.endswith("OK\n")


def test_apxdeg_never_loads_the_oracle_layer():
    # the degree engine and the n <= 3 assembly check against the matcher
    # itself, so the brute-force oracles stay out of the process
    child = subprocess.run([sys.executable, "-c", APXDEG_CHILD],
                           env=dict(os.environ, PYTHONPATH=str(SRC)),
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == ["0", "False"]
