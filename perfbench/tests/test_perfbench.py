"""Tests of the benchmark itself, on the tiny inputs of every workload.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from functools import lru_cache
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def invoke(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


@lru_cache(maxsize=None)
def tiny(workload: str, trace: int) -> dict:
    proc = invoke(workload, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_prints_every_metric_with_its_unit(workload, trace):
    result = tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_corrupted_reference_raises_error_rate(workload, tmp_path, monkeypatch, capsys):
    ref = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    ref["poly_sha256"]["3"]["tsv"] = "0" * 64
    ref["count"]["3"]["monomial_count"] += 1
    ref["support"]["4"] += 1
    ref["apxdeg"]["8"] = {eps: d + 1 for eps, d in ref["apxdeg"]["8"].items()}
    ref["and_degree"] = {eps: [d + 1 for d in ds] for eps, ds in ref["and_degree"].items()}
    (tmp_path / "reference.json").write_text(json.dumps(ref), encoding="utf-8")
    monkeypatch.setattr(run, "HERE", tmp_path)  # where run.main reads reference.json
    assert run.main(["--workload", workload, "--seed", "7", "--seconds", "1", "--tiny"]) == 0
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    assert "# FAILED" in out


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_and_untraced_outputs_are_byte_identical(workload, tmp_path):
    ref = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    jobs = run.BUILDERS[workload](random.Random(1), tmp_path, ref, True)
    env, deadline = run.job_env(), time.monotonic() + 160
    plain, traced = run.run_passes(jobs, tmp_path, env, deadline, modes=(False, True))
    assert [o.failure for o in plain.outcomes + traced.outcomes] == [None] * (2 * len(jobs))
    assert [o.digest for o in plain.outcomes] == [o.digest for o in traced.outcomes]
    assert sum(calls for calls, _ in traced.spans.values()) > 0


def test_bypassed_layers_stay_idle():
    for workload in ("exact", "table5"):
        metrics = tiny(workload, 1)["metrics"]
        assert all(m["value"] == 0 for name, m in metrics.items() if name.startswith("approxdeg."))
    for workload in ("degree-bound", "and-sweep"):
        assert tiny(workload, 1)["metrics"]["oracle.star_table.calls"]["value"] == 0
    assert tiny("table5", 1)["metrics"]["oracle.star_table.calls"]["value"] > 0
    assert tiny("and-sweep", 1)["metrics"]["approxdeg.repeat_query_s"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = invoke("exact", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
