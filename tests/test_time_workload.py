"""The A/B script that records BENCH_<workload>.json."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "time_workload.py"

# A stand-in for perfbench/run.py: logs its side, prints a decoy JSON line and
# then the result line, whose wall_s is the seed plus 1 for the parent.
FAKE_RUN = """
import json, sys
from pathlib import Path
side = Path(__file__).resolve().parent.parent.name
seed = int(sys.argv[sys.argv.index("--seed") + 1])
assert sys.argv[sys.argv.index("--seconds") + 1] == "7"  # run_seconds of BENCHMARK.json
with open(Path(__file__).resolve().parent.parent.parent / "order.log", "a") as fh:
    fh.write(side + "\\n")
print(json.dumps({"correct": False}))
wall = seed + (1 if side == "parent" else 0)
print(json.dumps({"correct": True, "attempted": 2, "failed": 0,
                  "metrics": {"wall_s": {"value": wall, "unit": "s"},
                              "hits": {"value": 1, "unit": "count"}}}))
"""


def load_script():
    spec = importlib.util.spec_from_file_location("time_workload", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sides_alternate_and_only_the_last_line_counts(tmp_path, capsys):
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(FAKE_RUN)
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        json.dumps({"run_seconds": 7, "end_to_end": [{"name": "wall_s", "better": "lower"}]}))
    out = tmp_path / "bench.json"
    assert load_script().main(["--workload", "exact", "--parent", str(tmp_path / "parent"),
                               "--change", str(tmp_path / "change"), "--pairs", "3",
                               "--seed", "10", "--out", str(out)]) == 0
    capsys.readouterr()
    order = (tmp_path / "order.log").read_text().split()
    assert order == ["parent", "change", "change", "parent", "parent", "change"]
    record = json.loads(out.read_text())
    assert record["all_correct"] is True
    assert [p["first"] for p in record["pairs"]] == ["parent", "change", "parent"]
    assert [p["seed"] for p in record["pairs"]] == [10, 11, 12]
    wall = record["summary"]["wall_s"]
    assert wall["parent"] == {"median": 12, "q1": 11.5, "q3": 12.5}
    assert wall["change"]["median"] == 11
    assert wall["change_wins"] == 3
    assert "change_wins" not in record["summary"]["hits"]  # no direction declared


def test_tiny_run_of_this_checkout(tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert load_script().main(["--workload", "table5", "--parent", str(ROOT), "--change",
                               str(ROOT), "--pairs", "1", "--tiny",
                               "--out", str(out)]) == 0
    capsys.readouterr()
    record = json.loads(out.read_text())
    assert record["workload"] == "table5" and record["all_correct"] is True
    (pair,) = record["pairs"]
    for side in ("parent", "change"):
        assert pair[side]["failed"] == 0
        assert set(pair[side]["metrics"]) == {"wall_s", "cpu_s", "setup_s", "peak_rss_mb"}
    for name, entry in record["summary"].items():
        assert entry["better"] == "lower" and 0 <= entry["change_wins"] <= 1, name
        assert entry["change"]["q1"] <= entry["change"]["median"] <= entry["change"]["q3"]
    assert record["commits"]["parent"] == record["commits"]["change"]
    assert len(record["commits"]["change"]["src_sha256"]) == 64
