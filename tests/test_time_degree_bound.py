"""The timing script that records BENCH_degree_bound.json."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "time_degree_bound.py"


def load_script():
    spec = importlib.util.spec_from_file_location("time_degree_bound", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_labels_accumulate_and_rerun_replaces(tmp_path, capsys):
    script = load_script()
    out = tmp_path / "bench.json"
    for label in ("parent", "change", "parent"):
        assert script.main(["--n", "2", "3", "--repeats", "2", "--label", label,
                            "--out", str(out)]) == 0
    capsys.readouterr()
    entries = json.loads(out.read_text())["entries"]
    assert [e["label"] for e in entries] == ["change", "parent"]
    for entry in entries:
        results = entry["results"]
        assert [r["n"] for r in results] == [2, 3]
        for r in results:
            assert r["degree"] > 0 and r["certified"] is True
            assert r["repeats"] == 2 and len(r["seconds"]) == 2
            assert r["q1_s"] <= r["median_s"] <= r["q3_s"]
