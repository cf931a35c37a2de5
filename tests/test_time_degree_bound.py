"""The A/B timing script that records BENCH_degree_bound.json."""

import hashlib
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "time_degree_bound.py"

# A stand-in for bpmdual.approxdeg: logs its side and n, and reports degree
# n * n, plus one for the change.
FAKE_APPROXDEG = """
from pathlib import Path
from types import SimpleNamespace
root = Path(__file__).resolve().parents[2]
def bpm_degree_bound(n, eps):
    with open(root.parent / "order.log", "a") as fh:
        fh.write(f"{root.name} {n}\\n")
    return SimpleNamespace(and_degree=n * n + (root.name == "change"), certified=True)
"""


def load_script():
    spec = importlib.util.spec_from_file_location("time_degree_bound", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sides_alternate_repeat_by_repeat(tmp_path, capsys):
    for side in ("parent", "change"):
        package = tmp_path / side / "src" / "bpmdual"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "approxdeg.py").write_text(FAKE_APPROXDEG + f"# {side}\n")
    out = tmp_path / "bench.json"
    assert load_script().main(["--parent", str(tmp_path / "parent"), "--change",
                               str(tmp_path / "change"), "--n", "2", "3", "--repeats", "2",
                               "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "warning: n=2:" in err and "warning: n=3:" in err
    order = (tmp_path / "order.log").read_text().splitlines()
    assert order == ["parent 2", "change 2", "parent 3", "change 3",
                     "change 2", "parent 2", "change 3", "parent 3"]
    record = json.loads(out.read_text())
    for side in ("parent", "change"):
        package = tmp_path / side / "src" / "bpmdual"
        digest = hashlib.sha256()
        for name in ("__init__.py", "approxdeg.py"):
            digest.update(name.encode() + b"\0" + (package / name).read_bytes() + b"\0")
        assert record["commits"][side]["src_sha256"] == digest.hexdigest()
    assert record["commits"]["parent"]["src_sha256"] != record["commits"]["change"]["src_sha256"]
    results = record["results"]
    assert [r["n"] for r in results] == [2, 3]
    for r in results:
        assert r["parent"]["degree"] == r["n"] ** 2 and r["change"]["degree"] == r["n"] ** 2 + 1
        assert r["same_outcome"] is False
        assert 0 <= r["change_wins"] <= 2


def test_run_of_this_checkout(tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert load_script().main(["--parent", str(ROOT), "--change", str(ROOT), "--n", "2",
                               "--repeats", "2", "--out", str(out)]) == 0
    assert "warning" not in capsys.readouterr().err
    record = json.loads(out.read_text())
    assert record["commits"]["parent"] == record["commits"]["change"]
    (result,) = record["results"]
    assert result["same_outcome"] is True
    for side in ("parent", "change"):
        r = result[side]
        assert r["degree"] > 0 and r["certified"] is True
        assert len(r["seconds"]) == 2
        assert r["q1_s"] <= r["median_s"] <= r["q3_s"]
