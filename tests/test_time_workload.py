"""The A/B script that records BENCH_<workload>.json and BENCH_cli_<args>.json."""

import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

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

# A stand-in for bpmdual.cli: logs its side, then prints how many runs both
# sides have made so far for the argv ["count"], 5000 x's and the side for
# ["long"], 64 MiB of x's in 1 MiB pieces for ["flood"], and otherwise the
# side.  For ["rss"] the parent also fills 64 MiB that it holds until it returns.
FAKE_CLI = """
import sys
from pathlib import Path
root = Path(__file__).resolve().parents[2]
def run(argv):
    log = root.parent / "order.log"
    with open(log, "a") as fh:
        fh.write(root.name + "\\n")
    ballast = b"x" * (64 << 20 if argv == ["rss"] and root.name == "parent" else 0)
    if argv == ["long"]:
        print("x" * 5000 + root.name)
    elif argv == ["flood"]:
        for _ in range(64):
            sys.stdout.write("x" * (1 << 20))
    else:
        print(len(log.read_text().split()) if argv == ["count"] else root.name)
    return 0
"""


def load_script():
    spec = importlib.util.spec_from_file_location("time_workload", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake_packages(tmp_path):
    for side in ("parent", "change"):
        package = tmp_path / side / "src" / "bpmdual"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "approxdeg.py").write_text("")
        (package / "cli.py").write_text(FAKE_CLI + f"# {side}\n")
    return ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change")]


def check_summary(record, pairs):
    for name, entry in record["summary"].items():
        assert entry["better"] == "lower" and 0 <= entry["change_wins"] <= pairs, name
        for side in ("parent", "change"):
            assert entry[side]["q1"] <= entry[side]["median"] <= entry[side]["q3"], name


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
    check_summary(record, 1)
    assert record["commits"]["parent"] == record["commits"]["change"]
    assert len(record["commits"]["change"]["src_sha256"]) == 64


def test_cli_sides_alternate_and_report_different_output(tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert load_script().main(["--cli", "side", *fake_packages(tmp_path), "--pairs", "3",
                               "--out", str(out)]) == 0
    assert "warning: parent and change print different output" in capsys.readouterr().err
    order = (tmp_path / "order.log").read_text().split()
    assert order == ["parent", "change", "change", "parent", "parent", "change"]
    record = json.loads(out.read_text())
    assert record["cli"] == ["side"] and record["all_correct"] is True
    assert record["same_outcome"] is False
    assert record["stdout"] == {"parent": "parent\n", "change": "change\n"}
    for side in ("parent", "change"):
        package = tmp_path / side / "src" / "bpmdual"
        digest = hashlib.sha256()
        for name in ("__init__.py", "approxdeg.py", "cli.py"):
            digest.update(name.encode() + b"\0" + (package / name).read_bytes() + b"\0")
        assert record["commits"][side]["src_sha256"] == digest.hexdigest()
        want = hashlib.sha256(f"{side}\n".encode()).hexdigest()
        assert all(p[side]["stdout_sha256"] == want for p in record["pairs"])
    assert record["commits"]["parent"]["src_sha256"] != record["commits"]["change"]["src_sha256"]
    assert set(record["summary"]) == {"wall_s", "peak_rss_mb"}
    check_summary(record, 3)


def test_cli_keeps_the_start_of_a_long_output(tmp_path, capsys):
    # only the first 4096 characters are kept, and the sides, which agree
    # there, still differ by the sha256 of the whole output
    out = tmp_path / "bench.json"
    assert load_script().main(["--cli", "long", *fake_packages(tmp_path), "--pairs", "2",
                               "--out", str(out)]) == 0
    assert "warning: parent and change print different output" in capsys.readouterr().err
    record = json.loads(out.read_text())
    assert record["same_outcome"] is False
    assert record["stdout"] == {"parent": "x" * 4096, "change": "x" * 4096}


def test_cli_records_the_peak_rss_of_each_call(tmp_path):
    # Linux carries the launcher's peak RSS across exec into the child's
    # ru_maxrss, so the script runs in a fresh interpreter, not under pytest.
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(SCRIPT), "--cli", "rss", *fake_packages(tmp_path),
                    "--pairs", "2", "--out", str(out)], check=True, capture_output=True)
    record = json.loads(out.read_text())
    for pair in record["pairs"]:
        rss = {side: pair[side]["metrics"]["peak_rss_mb"] for side in ("parent", "change")}
        assert rss["parent"] > 64 and 0 < rss["change"] < rss["parent"] - 32
    assert record["summary"]["peak_rss_mb"]["change_wins"] == 2
    check_summary(record, 2)


def test_cli_does_not_hold_the_whole_output(tmp_path):
    # 64 MiB of stdout is hashed as it is written, so neither side's peak
    # RSS comes near the size of the output; run as in the test above
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(SCRIPT), "--cli", "flood", *fake_packages(tmp_path),
                    "--pairs", "1", "--out", str(out)], check=True, capture_output=True)
    record = json.loads(out.read_text())
    assert record["same_outcome"] is True and record["stdout"]["change"] == "x" * 4096
    want = hashlib.sha256(b"x" * (64 << 20)).hexdigest()
    for side in ("parent", "change"):
        (pair,) = record["pairs"]
        assert pair[side]["stdout_sha256"] == want
        assert pair[side]["metrics"]["peak_rss_mb"] < 40, side


def test_cli_stops_when_one_side_disagrees_with_itself(tmp_path, capsys):
    with pytest.raises(SystemExit, match="the parent runs printed 2 different outputs"):
        load_script().main(["--cli", "count", *fake_packages(tmp_path), "--pairs", "2",
                            "--out", str(tmp_path / "bench.json")])
    assert not (tmp_path / "bench.json").exists()


@pytest.mark.parametrize("extra", [["--seed", "3"], ["--tiny"]])
def test_cli_rejects_workload_options(tmp_path, capsys, extra):
    with pytest.raises(SystemExit) as exc:
        load_script().main(["--cli", "side", *fake_packages(tmp_path), *extra])
    assert exc.value.code == 2
    assert "--seed and --tiny apply to --workload only" in capsys.readouterr().err


def test_cli_run_of_this_checkout(tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert load_script().main(["--cli", "apxdeg --n 2 --eps 1/3", "--parent", str(ROOT),
                               "--change", str(ROOT), "--pairs", "2", "--out", str(out)]) == 0
    assert "warning" not in capsys.readouterr().err
    record = json.loads(out.read_text())
    assert record["same_outcome"] is True and record["all_correct"] is True
    assert "and_degree\t" in record["stdout"]["change"]
    assert "certified\tTrue" in record["stdout"]["change"]
    for pair in record["pairs"]:
        for side in ("parent", "change"):
            assert pair[side]["correct"] is True and pair[side]["failed"] == 0
    check_summary(record, 2)
    assert record["commits"]["parent"] == record["commits"]["change"]


def test_cli_default_record_name(tmp_path, monkeypatch, capsys):
    script = load_script()
    monkeypatch.setattr(script, "ROOT", tmp_path)
    assert script.main(["--cli", "side", *fake_packages(tmp_path), "--pairs", "1"]) == 0
    assert (tmp_path / "BENCH_cli_side.json").is_file()
