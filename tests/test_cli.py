"""CLI surface tests, driven through run(argv) with captured output."""

import hashlib
import json

import pytest

from bpmdual import cli
from bpmdual.cli import run
from bpmdual.polyspace import DualPolynomial


K22_TEXT = "2\n11\n11\n"
PATH_TEXT = "2\n11\n00\n"  # edges (1,1),(1,2)
PM_TEXT = "2\n10\n01\n"


@pytest.fixture
def k22(tmp_path):
    p = tmp_path / "k22.txt"
    p.write_text(K22_TEXT)
    return str(p)


@pytest.fixture
def path_graph(tmp_path):
    p = tmp_path / "path.txt"
    p.write_text(PATH_TEXT)
    return str(p)


class TestCoeff:
    def test_formula_k22(self, k22, capsys):
        assert run(["coeff", "--graph", k22, "--method", "formula"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    @pytest.mark.parametrize(
        "method", ["formula", "mobius", "chisum", "elemsum", "permitted"]
    )
    def test_methods_agree_on_k22(self, k22, capsys, method):
        assert run(["coeff", "--graph", k22, "--method", method]) == 0
        assert capsys.readouterr().out.strip() == "1"

    @pytest.mark.parametrize("method", ["formula", "mobius", "chisum"])
    def test_methods_agree_on_path(self, path_graph, capsys, method):
        assert run(["coeff", "--graph", path_graph, "--method", method]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_permitted_on_unordered_prints_zero(self, tmp_path, capsys):
        p = tmp_path / "pm.txt"
        p.write_text(PM_TEXT)
        assert run(["coeff", "--graph", str(p), "--method", "permitted"]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_chisum_rejects_empty(self, tmp_path, capsys):
        p = tmp_path / "empty.txt"
        p.write_text("2\n00\n00\n")
        assert run(["coeff", "--graph", str(p), "--method", "chisum"]) == 2

    def test_permitted_rejects_empty(self, tmp_path, capsys):
        p = tmp_path / "empty.txt"
        p.write_text("2\n00\n00\n")
        assert run(["coeff", "--graph", str(p), "--method", "permitted"]) == 2
        assert capsys.readouterr().out == ""

    def test_methods_agree_on_sampled_n3_graphs(self, write_graph, capsys):
        import random

        from bpmdual.bigraph import BipartiteGraph, _components

        rng = random.Random(11)
        for _ in range(8):
            mask = rng.getrandbits(9)
            graph = BipartiteGraph.from_mask(3, mask)
            if graph.edge_count == 0:
                continue
            path = write_graph(str(graph) + "\n")
            outputs = {}
            for method in ("formula", "mobius", "chisum", "permitted"):
                assert run(["coeff", "--graph", path, "--method", method]) == 0
                outputs[method] = capsys.readouterr().out.strip()
            full = (1 << 3) - 1
            if any(l == full or r == full for l, r in _components(graph)):
                assert run(["coeff", "--graph", path, "--method", "elemsum"]) == 0
                outputs["elemsum"] = capsys.readouterr().out.strip()
            assert len(set(outputs.values())) == 1, (graph, outputs)

    def test_bad_graph_file(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("2\n1x\n00\n")
        assert run(["coeff", "--graph", str(p)]) == 2

    def test_missing_file(self, tmp_path):
        assert run(["coeff", "--graph", str(tmp_path / "nope.txt")]) == 2


class TestPoly:
    def test_tsv_stdout(self, capsys):
        assert run(["poly", "--n", "2"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 9

    def test_json_round_trip(self, tmp_path):
        out = tmp_path / "poly.json"
        assert run(["poly", "--n", "2", "--format", "json", "--out", str(out)]) == 0
        poly = DualPolynomial.from_json(out.read_text())
        assert len(poly) == 9

    def test_byte_identical_across_runs(self, tmp_path):
        a = tmp_path / "a.tsv"
        b = tmp_path / "b.tsv"
        assert run(["poly", "--n", "3", "--out", str(a)]) == 0
        assert run(["poly", "--n", "3", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_size_limit_reports_cap(self, capsys):
        assert run(["poly", "--n", "6"]) == 2
        assert "cap of 5" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fmt, sha256",
        [
            ("tsv", "373e08ad24b7a9f11fb03e269e8423589666881a678ac3a9ff9b5e9487b11cd3"),
            ("json", "b13c5506c18235eb7e1f3d57f2cbbf2de2481e17e851bf9d5abe150010c2a3f6"),
        ],
        ids=["tsv", "json"],
    )
    def test_n5_dump_frozen(self, tmp_path, fmt, sha256):
        out = tmp_path / f"poly.{fmt}"
        assert run(["poly", "--n", "5", "--format", fmt, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


class TestVerify:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_passes(self, n, capsys):
        assert run(["verify", "--n", str(n)]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert str(1 << (n * n)) in out

    @pytest.mark.parametrize("argv, cap", [(["--n", "5"], 4), (["--n", "6", "--huge"], 5)])
    def test_size_limit(self, argv, cap, capsys):
        assert run(["verify", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: n={argv[1]} exceeds the configured cap of {cap}\n"

    def test_n5_huge_passes(self, capsys):
        assert run(["verify", "--n", "5", "--huge"]) == 0
        assert capsys.readouterr().out == (
            "33554432 coefficients compared against the closed form; 0 mismatches\n"
            "33554432 evaluation points checked against the matching oracle; 0 mismatches\n"
            "OK\n"
        )

    def test_flipped_coefficient_fails(self, monkeypatch, capsys):
        real = cli.materialize

        def flipped(n):
            poly = real(n)
            mask = max(poly.terms)
            return type(poly)(n, {**poly.terms, mask: -poly.terms[mask]})

        monkeypatch.setattr(cli, "materialize", flipped)
        assert run(["verify", "--n", "3"]) == 1
        out = capsys.readouterr().out
        assert "512 coefficients compared against the closed form; 1 mismatches" in out
        assert out.endswith("FAIL\n")


class TestCount:
    def test_n2(self, capsys):
        assert run(["count", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert "monomial_count\t9" in out
        assert "max_abs_coefficient\t1" in out
        assert "bounds\tOK" in out

    def test_n10_frozen(self, capsys):
        assert run(["count", "--n", "10"]) == 0
        out = capsys.readouterr().out
        assert "monomial_count\t466307896816209\n" in out
        assert "max_abs_coefficient\t525\n" in out
        assert "bounds\tOK" in out

    def test_size_limit_reports_cap(self, capsys):
        assert run(["count", "--n", "41"]) == 2
        assert "cap of 40" in capsys.readouterr().err


class TestSens:
    def test_n4_tsv(self, capsys):
        assert run(["sens", "--n", "4"]) == 0
        out = capsys.readouterr().out
        assert "count\t6" in out
        assert "lower_bound_formula\t6" in out

    def test_n4_json(self, capsys):
        assert run(["sens", "--n", "4", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 6
        assert len(payload["sensitive_edges"]) == 6


class TestApxdeg:
    def test_n2_report(self, capsys):
        assert run(["apxdeg", "--n", "2", "--eps", "1/3"]) == 0
        out = capsys.readouterr().out
        assert "threshold\t3" in out
        assert "bound\t" in out

    def test_n1_assemble(self, capsys):
        assert run(["apxdeg", "--n", "1", "--eps", "1/3", "--assemble"]) == 0
        out = capsys.readouterr().out
        assert "assembled_max_error\t0" in out

    def test_json_format(self, capsys):
        assert run(["apxdeg", "--n", "2", "--eps", "1/3", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["threshold"] == 3

    def test_json_assemble_is_one_object(self, capsys):
        assert run(["apxdeg", "--n", "2", "--eps", "1/3", "--format", "json", "--assemble"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["threshold"] == 3
        assert payload["assembled_max_error"] == payload["assembled_dual_max_error"]
        assert isinstance(payload["assembled_max_error"], str)
        assert payload["exact_terms"] + payload["approximated_terms"] == 9  # monomials at n = 2

    def test_bad_eps(self, capsys):
        assert run(["apxdeg", "--n", "2", "--eps", "1/2"]) == 2

    @pytest.mark.parametrize("eps", ["1/0", "abc"])
    def test_malformed_eps_exits_2(self, eps, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["apxdeg", "--n", "2", "--eps", eps])
        assert exc.value.code == 2
        assert "expected a rational p/q" in capsys.readouterr().err

    def test_assemble_cap_before_output(self, capsys):
        assert run(["apxdeg", "--n", "4", "--eps", "1/3", "--assemble"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: n=4 exceeds the configured cap of 3"]


class TestEval:
    def test_round_trip_tsv(self, tmp_path, k22, capsys):
        poly_file = tmp_path / "p.tsv"
        assert run(["poly", "--n", "2", "--out", str(poly_file)]) == 0
        assert run(["eval", "--graph", k22, "--poly", str(poly_file)]) == 0
        assert capsys.readouterr().out.strip() == "1"

    @pytest.mark.parametrize("dump_n, graph_text", [(2, "3\n110\n000\n000\n"), (3, PATH_TEXT)])
    def test_tsv_of_another_size_exits_2(self, tmp_path, write_graph, capsys, dump_n, graph_text):
        poly_file = tmp_path / "p.tsv"
        assert run(["poly", "--n", str(dump_n), "--out", str(poly_file)]) == 0
        graph = write_graph(graph_text)
        assert run(["eval", "--graph", graph, "--poly", str(poly_file)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        graph_n = int(graph_text.split()[0])
        assert captured.err == f"error: polynomial has n={dump_n}, input has n={graph_n}\n"

    @pytest.mark.parametrize(
        "line, bad",
        [
            ("abc\t(1,1),(2,1)", "'abc'"),  # coefficient not an integer
            ("\t(1,1),(2,1)", "'(1,1),(2,1)'"),  # coefficient missing
            ("1\t(1,1),(1,x)", "'x'"),  # edge index not an integer
        ],
    )
    def test_malformed_tsv_names_the_line(self, tmp_path, k22, capsys, line, bad):
        poly_file = tmp_path / "p.tsv"
        assert run(["poly", "--n", "2", "--out", str(poly_file)]) == 0
        lines = poly_file.read_text().splitlines()
        assert lines[1] == "1\t(1,1),(2,1)"
        lines[1] = line
        poly_file.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(["eval", "--graph", k22, "--poly", str(poly_file)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: line 2: ")
        assert captured.err.count("\n") == 1 and bad in captured.err

    def test_duplicate_tsv_term_names_the_line(self, tmp_path, write_graph, capsys):
        poly_file = tmp_path / "p.tsv"
        poly_file.write_text("1\t(1,1)\n5\t(1,1)\n")
        graph = write_graph("1\n1\n")
        assert run(["eval", "--graph", graph, "--poly", str(poly_file)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 2: duplicate term (1,1)\n"

    def test_duplicate_json_term_exits_2(self, tmp_path, write_graph, capsys):
        poly_file = tmp_path / "p.json"
        poly_file.write_text('{"n": 1, "terms": [{"coeff": "1", "edges": [[1, 1]]},'
                             ' {"coeff": "5", "edges": [[1, 1]]}]}')
        graph = write_graph("1\n1\n")
        assert run(["eval", "--graph", graph, "--poly", str(poly_file)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: duplicate term with edges [[1, 1]]\n"

    @pytest.mark.parametrize("graph_text", ["2\n11\n11\n", "1\n1\n"])
    def test_repeated_tsv_edge_names_the_line(self, tmp_path, write_graph, capsys, graph_text):
        # the repeated edge makes the dump look like n = 2 to tsv_side_size
        poly_file = tmp_path / "p.tsv"
        poly_file.write_text("1\t(1,1),(1,1)\n")
        graph = write_graph(graph_text)
        assert run(["eval", "--graph", graph, "--poly", str(poly_file)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 1: repeated edge (1,1)\n"

    def test_repeated_json_edge_names_the_term(self, tmp_path, write_graph, capsys):
        poly_file = tmp_path / "p.json"
        poly_file.write_text('{"n":1,"terms":[{"coeff":"1","edges":[[1,1],[1,1]]}]}')
        graph = write_graph("1\n1\n")
        assert run(["eval", "--graph", graph, "--poly", str(poly_file)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: term with edges [[1, 1], [1, 1]]: repeated edge (1,1)\n"

    def test_round_trip_json(self, tmp_path, path_graph, capsys):
        poly_file = tmp_path / "p.json"
        assert run(["poly", "--n", "2", "--format", "json", "--out", str(poly_file)]) == 0
        assert run(["eval", "--graph", path_graph, "--poly", str(poly_file)]) == 0
        assert capsys.readouterr().out.strip() == "1"

    @pytest.mark.parametrize(
        "text",
        [
            '{"n": 2}',
            '{"n": 2, "terms": 5}',
            '{"n": 2, "terms": [{"edges": [[1, 1]]}]}',
            '{"n": 2, "terms": [{"coeff": "1"}]}',
            '{"n": 2, "terms": [{"coeff": "1", "edges": [["a", 1]]}]}',
            '{"n": 2, "terms": [{"coeff": "1", "edges": [[1, 2, 3]]}]}',
            '{"n": 2, "terms": [{"coeff": 1.5, "edges": []}]}',
            '{"n": 2, "terms": [{"coeff": "x", "edges": []}]}',
            '{"n": 2, "terms": [7]}',
            '{"n": "2", "terms": []}',
            '{"n": true, "terms": []}',
            '{"n": 0, "terms": []}',
            '{"n": 2, "terms": [{"coeff": "1", "edges": [[3, 1]]}]}',
            '{"n": 2, "terms": [',
            pytest.param('{"n":2,"terms":' + "[" * 100_000, id="nested-100000"),
        ],
    )
    def test_malformed_json_exits_2(self, tmp_path, k22, capsys, text):
        poly_file = tmp_path / "bad.json"
        poly_file.write_text(text)
        assert run(["eval", "--graph", k22, "--poly", str(poly_file)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        assert "input has n=2" not in captured.err


class TestUsage:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["apxdeg", "--n", "0", "--eps", "1/3"],
            ["count", "--n", "0"],
            ["count", "--n", "-1"],
            ["poly", "--n", "-2"],
            ["verify", "--n", "0"],
            ["sens", "--n", "0"],
        ],
    )
    def test_nonpositive_n_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert "n must be at least 1" in capsys.readouterr().err

    def test_help_mentions_caps(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--help"])
        assert exc.value.code == 0
        assert "size caps" in capsys.readouterr().out
