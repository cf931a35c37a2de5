"""Property tests: text formats round-trip, malformed dumps fail cleanly,
the closed form agrees on its two entry points, and the CLI exits 0 or 2
without a traceback on any argument vector."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bpmdual.bigraph import BipartiteGraph, parse_graph  # noqa: E402
from bpmdual.cli import run  # noqa: E402
from bpmdual.coeff import binomial, dual_coefficient, f_factor, sequence_coefficient  # noqa: E402
from bpmdual.ordered import (  # noqa: E402
    RepresentingSequence,
    canonical_sort,
    is_totally_ordered,
    representing_sequence,
)
from bpmdual.polyspace import DualPolynomial  # noqa: E402

# Timing varies too much on shared machines for a per-example deadline.
relaxed = settings(deadline=None)


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    return BipartiteGraph(n, tuple(rows))


@st.composite
def sequences(draw):
    n = draw(st.integers(1, 12))
    t = draw(st.integers(1, n))
    ds = sorted(draw(st.permutations(range(n + 1)))[:t])
    ks = sorted(draw(st.permutations(range(1, n)))[: t - 1]) + [n]
    return RepresentingSequence(n, tuple(zip(ds, ks)))


@st.composite
def totally_ordered_graphs(draw, max_n=10):
    """Each row a prefix, of random length, of one random column order."""
    n = draw(st.integers(1, max_n))
    cols = draw(st.permutations(range(n)))
    prefixes = [sum(1 << c for c in cols[:k]) for k in range(n + 1)]
    degrees = draw(st.lists(st.integers(0, n), min_size=n, max_size=n))
    return BipartiteGraph(n, tuple(prefixes[d] for d in degrees))


@st.composite
def polynomials(draw):
    n = draw(st.integers(1, 4))
    terms = draw(
        st.dictionaries(
            st.integers(0, (1 << (n * n)) - 1),
            st.integers().filter(bool),
            max_size=40,
        )
    )
    return DualPolynomial(n, terms)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "terms", "coeff", "edges", "x"]), inner, max_size=4),
    max_leaves=20,
)


@relaxed
@given(graphs())
def test_graph_text_round_trip(g):
    assert parse_graph(str(g)) == g


@relaxed
@given(sequences())
def test_sequence_text_round_trip(s):
    assert RepresentingSequence.parse(str(s)) == s


def factor_product(s):
    """The closed form term by term through binomial and f_factor."""
    value = binomial(s.n - s.k(s.t - 1) - 1, s.n - s.d(s.t))
    for i in range(1, s.t):
        value *= f_factor(s.d(i + 1) - s.k(i - 1), s.d(i) - s.k(i - 1), s.k(i) - s.k(i - 1))
    return value


@relaxed
@given(sequences())
def test_sequence_coefficient_is_the_factor_product(s):
    assert sequence_coefficient(s) == factor_product(s)


@relaxed
@given(totally_ordered_graphs())
def test_dual_coefficient_of_a_chain_is_its_sequence_coefficient(g):
    s = representing_sequence(canonical_sort(g)[0])
    assert dual_coefficient(g) == sequence_coefficient(s)


@relaxed
@given(graphs(max_n=10))
def test_dual_coefficient_vanishes_off_chains(g):
    assume(not is_totally_ordered(g))
    assert dual_coefficient(g) == 0


@relaxed
@given(polynomials())
def test_tsv_round_trip(p):
    assert DualPolynomial.from_tsv(p.to_tsv(), p.n) == p


@relaxed
@given(polynomials())
def test_json_round_trip(p):
    assert DualPolynomial.from_json(p.to_json()) == p


@relaxed
@given(json_values)
def test_from_json_accepts_or_raises_value_error(value):
    try:
        p = DualPolynomial.from_json(json.dumps(value))
    except ValueError:
        return
    assert DualPolynomial.from_json(p.to_json()) == p


# The --n cap of each subcommand that takes --n (apxdeg --assemble: 3).
N_CAPS = {"poly": 5, "verify": 4, "count": 40, "sens": 16, "apxdeg": 64}


@pytest.fixture(scope="module")
def cli_paths(tmp_path_factory):
    """A valid graph and dump, a missing file and a directory, by role."""
    root = tmp_path_factory.mktemp("cli")
    (root / "graph.txt").write_text("2\n11\n01\n")
    assert run(["poly", "--n", "2", "--out", str(root / "p.tsv")]) == 0
    bad = [str(root / "missing.txt"), str(root)]
    return {
        "graph": [str(root / "graph.txt"), *bad],
        "poly": [str(root / "p.tsv"), *bad],
        "out": [str(root / "out.tsv"), str(root / "missing" / "out.tsv"), str(root)],
    }


@st.composite
def cli_argvs(draw, paths):
    """argv over the seven subcommands: sizes of 0, negative, just past each
    cap or small enough to finish at once; eps in or out of (0, 1/3] or not
    a rational; existing, missing or directory paths."""
    command = draw(st.sampled_from([*N_CAPS, "coeff", "eval"]))
    if command == "coeff":
        argv = [command, "--graph", draw(st.sampled_from(paths["graph"]))]
        method = ["formula", "mobius", "chisum", "elemsum", "permitted"]
        return argv + ["--method", draw(st.sampled_from(method))]
    if command == "eval":
        return [command, "--graph", draw(st.sampled_from(paths["graph"])),
                "--poly", draw(st.sampled_from(paths["poly"]))]
    argv, cap = [command], N_CAPS[command]
    if command == "apxdeg":
        argv += ["--eps", draw(st.sampled_from(["1/3", "1/10", "1/2", "2/0", "0", "-1/3", "0.3"]))]
        if draw(st.booleans()):
            argv, cap = argv + ["--assemble"], 3
    elif command == "poly" and draw(st.booleans()):
        argv += ["--out", draw(st.sampled_from(paths["out"]))]
    elif command == "verify" and draw(st.booleans()):
        argv, cap = argv + ["--huge"], 5
    return argv + ["--n", str(draw(st.sampled_from([0, -1, -65, 1, 2, cap + 1])))]


@relaxed
@given(st.data())
def test_cli_exits_0_or_2_without_traceback(cli_paths, data):
    argv = data.draw(cli_argvs(cli_paths))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    assert code in (0, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == "", argv
        assert err.getvalue().startswith(("error: ", "usage: ")), argv
