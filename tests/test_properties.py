"""Property tests: text formats round-trip, and malformed dumps fail cleanly."""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bpmdual.bigraph import BipartiteGraph, parse_graph  # noqa: E402
from bpmdual.ordered import RepresentingSequence  # noqa: E402
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
