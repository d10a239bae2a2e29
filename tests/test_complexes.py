"""Flag complex construction against brute-force triangle enumeration."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netscaffold.complexes import flag_complex_at
from netscaffold.graph import build_filtration, make_graph

from .conftest import SQRT2
from .oracles import flag_triangles


def member_edges(t):
    u, v, w = t
    return ((u, v), (u, w), (v, w))


class TestUnitSquare:
    def test_below_diagonal_threshold(self, unit_square):
        cx = flag_complex_at(unit_square, Fraction(1))
        assert cx.n_edges == 4
        assert cx.triangles == ()

    def test_at_diagonal_threshold(self, unit_square):
        cx = flag_complex_at(unit_square, SQRT2)
        assert cx.n_edges == 6
        assert cx.triangles == ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))

    def test_triangle_value_is_max_edge(self, unit_square):
        cx = flag_complex_at(unit_square, SQRT2)
        assert cx.weights == (Fraction(1), SQRT2)
        assert cx.triangles[0] == (0, 1, 2)
        assert cx.weights[cx.triangle_ranks[0]] == SQRT2


class TestDeterministicOrder:
    def test_edges_sorted_by_weight_then_pair(self):
        g = make_graph(4, [(2, 3, 1), (0, 1, 2), (0, 2, 1)])
        cx = flag_complex_at(g, Fraction(2))
        assert [cx.edge_vertices(p) for p in range(3)] == [(0, 2), (2, 3), (0, 1)]
        assert cx.edge_ranks == (0, 0, 1)

    def test_edge_position_lookup(self, unit_square):
        cx = flag_complex_at(unit_square, SQRT2)
        for p in range(cx.n_edges):
            u, v = cx.edge_vertices(p)
            assert cx.edge_position(u, v) == p
            assert cx.edge_position(v, u) == p


class TestPrefixView:
    def test_edges_past_the_prefix_are_absent(self, unit_square):
        view = flag_complex_at(unit_square, SQRT2).at(Fraction(1))
        assert view.edge_position(1, 0) == 0
        with pytest.raises(KeyError):
            view.edge_position(0, 2)

    def test_threshold_above_the_complex_rejected(self, unit_square):
        cx = flag_complex_at(unit_square, Fraction(1))
        with pytest.raises(ValueError, match="threshold"):
            cx.at(SQRT2)


@st.composite
def tied_graph(draw):
    """Small graphs whose weights come from a few values, zero included."""
    n = draw(st.integers(min_value=2, max_value=8))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(possible), unique=True, min_size=1, max_size=len(possible)))
    weights = draw(
        st.lists(
            st.sampled_from([0, Fraction(1, 2), 1, 2]),
            min_size=len(chosen),
            max_size=len(chosen),
        )
    )
    return make_graph(n, [(u, v, w) for (u, v), w in zip(chosen, weights)])


class TestAlongFiltration:
    @given(tied_graph())
    @settings(max_examples=80, deadline=None)
    def test_one_complex_per_step_and_nested(self, g):
        f = build_filtration(g)
        full = flag_complex_at(g, f.steps[-1])
        previous = None
        for eps in f.steps:
            view = full.at(eps)
            assert view == flag_complex_at(g, eps)
            assert sorted(view.triangles) == flag_triangles(
                g.n_vertices, list(g.edges), eps
            )
            # every simplex sits where it sits in the full complex
            assert view.edge_ids == full.edge_ids[: view.n_edges]
            assert view.triangles == full.triangles[: view.n_triangles]
            for p in range(view.n_edges):
                assert view.edge_position(*view.edge_vertices(p)) == p
            for p in range(view.n_edges, full.n_edges):
                with pytest.raises(KeyError):
                    view.edge_position(*full.edge_vertices(p))
            if previous is not None:
                assert view.edge_ids[: previous.n_edges] == previous.edge_ids
                assert view.triangles[: previous.n_triangles] == previous.triangles
            previous = view


@st.composite
def graph_and_eps(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(possible), unique=True, min_size=1, max_size=len(possible)))
    weights = draw(
        st.lists(
            st.fractions(min_value=0, max_value=5),
            min_size=len(chosen),
            max_size=len(chosen),
        )
    )
    g = make_graph(n, [(u, v, w) for (u, v), w in zip(chosen, weights)])
    eps = draw(st.fractions(min_value=0, max_value=5))
    return g, eps


@given(graph_and_eps())
@settings(max_examples=80, deadline=None)
def test_triangles_match_bruteforce(case):
    g, eps = case
    cx = flag_complex_at(g, eps)
    assert sorted(cx.triangles) == flag_triangles(g.n_vertices, list(g.edges), eps)
    # ranks index the distinct weights present
    assert list(cx.weights) == sorted({cx.edge_weight(p) for p in range(cx.n_edges)})
    for p in range(cx.n_edges):
        assert cx.edge_weight(p) <= eps
        assert cx.weights[cx.edge_ranks[p]] == cx.edge_weight(p)
    # ordered by appearance value, vertex triple breaking ties
    values = [
        max(cx.edge_weight(cx.edge_position(a, b)) for a, b in member_edges(t))
        for t in cx.triangles
    ]
    keys = list(zip(values, cx.triangles))
    assert keys == sorted(keys)
    assert [cx.weights[r] for r in cx.triangle_ranks] == values


@given(graph_and_eps())
@settings(max_examples=40, deadline=None)
def test_triangle_values_dominate_member_edges(case):
    g, eps = case
    cx = flag_complex_at(g, eps)
    for t, rank in zip(cx.triangles, cx.triangle_ranks):
        val = cx.weights[rank]
        for a, b in member_edges(t):
            p = cx.edge_position(a, b)
            assert cx.edge_ranks[p] <= rank
            assert cx.edge_weight(p) <= val
