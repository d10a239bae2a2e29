"""Flag complex construction against brute-force triangle enumeration."""

import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netscaffold.complexes import flag_complex_at
from netscaffold.graph import build_filtration, make_graph

from .conftest import SQRT2
from .oracles import (
    boundary_columns,
    components_bfs,
    edge_position,
    flag_triangles,
    gf2_rank_lowbit,
    reference_columns,
    reference_flag_complex,
    reference_reduced,
    triangle_order,
)


def member_edges(t):
    u, v, w = t
    return ((u, v), (u, w), (v, w))


class TestUnitSquare:
    def test_below_diagonal_threshold(self, unit_square):
        cx = flag_complex_at(unit_square, Fraction(1))
        assert cx.n_edges == 4
        assert cx.n_triangles == 0
        assert cx.columns == ()

    def test_at_diagonal_threshold(self, unit_square):
        cx = flag_complex_at(unit_square, SQRT2)
        assert cx.n_edges == 6
        assert cx.n_triangles == 4
        assert [t for _, t in triangle_order(cx)] == [
            (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)
        ]
        # the last of the four boundaries is the sum of the other three
        assert len(cx.columns) == 3

    def test_triangle_value_is_max_edge(self, unit_square):
        cx = flag_complex_at(unit_square, SQRT2)
        assert cx.weights == (Fraction(1), SQRT2)
        assert cx.triangle_counts == (0, 4)
        assert [cx.weights[r] for r, _ in cx.columns] == [SQRT2] * 3


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
            assert edge_position(cx, u, v) == p
            assert edge_position(cx, v, u) == p


class TestPrefixView:
    def test_edges_past_the_prefix_are_absent(self, unit_square):
        view = flag_complex_at(unit_square, SQRT2).at(Fraction(1))
        assert edge_position(view, 1, 0) == 0
        with pytest.raises(KeyError):
            edge_position(view, 0, 2)

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
            assert view.n_triangles == len(
                flag_triangles(g.n_vertices, list(g.edges), eps)
            )
            # every simplex sits where it sits in the full complex
            assert view.edge_ids == full.edge_ids[: view.n_edges]
            assert view.columns == full.columns[: len(view.columns)]
            assert view.triangle_counts == full.triangle_counts[: len(view.weights)]
            for p in range(view.n_edges):
                assert edge_position(view, *view.edge_vertices(p)) == p
            for p in range(view.n_edges, full.n_edges):
                with pytest.raises(KeyError):
                    edge_position(view, *full.edge_vertices(p))
            if previous is not None:
                assert view.edge_ids[: previous.n_edges] == previous.edge_ids
                assert view.columns[: len(previous.columns)] == previous.columns
            previous = view


def positions(mask):
    return [p for p in range(mask.bit_length()) if (mask >> p) & 1]


def assert_boundary_of_boundary_vanishes(cx):
    d1 = boundary_columns(cx, 1)
    for tri_col in boundary_columns(cx, 2):
        acc = 0
        for p in positions(tri_col):
            acc ^= d1[p]
        assert acc == 0


class TestBoundaryColumns:
    def test_edge_columns_have_two_bits(self, unit_square):
        cx = flag_complex_at(unit_square, SQRT2)
        d1 = boundary_columns(cx, 1)
        assert len(d1) == cx.n_edges
        assert all(c.bit_count() == 2 and c < 1 << cx.n_vertices for c in d1)

    def test_triangle_columns_have_three_bits(self, unit_square):
        cx = flag_complex_at(unit_square, SQRT2)
        d2 = boundary_columns(cx, 2)
        assert len(d2) == cx.n_triangles
        assert all(c.bit_count() == 3 and c < 1 << cx.n_edges for c in d2)

    def test_composition_vanishes(self, unit_square):
        assert_boundary_of_boundary_vanishes(flag_complex_at(unit_square, SQRT2))

    @given(st.integers(min_value=2, max_value=7), st.data())
    @settings(max_examples=40, deadline=None)
    def test_composition_vanishes_on_random_flags(self, n, data):
        possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = data.draw(
            st.lists(
                st.sampled_from(possible),
                unique=True,
                min_size=1,
                max_size=len(possible),
            )
        )
        g = make_graph(n, [(u, v, 1) for u, v in chosen])
        assert_boundary_of_boundary_vanishes(flag_complex_at(g, Fraction(1)))


class TestForestAndReduction:
    @given(tied_graph())
    @settings(max_examples=80, deadline=None)
    def test_fields_match_references_at_every_step(self, g):
        f = build_filtration(g)
        full = flag_complex_at(g, f.steps[-1])
        n = g.n_vertices
        for eps in f.steps:
            cx = full.at(eps)
            pairs = [cx.edge_vertices(p) for p in range(cx.n_edges)]
            tree = positions(cx.tree)
            # a spanning forest: n - c edges that connect what the
            # complex connects
            assert cx.tree < 1 << cx.n_edges
            assert len(tree) == n - components_bfs(n, pairs)
            assert components_bfs(n, [pairs[p] for p in tree]) == components_bfs(
                n, pairs
            )

            d1 = boundary_columns(cx, 1)
            assert len(cx.cycles) == cx.n_edges
            for p, mask in enumerate(cx.cycles):
                if p in tree:
                    assert mask == 0
                    continue
                assert (mask >> p) & 1
                assert set(positions(mask)) - {p} <= set(tree)
                boundary = 0
                for q in positions(mask):
                    boundary ^= d1[q]
                assert boundary == 0

            d2 = boundary_columns(cx, 2)
            reduced = reference_reduced(cx)
            assert cx.columns == reference_columns(cx)
            assert cx.n_triangles == len(d2)
            lows = [c.bit_length() - 1 for _, c in cx.columns]
            assert len(set(lows)) == len(lows)
            assert not set(lows) & set(tree)
            assert len(cx.columns) == gf2_rank_lowbit(d2)
            assert len(cx.columns) <= cx.n_edges - len(tree)
            # column t only ever gained earlier boundary columns
            for t, col in enumerate(reduced):
                assert gf2_rank_lowbit(d2[:t] + [col ^ d2[t]]) == gf2_rank_lowbit(
                    d2[:t]
                )


def complete_graph(n, kind):
    """K_n with distinct weights, ties among 1..3, or ties with zeros."""
    rnd = random.Random(n)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if kind == "distinct":
        ws = rnd.sample(range(1, len(pairs) + 1), len(pairs))
    elif kind == "tied":
        ws = [rnd.randint(1, 3) for _ in pairs]
    else:
        ws = [rnd.choice([0, 0, 1, 2]) for _ in pairs]
    return make_graph(n, [(u, v, w) for (u, v), w in zip(pairs, ws)])


@pytest.mark.parametrize("kind", ["distinct", "tied", "zero"])
@pytest.mark.parametrize("n", range(6, 13))
def test_reduction_matches_plain_reduction_on_complete_graphs(n, kind):
    # nearly every column of a complete graph reduces to zero, most of
    # them on the pivot bound before their reduction ends
    g = complete_graph(n, kind)
    f = build_filtration(g)
    full = flag_complex_at(g, f.steps[-1])
    for eps in f.steps:
        view = full.at(eps)
        assert view.columns == reference_columns(view)
        assert view.n_triangles == len(flag_triangles(n, list(g.edges), eps))
    # a full simplex has no 1-cycle left: each non-tree edge is a pivot
    m = n * (n - 1) // 2
    assert len(full.columns) == m - (n - 1)
    assert full.n_triangles == n * (n - 1) * (n - 2) // 6


def test_complete_graph_complex_keeps_no_per_triangle_data():
    # K_60 has 34220 triangles but only 1711 nonzero reduced columns;
    # a triple, a rank and a column slot per triangle, about 88 bytes,
    # would alone take the complex past the bound
    g = complete_graph(60, "distinct")
    eps = max(w for _, _, w in g.edges)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cx = flag_complex_at(g, eps)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert (cx.n_triangles, len(cx.columns)) == (34220, 1711)
    assert kept < 2 << 20


def test_tied_complete_graph_build_peaks_low():
    # K_120 with weights 1..3: each rank closes about 94,000 triangles,
    # nearly all below the pivot bound. Built as tuples and sorted, one
    # rank's triangles took the build's peak to 34 MiB, for a complex
    # that keeps 8 MiB
    g = complete_graph(120, "tied")
    tracemalloc.start()
    try:
        cx = flag_complex_at(g, Fraction(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cx.n_triangles == 280840
    assert peak <= 16 << 20


@st.composite
def weighted_flag(draw):
    """A dense graph with distinct, tied or mostly zero weights, and a
    threshold at one of its weights or halfway below it."""
    n = draw(st.integers(min_value=3, max_value=10))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(
        st.lists(
            st.sampled_from(possible),
            unique=True,
            min_size=len(possible) // 2,
            max_size=len(possible),
        )
    )
    m = len(chosen)
    ws = draw(
        st.sampled_from(
            [
                st.permutations(range(1, m + 1)),
                st.lists(st.integers(1, 3), min_size=m, max_size=m),
                st.lists(st.sampled_from([0, 0, 1, 2]), min_size=m, max_size=m),
            ]
        ).flatmap(lambda kind: kind)
    )
    eps = draw(st.sampled_from(sorted(set(ws)))) - draw(st.sampled_from([0, Fraction(1, 2)]))
    return make_graph(n, [(u, v, w) for (u, v), w in zip(chosen, ws)]), Fraction(eps)


@given(weighted_flag())
@settings(max_examples=150, deadline=None)
def test_streamed_build_matches_the_sort_then_reduce_build(case):
    g, eps = case
    cx, ref = flag_complex_at(g, eps), reference_flag_complex(g, eps)
    assert cx.columns == ref.columns
    assert cx.triangle_counts == ref.triangle_counts
    assert cx.cycles == ref.cycles
    assert (cx.edge_ids, cx.edge_ranks) == (ref.edge_ids, ref.edge_ranks)
    assert cx == ref


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
    triangles = flag_triangles(g.n_vertices, list(g.edges), eps)
    assert cx.n_triangles == len(triangles)
    # ranks index the distinct weights present
    assert list(cx.weights) == sorted({cx.edge_weight(p) for p in range(cx.n_edges)})
    for p in range(cx.n_edges):
        assert cx.edge_weight(p) <= eps
        assert cx.weights[cx.edge_ranks[p]] == cx.edge_weight(p)
    # a triangle appears at its largest edge weight
    values = [
        max(cx.edge_weight(edge_position(cx, a, b)) for a, b in member_edges(t))
        for t in triangles
    ]
    assert list(cx.triangle_counts) == [
        sum(1 for v in values if v <= w) for w in cx.weights
    ]
    ranks = [r for r, _ in cx.columns]
    assert ranks == sorted(ranks)


@given(graph_and_eps())
@settings(max_examples=40, deadline=None)
def test_triangle_values_dominate_member_edges(case):
    g, eps = case
    cx = flag_complex_at(g, eps)
    # a reduced column adds only columns of triangles that came before
    for rank, col in cx.columns:
        val = cx.weights[rank]
        for p in positions(col):
            assert cx.edge_ranks[p] <= rank
            assert cx.edge_weight(p) <= val
