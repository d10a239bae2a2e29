"""Graph model, parsers, orientation, filtration extraction."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netscaffold.graph import (
    MAX_VERTICES,
    Filtration,
    GraphFormatError,
    WeightedGraph,
    as_weight,
    build_filtration,
    make_graph,
    orient_filtration,
    parse_adjacency,
    parse_edge_list,
    serialize_edge_list,
)
from netscaffold.complexes import flag_complex_at

from .oracles import reference_weight, relabel


class TestWeights:
    def test_decimal_string_is_exact(self):
        assert as_weight("0.3") == Fraction(3, 10)
        assert as_weight("1.5") == Fraction(3, 2)

    def test_rational_string(self):
        assert as_weight("7/3") == Fraction(7, 3)

    def test_float_converts_to_exact_binary_value(self):
        assert as_weight(0.5) == Fraction(1, 2)
        assert as_weight(0.1) == Fraction(0.1)  # not 1/10, and that is fine

    def test_negative_rejected(self):
        with pytest.raises(GraphFormatError):
            as_weight("-1")

    def test_non_finite_rejected(self):
        with pytest.raises(GraphFormatError):
            as_weight(float("inf"))
        with pytest.raises(GraphFormatError):
            as_weight(float("nan"))

    @pytest.mark.parametrize(
        "text",
        [
            "1e99999999", "0E-99999999", "5e+10001 ", "1e" + "9" * 5000,
            "1e99_999_999", ".5E+9_999_999_9", "1e1__0", "1e_10",
        ],
        ids=[
            "huge", "zero_tiny", "just_past", "overlong",
            "underscored", "underscored_signed", "double_underscore", "leading_underscore",
        ],
    )
    def test_exponent_past_the_bound_rejected_without_expanding(self, text):
        # 10**99999999 alone would take minutes to build
        with pytest.raises(GraphFormatError):
            as_weight(text)

    def test_exponent_within_the_bound(self):
        assert as_weight("25e-1") == Fraction(5, 2)
        assert as_weight("1e-10000") == Fraction(1, 10**10000)
        assert as_weight("1e1_0") == Fraction(10**10)
        with pytest.raises(GraphFormatError):
            as_weight("1e10000")  # past the float range


class TestGraphModel:
    def test_canonicalization_sorts_and_orients(self):
        g = make_graph(3, [(2, 0, 1), (1, 0, 2)])
        assert g.edges == ((0, 1, Fraction(2)), (0, 2, Fraction(1)))

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError):
            make_graph(2, [(1, 1, 1)])

    def test_identical_duplicates_collapse(self):
        g = make_graph(2, [(0, 1, 1), (1, 0, 1)])
        assert g.n_edges == 1

    def test_conflicting_duplicates_rejected(self):
        with pytest.raises(GraphFormatError):
            make_graph(2, [(0, 1, 1), (1, 0, 2)])

    def test_vertex_bounds_checked(self):
        with pytest.raises(GraphFormatError):
            WeightedGraph(n_vertices=2, edges=((0, 2, Fraction(1)),))

    @pytest.mark.parametrize(
        "edges, message",
        [
            (((0, 1, Fraction(1)), (0, 1, Fraction(1))), r"duplicate edge \(0,1\)"),
            (((0, 2, Fraction(1)), (0, 1, Fraction(1))), "edges not sorted canonically"),
            (((0, 1, Fraction(1)), (1, 2, Fraction(1)), (0, 2, Fraction(1))),
             "edges not sorted canonically"),
            (((0, 1, 1),), r"edge \(0,1\) weight 1 invalid"),
            (((0, 1, Fraction(-1)),), r"edge \(0,1\) weight Fraction\(-1, 1\) invalid"),
        ],
        ids=["repeated_pair", "out_of_order", "out_of_order_later", "int_weight",
             "negative_weight"],
    )
    def test_direct_construction_checks_each_edge(self, edges, message):
        with pytest.raises(GraphFormatError, match=message):
            WeightedGraph(n_vertices=3, edges=edges)


class TestEdgeListFormat:
    def test_basic_parse(self):
        g = parse_edge_list("0,1,1.5\n1,2,2\n")
        assert g.n_vertices == 3
        assert g.edges[0] == (0, 1, Fraction(3, 2))

    def test_comments_and_blank_lines_skipped(self):
        g = parse_edge_list("# header\n\n0,1,1\n# mid\n1,2,1\n")
        assert g.n_edges == 2

    def test_json_header_sets_vertex_count(self):
        g = parse_edge_list('{"n_vertices": 5}\n0,1,1\n')
        assert g.n_vertices == 5
        assert parse_edge_list("{}\n0,1,1\n").n_vertices == 2

    @pytest.mark.parametrize(
        "header",
        ['{"n_vertice": 10}', '{"n_vertices": 2, "labels": ["a", "b"]}', '{"labels": 5}'],
        ids=["typo", "labels", "scalar_labels"],
    )
    def test_header_unknown_key_rejected(self, header):
        with pytest.raises(GraphFormatError, match="only n_vertices is allowed"):
            parse_edge_list(header + "\n0,1,1\n")

    def test_header_vertex_count_too_small(self):
        with pytest.raises(GraphFormatError):
            parse_edge_list('{"n_vertices": 2}\n0,3,1\n')

    def test_malformed_line(self):
        with pytest.raises(GraphFormatError):
            parse_edge_list("0,1\n")
        with pytest.raises(GraphFormatError):
            parse_edge_list("a,b,1\n")

    def test_negative_id(self):
        with pytest.raises(GraphFormatError):
            parse_edge_list("-1,0,1\n")

    @pytest.mark.parametrize("line", ["+0,1,2", "0,+1,2"])
    def test_signed_id_rejected(self, line):
        with pytest.raises(GraphFormatError, match="must be digits"):
            parse_edge_list(line + "\n")

    @pytest.mark.parametrize(
        "line",
        ["0,1_0,2", "0,1,2_5", "0,\u0661,2", "0,\uff11,2", "0,\u00b9,2", "0,1,\u0661\u0662"],
        ids=[
            "separator_id", "separator_weight", "arabic_indic_id", "fullwidth_id",
            "superscript_id", "arabic_indic_weight",
        ],
    )
    def test_separator_or_non_ascii_digit_rejected(self, line):
        # int() and Fraction() would read the edge (0, 10), a weight of 25,
        # vertex 1 twice (int() rejects the superscript) and a weight of 12
        with pytest.raises(GraphFormatError, match="non-ASCII character or '_'"):
            parse_edge_list(line + "\n")

    def test_spaces_around_ids_accepted(self):
        assert parse_edge_list(" 0 , 1 ,2\n").edges == ((0, 1, Fraction(2)),)

    @pytest.mark.parametrize(
        "header",
        ['{"x": ' + "[" * 5000 + "]" * 5000 + "}", '{"n_vertices": ' + "9" * 5000 + "}"],
        ids=["deep_nesting", "overlong_integer"],
    )
    def test_header_json_decoder_errors_are_format_errors(self, header):
        with pytest.raises(GraphFormatError, match="bad JSON header"):
            parse_edge_list(header + "\n0,1,1\n")

    def test_round_trip_exact(self):
        g = make_graph(4, [(0, 1, "0.3"), (2, 3, "7/3")])
        assert parse_edge_list(serialize_edge_list(g)) == g


class TestVertexCap:
    def test_cap_itself_accepted(self):
        g = parse_edge_list(f'{{"n_vertices": {MAX_VERTICES}}}\n0,1,1\n')
        assert g.n_vertices == MAX_VERTICES

    @pytest.mark.parametrize(
        "text",
        [
            f'{{"n_vertices": {MAX_VERTICES + 1}}}\n0,1,1\n',
            '{"n_vertices": 1000000000000}\n',
            "0,1000000000000,1\n",
            f"0,{MAX_VERTICES},1\n",
        ],
        ids=["header_one_over", "header_huge", "vertex_id_huge", "vertex_id_one_over"],
    )
    def test_edge_list_over_cap_rejected(self, text):
        with pytest.raises(GraphFormatError, match="limit"):
            parse_edge_list(text)

    def test_model_rejects_over_cap(self):
        with pytest.raises(GraphFormatError, match="limit"):
            WeightedGraph(n_vertices=MAX_VERTICES + 1, edges=())


class TestAdjacencyFormat:
    def test_basic(self):
        g = parse_adjacency("0,1,0\n1,0,2\n0,2,0\n")
        assert g.edges == ((0, 1, Fraction(1)), (1, 2, Fraction(2)))

    def test_whitespace_separated(self):
        g = parse_adjacency("0 1\n1 0\n")
        assert g.n_edges == 1

    def test_zero_means_no_edge(self):
        g = parse_adjacency("0,0\n0,0\n")
        assert g.n_edges == 0

    def test_asymmetry_beyond_tolerance_rejected(self):
        with pytest.raises(GraphFormatError):
            parse_adjacency("0,1\n1.001,0\n")

    def test_tiny_asymmetry_tolerated_upper_wins(self):
        g = parse_adjacency("0,1\n1.0000000000000001,0\n")
        assert g.edges[0][2] == Fraction(1)

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(GraphFormatError):
            parse_adjacency("1,1\n1,0\n")

    def test_non_square_rejected(self):
        with pytest.raises(GraphFormatError):
            parse_adjacency("0,1,1\n1,0,1\n")

    @pytest.mark.parametrize(
        "text", ["0,1_0\n1_0,0\n", "0 1_0\n1_0 0\n", "0,\uff15\n\uff15,0\n"],
        ids=["comma_separator", "space_separator", "fullwidth_digit"],
    )
    def test_separator_or_non_ascii_digit_rejected(self, text):
        # Fraction() would read a weight of 10, or a fullwidth 5 as 5
        with pytest.raises(GraphFormatError, match="non-ASCII character or '_'"):
            parse_adjacency(text)


class TestOrientation:
    def test_descending_flips_around_max(self):
        g = make_graph(3, [(0, 1, 1), (1, 2, 2), (0, 2, 3)])
        d = orient_filtration(g, "descending")
        assert {w for _, _, w in d.edges} == {Fraction(0), Fraction(1), Fraction(2)}
        # strongest original tie now enters first
        assert d.edges[1][2] == Fraction(0)  # edge (0,2) had weight 3

    def test_ascending_is_identity(self):
        g = make_graph(3, [(0, 1, 1), (1, 2, 2)])
        assert orient_filtration(g, "ascending") is g

    def test_descending_reverses_step_order(self):
        g = make_graph(4, [(0, 1, 1), (1, 2, 2), (2, 3, 5)])
        up = build_filtration(g).steps
        down = build_filtration(orient_filtration(g, "descending")).steps
        w_max = max(up)
        assert list(down) == sorted(w_max - w for w in up)

    def test_unknown_direction(self):
        g = make_graph(2, [(0, 1, 1)])
        with pytest.raises(ValueError):
            orient_filtration(g, "sideways")


class TestFiltration:
    def test_steps_sorted_distinct(self):
        g = make_graph(4, [(0, 1, 2), (1, 2, 1), (2, 3, 2), (0, 3, 1)])
        assert build_filtration(g).steps == (Fraction(1), Fraction(2))

    def test_empty_graph_degenerate_single_step(self):
        g = make_graph(3, [])
        assert build_filtration(g).steps == (Fraction(0),)

    @given(
        st.lists(
            st.one_of(
                st.fractions(min_value=0, max_denominator=10**20),
                # close to one float, or past the float range
                st.integers(min_value=-3, max_value=3).map(
                    lambda k: Fraction(1, 3) + Fraction(k, 10**40)
                ),
                st.integers(min_value=0, max_value=3).map(
                    lambda k: Fraction(10**400 + k, 10 ** (k % 2))
                ),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_weights_sort_exactly(self, ws):
        # a star holds each drawn weight on its own edge
        g = WeightedGraph(len(ws) + 1, tuple((0, i + 1, w) for i, w in enumerate(ws)))
        steps, ranks = g.ranking
        assert steps == tuple(sorted(set(ws)))
        assert [steps[r] for r in ranks] == ws
        if ws:
            assert build_filtration(g).steps == steps

    def test_weights_past_the_float_range_order_exactly(self):
        # the parsers reject such weights; a graph built directly holds them
        big = Fraction(10**400)
        g = WeightedGraph(3, ((0, 1, big + 1), (0, 2, Fraction(1, 2)), (1, 2, big)))
        steps = (Fraction(1, 2), big, big + 1)
        assert build_filtration(g).steps == steps
        assert g.ranking == (steps, (2, 0, 1))
        cx = flag_complex_at(g, big + 1)
        assert (cx.weights, cx.edge_ids, cx.edge_ranks) == (steps, (1, 2, 0), (0, 1, 2))

    @pytest.mark.parametrize(
        "steps",
        [(Fraction(2), Fraction(1)), (Fraction(0), Fraction(3), Fraction(1))],
    )
    def test_unsorted_steps_rejected(self, steps):
        g = make_graph(3, [(0, 1, 1), (1, 2, 2)])
        with pytest.raises(GraphFormatError, match="strictly increasing"):
            Filtration(source=g, steps=steps)

    @pytest.mark.parametrize(
        "steps",
        [(Fraction(1), Fraction(1)), (Fraction(1), Fraction(2), Fraction(2))],
    )
    def test_duplicate_steps_rejected(self, steps):
        g = make_graph(3, [(0, 1, 1), (1, 2, 2)])
        with pytest.raises(GraphFormatError, match="strictly increasing"):
            Filtration(source=g, steps=steps)


class TestRelabel:
    def test_weights_ride_along(self):
        g = make_graph(3, [(0, 1, 5), (1, 2, 7)])
        h = relabel(g, [2, 0, 1])  # 0->2, 1->0, 2->1
        assert h.edges == ((0, 1, Fraction(7)), (0, 2, Fraction(5)))

    def test_not_a_permutation(self):
        g = make_graph(2, [(0, 1, 1)])
        with pytest.raises(ValueError):
            relabel(g, [0, 0])


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(possible), unique=True, max_size=len(possible))) if possible else []
    weights = draw(
        st.lists(
            st.fractions(min_value=0, max_value=10),
            min_size=len(chosen),
            max_size=len(chosen),
        )
    )
    return make_graph(n, [(u, v, w) for (u, v), w in zip(chosen, weights)])


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_serialize_round_trip(g):
    assert parse_edge_list(serialize_edge_list(g)) == g


@given(
    st.integers(min_value=2, max_value=8).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, 3)
                ).filter(lambda t: t[0] != t[1]),
                max_size=12,
            ),
        )
    )
)
@settings(max_examples=60, deadline=None)
def test_make_graph_pairs_strictly_increase(case):
    n, triples = case
    # the first weight of each pair wins, so no pair conflicts
    weights = {}
    for u, v, w in triples:
        weights.setdefault(frozenset((u, v)), w)
    g = make_graph(n, [(u, v, weights[frozenset((u, v))]) for u, v, _ in triples])
    pairs = [(u, v) for u, v, _ in g.edges]
    assert all(p < q for p, q in zip(pairs, pairs[1:]))
    assert set(pairs) == {tuple(sorted(p)) for p in weights}


@given(small_graphs(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_relabel_inverse_restores(g, rnd):
    perm = list(range(g.n_vertices))
    rnd.shuffle(perm)
    inv = [0] * g.n_vertices
    for old, new in enumerate(perm):
        inv[new] = old
    assert relabel(relabel(g, perm), inv) == g


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_filtration_steps_are_distinct_sorted_weights(g):
    f = build_filtration(g)
    if g.n_edges:
        assert f.steps == tuple(sorted({w for _, _, w in g.edges}))
    assert list(f.steps) == sorted(set(f.steps))


def _digit_groups(sep):
    groups = st.lists(st.text("0123456789", min_size=1, max_size=5), min_size=1, max_size=3)
    return groups.map(sep.join)


# digits grouped by "_", or now and then by a malformed "__"
_DIGITS = st.sampled_from(["", "", "_", "__"]).flatmap(_digit_groups)


@st.composite
def weight_strings(draw):
    """ASCII weight strings near and off the grammar Fraction reads."""
    p, q = draw(_DIGITS), draw(_DIGITS)
    mantissa = draw(st.sampled_from([p, f"{p}.{q}", f".{q}", f"{p}.", "."]))
    exponent = draw(
        st.one_of(
            _DIGITS,
            st.integers(0, 10_010).map(str),  # the float range, the bound
            st.sampled_from(["", "_1", "1_", "99999999", "9" * 5000]),
        )
    )
    body = draw(
        st.sampled_from(
            [
                f"{p}/{q}",
                f"{p} / {q}",
                f"{p}/ {q}",
                mantissa,
                f"{mantissa}e{exponent}",
                f"{mantissa}E-{exponent}",
                f"{mantissa}e+{exponent}",
                f"{p}/{q}e{exponent}",
                "9" * 320 + f"/{q}",
            ]
        )
    )
    space = st.sampled_from(["", " ", "  ", "\t", "\n", "\r\n"])
    sign = draw(st.sampled_from(["", "", "+", "-", "--"]))
    return draw(space) + sign + body + draw(space)


@given(weight_strings())
@example("-0")
@example("1/0")
@example("0/0")
@example("-0/5")
@example("1e308")
@example("1e309")
@example("2e-10000")
@example("1e-10001")
@example("1.e5")
@example("1.d")
@example("1" * 4400)
@example("inf")
@example("nan")
@example("0x10")
@example("\u0661.\u0665")  # Arabic-Indic digits, as Fraction reads them
@example("\u2003 7/2 \u3000")
@settings(max_examples=400, deadline=None)
def test_weight_strings_read_as_fraction_reads_them(text):
    try:
        expected = reference_weight(text)
    except (ValueError, ZeroDivisionError, OverflowError):
        with pytest.raises(GraphFormatError):
            as_weight(text)
    else:
        w = as_weight(text)
        assert type(w) is Fraction and w == expected
