"""Scaffold aggregation, rankings, and the CSV round trip."""

import random
from fractions import Fraction

import pytest

from netscaffold.graph import build_filtration, make_graph
from netscaffold.minbasis import PathologyEvent
from netscaffold.persistence import compute_persistence
from netscaffold.scaffold import (
    _chunk_bounds,
    Scaffold,
    loose_scaffold,
    minimal_scaffold,
    minimal_scaffold_with_draws,
    node_strength,
    parse_scaffold_csv,
    rank_nodes,
    scaffold_report,
    scaffold_to_csv,
    step_bases,
)

from .conftest import SQRT2
from .oracles import betti1_oracle


def loose_of(f, include_essential=True):
    return loose_scaffold(f, compute_persistence(f), include_essential)


def bases_of(f, mu_weights=None, workers=1):
    return step_bases(f, compute_persistence(f), mu_weights, workers)


def random_graph(seed, n=7, density=0.5):
    rng = random.Random(seed)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                edges.append((u, v, Fraction(rng.randint(1, 6), 2)))
    return make_graph(n, edges)


class TestScaffoldModel:
    def test_rejects_unknown_provenance(self):
        with pytest.raises(ValueError, match="provenance"):
            Scaffold(
                provenance="bogus",
                n_vertices=2,
                edge_weights=(),
                beta1_profile=(),
            )

    def test_weight_of_is_orientation_blind(self):
        s = Scaffold(
            provenance="loose",
            n_vertices=3,
            edge_weights=((0, 2, Fraction(3, 2)),),
            beta1_profile=(),
        )
        assert dict(((u, v), w) for u, v, w in s.edge_weights) == {
            (0, 2): Fraction(3, 2)
        }
        assert s.n_scaffold_edges == 1


class TestUnitSquare:
    def test_loose_is_the_unit_cycle(self, unit_square):
        s = loose_of(build_filtration(unit_square))
        assert s.provenance == "loose"
        assert s.edge_weights == (
            (0, 1, Fraction(1)),
            (0, 3, Fraction(1)),
            (1, 2, Fraction(1)),
            (2, 3, Fraction(1)),
        )

    def test_minimal_matches_loose_here(self, unit_square):
        f = build_filtration(unit_square)
        assert minimal_scaffold(f, bases_of(f)).edge_weights == loose_of(f).edge_weights

    def test_beta1_profile(self, unit_square):
        s = loose_of(build_filtration(unit_square))
        assert s.beta1_profile == ((Fraction(1), 1), (SQRT2, 0))


class TestDiamondDraws:
    def test_minimal_uses_representative_only(self, diamond_with_tail):
        f = build_filtration(diamond_with_tail)
        s = minimal_scaffold(f, bases_of(f))
        assert s.edge_weights == (
            (0, 1, Fraction(1)),
            (0, 5, Fraction(1)),
            (1, 3, Fraction(1)),
            (3, 4, Fraction(1)),
            (4, 5, Fraction(1)),
        )
        assert s.variant_histogram == ((2, 1),)

    def test_draws_split_the_tie(self, diamond_with_tail):
        f = build_filtration(diamond_with_tail)
        s = minimal_scaffold_with_draws(f, bases_of(f))
        assert s.provenance == "minimal_with_draws"
        half = Fraction(1, 2)
        assert dict(((u, v), w) for u, v, w in s.edge_weights) == {
            (0, 1): half,
            (0, 2): half,
            (0, 5): Fraction(1),
            (1, 3): half,
            (2, 3): half,
            (3, 4): Fraction(1),
            (4, 5): Fraction(1),
        }

    def test_draw_shares_conserve_total(self, diamond_with_tail):
        f = build_filtration(diamond_with_tail)
        results = bases_of(f)
        rep = minimal_scaffold(f, results)
        draw = minimal_scaffold_with_draws(f, results)
        # both sum to the basis total length (unit weights: edge count)
        assert sum(w for _, _, w in rep.edge_weights) == sum(
            w for _, _, w in draw.edge_weights
        )


class TestThetaAggregation:
    def test_minimal_counts_per_step(self, theta_graph):
        f = build_filtration(theta_graph)
        s = minimal_scaffold(f, bases_of(f))
        assert dict(((u, v), w) for u, v, w in s.edge_weights) == {
            (0, 1): Fraction(3),
            (0, 3): Fraction(2),
            (1, 2): Fraction(3),
            (2, 3): Fraction(2),
            (0, 4): Fraction(1),
            (2, 4): Fraction(1),
        }
        assert s.variant_histogram == ((1, 3),)

    def test_pathology_carries_its_step(self, theta_graph):
        f = build_filtration(theta_graph)
        s = minimal_scaffold(f, bases_of(f))
        assert s.pathology_events == (
            (
                Fraction(3, 2),
                PathologyEvent(level=Fraction(5), n_classes=2, rank_increment=1),
            ),
        )

    def test_mu_override_reaches_the_steps(self, theta_graph):
        ones = {i: Fraction(1) for i in range(len(theta_graph.edges))}
        f = build_filtration(theta_graph)
        s = minimal_scaffold(f, bases_of(f, mu_weights=ones))
        # hop metric: every cycle here has four edges, so ties collide
        assert any(ev.level == 4 for _, ev in s.pathology_events)


class TestEssentialFlag:
    def test_exclude_essential_empties_a_bare_cycle(self):
        g = make_graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
        f = build_filtration(g)
        assert loose_of(f, include_essential=True).n_scaffold_edges == 4
        assert loose_of(f, include_essential=False).edge_weights == ()


class TestStepBases:
    def test_skips_trivial_steps(self, unit_square):
        results = bases_of(build_filtration(unit_square))
        assert [eps for eps, _ in results] == [Fraction(1)]

    @pytest.mark.parametrize("seed", range(6))
    def test_profile_matches_live_counts(self, seed):
        g = random_graph(seed)
        f = build_filtration(g)
        results = bases_of(f)
        for s in (
            loose_of(f),
            minimal_scaffold(f, results=results),
            minimal_scaffold_with_draws(f, results=results),
        ):
            assert [eps for eps, _ in s.beta1_profile] == list(f.steps)
            for eps, live in s.beta1_profile:
                assert live == betti1_oracle(g.n_vertices, list(g.edges), eps)

    @pytest.mark.parametrize("seed", [0, 3, 5])
    def test_worker_count_never_changes_results(self, seed):
        g = random_graph(seed, n=8)
        f = build_filtration(g)
        serial = bases_of(f, workers=1)
        pooled = bases_of(f, workers=2)
        assert serial == pooled
        assert minimal_scaffold_with_draws(
            f, serial
        ) == minimal_scaffold_with_draws(f, pooled)

    @pytest.mark.parametrize("seed", [3, 4, 6])
    def test_chunk_boundaries_never_change_results(self, seed):
        # tied weights; 2 and 3 chunks, and one chunk per active step
        rng = random.Random(seed)
        g = make_graph(
            8,
            [
                (u, v, Fraction(rng.randint(1, 12), 2))
                for u in range(8)
                for v in range(u + 1, 8)
                if rng.random() < 0.5
            ],
        )
        f = build_filtration(g)
        barcode = compute_persistence(f)
        mu = {i: Fraction(i % 3, 2) for i in range(g.n_edges)}
        for mu_weights in (None, mu):
            serial = step_bases(f, barcode, mu_weights)
            assert 3 <= len(serial) <= 6
            for workers in (2, 3, len(serial) + 2):
                assert step_bases(f, barcode, mu_weights, workers) == serial

    @pytest.mark.parametrize(
        "costs, k, bounds",
        [
            ([5, 5, 5, 5], 2, [0, 2, 4]),
            ([1, 1, 1, 10], 2, [0, 3, 4]),
            ([3, 4, 5, 6, 7, 8, 9, 10], 2, [0, 5, 8]),
            ([3, 4, 5, 6, 7, 8, 9, 10], 3, [0, 4, 6, 8]),
            # one expensive step cannot leave a chunk empty
            ([1, 100, 1, 1], 4, [0, 1, 2, 3, 4]),
            ([100, 1, 1], 3, [0, 1, 2, 3]),
        ],
    )
    def test_chunks_balance_edge_counts(self, costs, k, bounds):
        assert _chunk_bounds(costs, k) == bounds

    def test_barcode_of_another_graph_is_rejected(self, theta_graph, unit_square):
        f = build_filtration(theta_graph)
        other = compute_persistence(build_filtration(unit_square))
        with pytest.raises(ValueError, match="different graph"):
            loose_scaffold(f, other)
        with pytest.raises(ValueError, match="different graph"):
            step_bases(f, other)

    def test_barcode_of_an_equal_graph_is_accepted(self, theta_graph):
        f = build_filtration(theta_graph)
        twin = build_filtration(make_graph(5, theta_graph.edges))
        assert twin.source is not f.source
        barcode = compute_persistence(twin)
        assert loose_scaffold(f, barcode) == loose_of(f)
        assert step_bases(f, barcode) == bases_of(f)


class TestMuWeights:
    """Only the edges of active steps need mu weights, in every chunk."""

    @pytest.fixture
    def two_squares(self):
        # squares at steps 1 and 2, filled at step 3; a bridge at step 4
        g = make_graph(
            8,
            [
                (0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1),
                (4, 5, 2), (5, 6, 2), (6, 7, 2), (4, 7, 2),
                (0, 2, 3), (4, 6, 3),
                (3, 4, 4),
            ],
        )
        f = build_filtration(g)
        barcode = compute_persistence(f)
        ids = {(u, v): i for i, (u, v, _) in enumerate(g.edges)}
        mu = {i: Fraction(1, 1 + i % 2) for i in ids.values()}
        return f, barcode, ids, mu

    @pytest.mark.parametrize("workers", [1, 2])
    def test_edges_after_the_last_active_step_need_none(self, two_squares, workers):
        f, barcode, ids, mu = two_squares
        full = step_bases(f, barcode, mu, workers)
        assert [eps for eps, _ in full] == [1, 2]
        for late in ((0, 2), (4, 6), (3, 4)):
            del mu[ids[late]]
        assert step_bases(f, barcode, mu, workers) == full

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("edge", [(0, 1), (5, 6)])
    def test_missing_edge_of_an_active_step_raises(self, two_squares, workers, edge):
        f, barcode, ids, mu = two_squares
        del mu[ids[edge]]
        with pytest.raises(ValueError, match=f"^mu_weights missing edge id {ids[edge]}$"):
            step_bases(f, barcode, mu, workers)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("edge", [(2, 3), (4, 7)])
    def test_negative_weight_in_an_active_step_raises(self, two_squares, workers, edge):
        f, barcode, ids, mu = two_squares
        mu[ids[edge]] = Fraction(-1, 3)
        with pytest.raises(
            ValueError, match=f"^negative mu weight for edge id {ids[edge]}$"
        ):
            step_bases(f, barcode, mu, workers)


class TestRanking:
    def test_node_strength_covers_all_vertices(self, diamond_with_tail):
        f = build_filtration(diamond_with_tail)
        s = minimal_scaffold_with_draws(f, bases_of(f))
        strength = node_strength(s)
        assert strength == {
            0: Fraction(2),
            1: Fraction(1),
            2: Fraction(1),
            3: Fraction(2),
            4: Fraction(2),
            5: Fraction(2),
        }

    def test_rank_nodes_orders_and_normalizes(self, diamond_with_tail):
        f = build_filtration(diamond_with_tail)
        s = minimal_scaffold_with_draws(f, bases_of(f))
        ranked = rank_nodes(s)
        assert [v for v, _ in ranked] == [0, 3, 4, 5, 1, 2]
        assert ranked[0][1] == pytest.approx(1.2)
        assert ranked[-1][1] == pytest.approx(0.6)

    def test_rank_nodes_rejects_empty(self):
        s = Scaffold(
            provenance="minimal", n_vertices=3, edge_weights=(), beta1_profile=()
        )
        with pytest.raises(ValueError, match="empty"):
            rank_nodes(s)


class TestCsvRoundTrip:
    def test_round_trip(self, theta_graph):
        f = build_filtration(theta_graph)
        s = minimal_scaffold(f, bases_of(f))
        back = parse_scaffold_csv(scaffold_to_csv(s), n_vertices=s.n_vertices)
        assert back.edge_weights == s.edge_weights
        assert back.n_vertices == s.n_vertices

    def test_vertex_count_defaults_to_max_id(self, theta_graph):
        f = build_filtration(theta_graph)
        s = minimal_scaffold(f, bases_of(f))
        assert parse_scaffold_csv(scaffold_to_csv(s)).n_vertices == 5

    def test_exact_rationals_survive(self, diamond_with_tail):
        f = build_filtration(diamond_with_tail)
        s = minimal_scaffold_with_draws(f, bases_of(f))
        back = parse_scaffold_csv(scaffold_to_csv(s))
        assert (0, 1, Fraction(1, 2)) in back.edge_weights

    def test_bad_header_raises(self):
        with pytest.raises(ValueError, match="header"):
            parse_scaffold_csv("a,b,c\n1,2,3\n")

    def test_bad_row_raises(self):
        good = "u,v,weight_decimal,weight_num,weight_den\n"
        with pytest.raises(ValueError, match="row"):
            parse_scaffold_csv(good + "0,1,0.5\n")

    HEADER = "u,v,weight_decimal,weight_num,weight_den\n"

    def test_provenance_is_not_recorded(self):
        s = parse_scaffold_csv(self.HEADER + "0,1,1.0,1,1\n")
        assert s.provenance is None
        assert scaffold_report(s)["provenance"] is None

    def test_zero_denominator_raises(self):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_scaffold_csv(self.HEADER + "0,1,inf,1,0\n")

    def test_negative_id_raises(self):
        with pytest.raises(ValueError, match="0 <= u < v"):
            parse_scaffold_csv(self.HEADER + "-1,1,1.0,1,1\n")

    @pytest.mark.parametrize("row", ["1,1,1.0,1,1", "2,1,1.0,1,1"])
    def test_unordered_pair_raises(self, row):
        with pytest.raises(ValueError, match="0 <= u < v"):
            parse_scaffold_csv(self.HEADER + row + "\n")

    @pytest.mark.parametrize("row", ["0,1,0.0,0,1", "0,1,-0.5,1,-2"])
    def test_weight_not_positive_raises(self, row):
        with pytest.raises(ValueError, match="positive"):
            parse_scaffold_csv(self.HEADER + row + "\n")

    def test_decimal_that_does_not_match_the_weight_raises(self):
        assert parse_scaffold_csv(self.HEADER + "0,1,1.0,1,1\n").edge_weights == (
            (0, 1, Fraction(1)),
        )
        with pytest.raises(ValueError, match="weight_decimal does not match"):
            parse_scaffold_csv(self.HEADER + "0,1,5.0,1,1\n")
        # a weight past every float still fails as a bad row
        with pytest.raises(ValueError, match="weight_decimal does not match"):
            parse_scaffold_csv(self.HEADER + f"0,1,inf,{10**400},1\n")

    @pytest.mark.parametrize(
        "row",
        ["0,1_0,10.0,1_0,+1", "0,1_0,1.0,1,1", "0,1,10.0,1_0,1", "0,1,1.0,+1,1",
         "0,1,1.0,1,+1", "0,\u0661,1.0,1,1", "0,1,1.0,1,\uff11", "+0,1,1.0,1,1"],
        ids=["separators_and_sign", "id_separator", "num_separator", "num_sign", "den_sign",
             "arabic_indic_id", "fullwidth_den", "id_sign"],
    )
    def test_ids_and_weight_parts_must_be_ascii_digits(self, row):
        # int() would read each of these as a valid number
        with pytest.raises(ValueError, match="ASCII digits"):
            parse_scaffold_csv(self.HEADER + row + "\n")

    def test_duplicate_pair_raises(self):
        with pytest.raises(ValueError, match="repeats"):
            parse_scaffold_csv(self.HEADER + "0,1,1.0,1,1\n0,1,0.5,1,2\n")

    def test_vertex_count_below_max_id_raises(self):
        text = self.HEADER + "0,3,1.0,1,1\n"
        assert parse_scaffold_csv(text, n_vertices=4).n_vertices == 4
        with pytest.raises(ValueError, match="names vertex 3"):
            parse_scaffold_csv(text, n_vertices=3)


class TestReport:
    def test_report_shape(self, theta_graph):
        f = build_filtration(theta_graph)
        s = minimal_scaffold_with_draws(f, bases_of(f))
        rep = scaffold_report(s)
        assert rep["provenance"] == "minimal_with_draws"
        assert rep["n_vertices"] == 5
        assert rep["n_pathology_events"] == 1
        assert rep["pathology_events"][0]["level"] == "5"
        assert rep["pathology_events"][0]["step"] == "3/2"
        assert ["1", 1] in rep["beta1_profile"]
        assert rep["ranking_top10"][0][0] in (0, 1, 2)

    def test_report_omits_ranking_when_empty(self):
        s = Scaffold(
            provenance="minimal", n_vertices=3, edge_weights=(), beta1_profile=()
        )
        assert "ranking_top10" not in scaffold_report(s)
