"""Scaffold aggregation, rankings, and the CSV round trip."""

import random
from fractions import Fraction

import pytest

from netscaffold.complexes import flag_complex_at
from netscaffold.graph import build_filtration, make_graph
from netscaffold.minbasis import PathologyEvent
from netscaffold.persistence import betti1_at
from netscaffold.scaffold import (
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
        s = loose_scaffold(build_filtration(unit_square))
        assert s.provenance == "loose"
        assert s.edge_weights == (
            (0, 1, Fraction(1)),
            (0, 3, Fraction(1)),
            (1, 2, Fraction(1)),
            (2, 3, Fraction(1)),
        )

    def test_minimal_matches_loose_here(self, unit_square):
        f = build_filtration(unit_square)
        assert minimal_scaffold(f).edge_weights == loose_scaffold(f).edge_weights

    def test_beta1_profile(self, unit_square):
        s = loose_scaffold(build_filtration(unit_square))
        assert s.beta1_profile == ((Fraction(1), 1), (SQRT2, 0))


class TestDiamondDraws:
    def test_minimal_uses_representative_only(self, diamond_with_tail):
        s = minimal_scaffold(build_filtration(diamond_with_tail))
        assert s.edge_weights == (
            (0, 1, Fraction(1)),
            (0, 5, Fraction(1)),
            (1, 3, Fraction(1)),
            (3, 4, Fraction(1)),
            (4, 5, Fraction(1)),
        )
        assert s.variant_histogram == ((2, 1),)

    def test_draws_split_the_tie(self, diamond_with_tail):
        s = minimal_scaffold_with_draws(build_filtration(diamond_with_tail))
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
        rep = minimal_scaffold(f)
        draw = minimal_scaffold_with_draws(f)
        # both sum to the basis total length (unit weights: edge count)
        assert sum(w for _, _, w in rep.edge_weights) == sum(
            w for _, _, w in draw.edge_weights
        )


class TestThetaAggregation:
    def test_minimal_counts_per_step(self, theta_graph):
        s = minimal_scaffold(build_filtration(theta_graph))
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
        s = minimal_scaffold(build_filtration(theta_graph))
        assert s.pathology_events == (
            (
                Fraction(3, 2),
                PathologyEvent(level=Fraction(5), n_classes=2, rank_increment=1),
            ),
        )

    def test_mu_override_reaches_the_steps(self, theta_graph):
        ones = {i: Fraction(1) for i in range(len(theta_graph.edges))}
        s = minimal_scaffold(build_filtration(theta_graph), mu_weights=ones)
        # hop metric: every cycle here has four edges, so ties collide
        assert any(ev.level == 4 for _, ev in s.pathology_events)


class TestEssentialFlag:
    def test_exclude_essential_empties_a_bare_cycle(self):
        g = make_graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
        f = build_filtration(g)
        assert loose_scaffold(f, include_essential=True).n_scaffold_edges == 4
        assert loose_scaffold(f, include_essential=False).edge_weights == ()


class TestStepBases:
    def test_skips_trivial_steps(self, unit_square):
        results = step_bases(build_filtration(unit_square))
        assert [eps for eps, _ in results] == [Fraction(1)]

    @pytest.mark.parametrize("seed", range(6))
    def test_profile_matches_live_counts(self, seed):
        g = random_graph(seed)
        f = build_filtration(g)
        results = step_bases(f)
        for s in (
            loose_scaffold(f),
            minimal_scaffold(f, results=results),
            minimal_scaffold_with_draws(f, results=results),
        ):
            assert [eps for eps, _ in s.beta1_profile] == list(f.steps)
            for eps, live in s.beta1_profile:
                assert live == betti1_at(flag_complex_at(g, eps))

    @pytest.mark.parametrize("seed", [0, 3, 5])
    def test_worker_count_never_changes_results(self, seed):
        g = random_graph(seed, n=8)
        f = build_filtration(g)
        serial = step_bases(f, workers=1)
        pooled = step_bases(f, workers=2)
        assert serial == pooled
        assert minimal_scaffold_with_draws(
            f, workers=1
        ) == minimal_scaffold_with_draws(f, workers=2)

    def test_precomputed_results_are_honored(self, theta_graph):
        f = build_filtration(theta_graph)
        results = step_bases(f)
        assert minimal_scaffold(f, results=results) == minimal_scaffold(f)
        assert minimal_scaffold_with_draws(
            f, results=results
        ) == minimal_scaffold_with_draws(f)


class TestRanking:
    def test_node_strength_covers_all_vertices(self, diamond_with_tail):
        s = minimal_scaffold_with_draws(build_filtration(diamond_with_tail))
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
        s = minimal_scaffold_with_draws(build_filtration(diamond_with_tail))
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
        s = minimal_scaffold(build_filtration(theta_graph))
        back = parse_scaffold_csv(scaffold_to_csv(s), n_vertices=s.n_vertices)
        assert back.edge_weights == s.edge_weights
        assert back.n_vertices == s.n_vertices

    def test_vertex_count_defaults_to_max_id(self, theta_graph):
        s = minimal_scaffold(build_filtration(theta_graph))
        assert parse_scaffold_csv(scaffold_to_csv(s)).n_vertices == 5

    def test_exact_rationals_survive(self, diamond_with_tail):
        s = minimal_scaffold_with_draws(build_filtration(diamond_with_tail))
        back = parse_scaffold_csv(scaffold_to_csv(s))
        assert (0, 1, Fraction(1, 2)) in back.edge_weights

    def test_bad_header_raises(self):
        with pytest.raises(ValueError, match="header"):
            parse_scaffold_csv("a,b,c\n1,2,3\n")

    def test_bad_row_raises(self):
        good = "u,v,weight_decimal,weight_num,weight_den\n"
        with pytest.raises(ValueError, match="row"):
            parse_scaffold_csv(good + "0,1,0.5\n")


class TestReport:
    def test_report_shape(self, theta_graph):
        s = minimal_scaffold_with_draws(build_filtration(theta_graph))
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
