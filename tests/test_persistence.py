"""Barcodes of flag filtrations in degrees 0 and 1."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netscaffold.complexes import flag_complex_at
from netscaffold.graph import build_filtration, make_graph
from netscaffold.minbasis import annotate_edges
from netscaffold.persistence import (
    bars_alive_at,
    barcode_to_csv,
    barcode_to_json,
    compute_persistence,
)

from .conftest import SQRT2
from .oracles import betti1_oracle, components_bfs
from .test_complexes import tied_graph


class TestUnitSquare:
    def test_dim1_bar(self, unit_square):
        bars = compute_persistence(build_filtration(unit_square)).in_dim(1)
        assert len(bars) == 1
        assert bars[0].birth == Fraction(1)
        assert bars[0].death == SQRT2
        assert bars[0].death - bars[0].birth == SQRT2 - 1

    def test_dim1_generator_is_the_unit_cycle(self, unit_square):
        bars = compute_persistence(build_filtration(unit_square)).in_dim(1)
        sides = {
            i for i, (u, v, w) in enumerate(unit_square.edges) if w == 1
        }
        assert set(bars[0].generator.edges) == sides

    def test_dim0_bars(self, unit_square):
        bars = compute_persistence(build_filtration(unit_square)).in_dim(0)
        finite = [p for p in bars if p.death is not None]
        essential = [p for p in bars if p.death is None]
        assert len(essential) == 1
        assert [(p.birth, p.death) for p in finite] == [(0, 1)] * 3


class TestZeroPersistenceDropped:
    def test_unit_triangle(self):
        g = make_graph(3, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
        barcode = compute_persistence(build_filtration(g))
        assert barcode.in_dim(1) == ()
        deaths = sorted(
            (p.birth, p.death) for p in barcode.in_dim(0) if p.death is not None
        )
        assert deaths == [(0, 1)] * 2

    def test_unit_k4(self):
        edges = [(u, v, 1) for u in range(4) for v in range(u + 1, 4)]
        barcode = compute_persistence(build_filtration(make_graph(4, edges)))
        assert barcode.in_dim(1) == ()


class TestEssentialBars:
    def test_bare_cycle(self):
        g = make_graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
        bars = compute_persistence(build_filtration(g)).in_dim(1)
        assert len(bars) == 1
        assert bars[0].birth == Fraction(1)
        assert bars[0].death is None
        assert bars[0].generator.edges == (0, 1, 2, 3)

    def test_include_essential_flag(self):
        g = make_graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
        f = build_filtration(g)
        # one essential bar, no finite one
        assert [p.death for p in compute_persistence(f).in_dim(1)] == [None]

    def test_theta(self, theta_graph):
        bars = compute_persistence(build_filtration(theta_graph)).in_dim(1)
        assert [(p.birth, p.death) for p in bars] == [
            (Fraction(1), None),
            (Fraction(3, 2), None),
        ]

    def test_diamond_with_tail(self, diamond_with_tail):
        barcode = compute_persistence(build_filtration(diamond_with_tail))
        bars = barcode.in_dim(1)
        # two of the three unit cycles die instantly inside the triangles
        assert [(p.birth, p.death) for p in bars] == [(Fraction(1), None)]
        finite0 = [p for p in barcode.in_dim(0) if p.death is not None]
        assert len(finite0) == 5


def random_graph(seed, n=7, density=0.5):
    import random

    rng = random.Random(seed)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                edges.append((u, v, Fraction(rng.randint(1, 6), 2)))
    return make_graph(n, edges)


class TestAliveCounts:
    @pytest.mark.parametrize("seed", range(12))
    def test_dim0_matches_components(self, seed):
        g = random_graph(seed)
        f = build_filtration(g)
        barcode = compute_persistence(f)
        for eps in f.steps:
            kept = [(u, v) for u, v, w in g.edges if w <= eps]
            assert bars_alive_at(barcode, [eps], 0) == [
                components_bfs(g.n_vertices, kept)
            ]

    @pytest.mark.parametrize("seed", range(12))
    def test_dim1_matches_euler_oracle(self, seed):
        g = random_graph(seed)
        f = build_filtration(g)
        barcode = compute_persistence(f)
        for eps in f.steps:
            want = betti1_oracle(g.n_vertices, list(g.edges), eps)
            assert bars_alive_at(barcode, [eps], 1) == [want]
            assert annotate_edges(flag_complex_at(g, eps))[0] == want

    def test_alive_respects_half_open_interval(self, unit_square):
        barcode = compute_persistence(build_filtration(unit_square))
        assert bars_alive_at(barcode, [Fraction(1, 2)], 1) == [0]
        assert bars_alive_at(barcode, [Fraction(1)], 1) == [1]
        assert bars_alive_at(barcode, [SQRT2], 1) == [0]

    @given(tied_graph(), st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_batch_matches_brute_force_count(self, g, rng):
        f = build_filtration(g)
        barcode, steps = compute_persistence(f), f.steps
        # below the first step, on and between steps, past the last;
        # in any order, repeats included
        thresholds = [steps[0] - 1, *steps, steps[-1] + 1]
        thresholds += [(a + b) / 2 for a, b in zip(steps, steps[1:])]
        thresholds += rng.choices(thresholds, k=3)
        rng.shuffle(thresholds)
        for dim in (0, 1):
            want = [
                sum(
                    1
                    for p in barcode.in_dim(dim)
                    if p.birth <= eps and (p.death is None or eps < p.death)
                )
                for eps in thresholds
            ]
            assert bars_alive_at(barcode, thresholds, dim) == want
        assert bars_alive_at(barcode, [], 1) == []


class TestGenerators:
    @pytest.mark.parametrize("seed", range(12))
    def test_generators_are_cycles_born_at_birth(self, seed):
        g = random_graph(seed)
        for bar in compute_persistence(build_filtration(g)).in_dim(1):
            cycle, birth = bar.generator, bar.birth
            degree = {}
            for eid in cycle.edges:
                u, v, w = g.edges[eid]
                assert w <= birth
                degree[u] = degree.get(u, 0) + 1
                degree[v] = degree.get(v, 0) + 1
            assert all(d % 2 == 0 for d in degree.values())
            assert max(g.edges[eid][2] for eid in cycle.edges) == birth
            assert cycle.length_mu == sum(
                g.edges[eid][2] for eid in cycle.edges
            )

    @pytest.mark.parametrize("seed", range(12))
    def test_deterministic(self, seed):
        g = random_graph(seed)
        f = build_filtration(g)
        assert compute_persistence(f) == compute_persistence(f)


class TestFormats:
    def test_csv(self, unit_square):
        text = barcode_to_csv(compute_persistence(build_filtration(unit_square)))
        lines = text.strip().splitlines()
        assert lines[0] == "dim,birth,death"
        rows = [line.split(",") for line in lines[1:]]
        assert all(len(r) == 3 for r in rows)
        essential = [r for r in rows if r[2] == "inf"]
        assert len(essential) == 1
        dim1 = [r for r in rows if r[0] == "1"]
        assert float(dim1[0][1]) == 1.0
        assert float(dim1[0][2]) == float(SQRT2)

    def test_json_exact_values(self, unit_square):
        barcode = compute_persistence(build_filtration(unit_square))
        data = json.loads(barcode_to_json(barcode))
        assert len(data["pairs"]) == len(barcode.pairs)
        for item, pair in zip(data["pairs"], barcode.pairs):
            assert item["dim"] == pair.dim
            assert Fraction(item["birth"]) == pair.birth
            if pair.death is None:
                assert item["death"] is None
            else:
                assert Fraction(item["death"]) == pair.death
            if pair.generator is not None:
                assert item["generator_edges"] == list(pair.generator.edges)
