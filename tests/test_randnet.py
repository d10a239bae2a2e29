"""Seeded generators and null models."""

import math
from fractions import Fraction

import numpy as np
import pytest

from netscaffold.graph import MAX_VERTICES
from netscaffold.randnet import (
    GeneratorConfig,
    correlation_graph,
    gen_er_null,
    gen_rgg,
    gen_ws_weighted,
    generate,
    spectral_rotation_null,
)

from .oracles import components_bfs


class TestDeterminism:
    def test_same_seed_same_graph(self):
        a = gen_ws_weighted(20, 4, 0.3, seed=7)
        b = gen_ws_weighted(20, 4, 0.3, seed=7)
        assert a == b

    def test_different_seeds_differ(self):
        a = gen_ws_weighted(20, 4, 0.3, seed=7)
        b = gen_ws_weighted(20, 4, 0.3, seed=8)
        assert a != b

    def test_global_numpy_state_is_ignored(self):
        np.random.seed(1)
        a = gen_rgg(15, 0.4, seed=3)
        np.random.seed(999)
        b = gen_rgg(15, 0.4, seed=3)
        assert a == b

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            gen_er_null(5, 3, seed=-1)


class TestWattsStrogatz:
    def test_zero_rewiring_is_the_ring_lattice(self):
        g = gen_ws_weighted(10, 4, 0.0, seed=0)
        pairs = {(u, v) for u, v, _ in g.edges}
        want = set()
        for u in range(10):
            for j in (1, 2):
                a, b = u, (u + j) % 10
                want.add((min(a, b), max(a, b)))
        assert pairs == want

    def test_edge_count_is_preserved_by_rewiring(self):
        for seed in range(5):
            g = gen_ws_weighted(16, 4, 0.5, seed=seed)
            assert len(g.edges) == 16 * 4 // 2

    def test_odd_k_rounds_down(self):
        assert gen_ws_weighted(10, 5, 0.0, seed=0) == gen_ws_weighted(
            10, 4, 0.0, seed=0
        )

    def test_weights_are_distance_plus_tiny_jitter(self):
        g = gen_ws_weighted(12, 4, 0.4, seed=5)
        for u, v, w in g.edges:
            circ = min(v - u, 12 - (v - u))
            jitter = w - 1 - circ
            assert 0 < jitter < Fraction(1, 10**6)

    def test_jitter_makes_weights_distinct(self):
        g = gen_ws_weighted(20, 6, 0.2, seed=9)
        weights = [w for _, _, w in g.edges]
        assert len(set(weights)) == len(weights)

    def test_no_self_loops_or_duplicates(self):
        for seed in range(4):
            g = gen_ws_weighted(14, 6, 0.9, seed=seed)
            pairs = [(u, v) for u, v, _ in g.edges]
            assert all(u < v for u, v in pairs)
            assert len(set(pairs)) == len(pairs)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gen_ws_weighted(2, 2, 0.1, seed=0)
        with pytest.raises(ValueError):
            gen_ws_weighted(10, 1, 0.1, seed=0)
        with pytest.raises(ValueError):
            gen_ws_weighted(10, 10, 0.1, seed=0)
        with pytest.raises(ValueError):
            gen_ws_weighted(10, 4, 1.5, seed=0)


class TestGeometric:
    def test_weights_are_exact_euclidean_distances(self):
        g = gen_rgg(20, 0.5, seed=11)
        rng = np.random.Generator(np.random.Philox(11))
        pts = rng.random((20, 2))
        for u, v, w in g.edges:
            d = math.sqrt(float(np.sum((pts[u] - pts[v]) ** 2)))
            assert w == Fraction(d)
            assert w <= Fraction(0.5)

    def test_threshold_is_respected_exactly(self):
        g = gen_rgg(30, 0.3, seed=2)
        rng = np.random.Generator(np.random.Philox(2))
        pts = rng.random((30, 2))
        missing = {(u, v) for u in range(30) for v in range(u + 1, 30)}
        missing -= {(u, v) for u, v, _ in g.edges}
        for u, v in missing:
            assert math.sqrt(float(np.sum((pts[u] - pts[v]) ** 2))) > 0.3

    def test_dim_3_works(self):
        g = gen_rgg(15, 0.6, dim=3, seed=4)
        assert g.n_vertices == 15
        assert all(w <= Fraction(0.6) for _, _, w in g.edges)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gen_rgg(0, 0.5)
        with pytest.raises(ValueError):
            gen_rgg(5, 0.0)
        with pytest.raises(ValueError):
            gen_rgg(5, 0.5, dim=0)


class TestErdosRenyiNull:
    def test_exact_edge_count_and_unit_weights(self):
        for seed in range(6):
            g = gen_er_null(12, 20, seed=seed)
            assert len(g.edges) == 20
            assert all(w == 1 for _, _, w in g.edges)
            pairs = [(u, v) for u, v, _ in g.edges]
            assert all(u < v for u, v in pairs)
            assert len(set(pairs)) == 20

    def test_extremes(self):
        assert gen_er_null(6, 0, seed=0).edges == ()
        full = gen_er_null(6, 15, seed=0)
        assert len(full.edges) == 15

    def test_m_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            gen_er_null(5, 11, seed=0)
        with pytest.raises(ValueError):
            gen_er_null(5, -1, seed=0)

    def test_samples_cover_distinct_graphs(self):
        seen = {gen_er_null(8, 10, seed=s).edges for s in range(10)}
        assert len(seen) > 5


def factor_correlation(n, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    loadings = rng.standard_normal((n, 3))
    cov = loadings @ loadings.T + np.eye(n)
    d = np.sqrt(np.diag(cov))
    return cov / np.outer(d, d)


class TestSpectralRotationNull:
    def test_spectrum_is_preserved(self):
        c = factor_correlation(12, seed=0)
        rotated = spectral_rotation_null(c, seed=1)
        assert np.max(
            np.abs(np.linalg.eigvalsh(c) - np.linalg.eigvalsh(rotated))
        ) <= 1e-9

    def test_output_is_exactly_symmetric(self):
        rotated = spectral_rotation_null(factor_correlation(10, 3), seed=5)
        assert np.array_equal(rotated, rotated.T)

    def test_deterministic_in_seed(self):
        c = factor_correlation(8, 1)
        assert np.array_equal(
            spectral_rotation_null(c, seed=2), spectral_rotation_null(c, seed=2)
        )
        assert not np.array_equal(
            spectral_rotation_null(c, seed=2), spectral_rotation_null(c, seed=3)
        )

    def test_rejects_asymmetric(self):
        bad = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            spectral_rotation_null(bad, seed=0)

    def test_rejects_indefinite(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(ValueError, match="positive semidefinite"):
            spectral_rotation_null(bad, seed=0)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            spectral_rotation_null(np.ones((2, 3)), seed=0)


class TestCorrelationGraph:
    def test_complete_with_inverted_weights(self):
        c = np.array(
            [
                [1.0, 0.8, 0.1],
                [0.8, 1.0, 0.5],
                [0.1, 0.5, 1.0],
            ]
        )
        g = correlation_graph(c)
        assert len(g.edges) == 3
        # strongest affinity first: 0.8 maps to weight 0
        assert g.edges == (
            (0, 1, Fraction(0)),
            (0, 2, Fraction(0.8) - Fraction(0.1)),
            (1, 2, Fraction(0.8) - Fraction(0.5)),
        )

    def test_weights_nonnegative_after_rotation(self):
        c = factor_correlation(10, seed=6)
        g = correlation_graph(spectral_rotation_null(c, seed=7))
        assert all(w >= 0 for _, _, w in g.edges)

    def test_rejects_tiny_or_asymmetric(self):
        with pytest.raises(ValueError):
            correlation_graph(np.array([[1.0]]))
        with pytest.raises(ValueError):
            correlation_graph(np.array([[1.0, 0.5], [0.2, 1.0]]))


class TestGeneratorConfig:
    def test_json_round_trip(self):
        cfg = GeneratorConfig(model="ws", params={"n": 10, "k": 4, "p": 0.1}, seed=42)
        assert GeneratorConfig.from_json(cfg.to_json()) == cfg

    def test_dispatch_matches_direct_calls(self):
        cfg = GeneratorConfig(model="ws", params={"n": 10, "k": 4, "p": 0.1}, seed=3)
        assert generate(cfg) == gen_ws_weighted(10, 4, 0.1, seed=3)
        cfg = GeneratorConfig(model="rgg", params={"n": 9, "threshold": 0.5}, seed=3)
        assert generate(cfg) == gen_rgg(9, 0.5, seed=3)
        cfg = GeneratorConfig(model="er", params={"n": 9, "m": 12}, seed=3)
        assert generate(cfg) == gen_er_null(9, 12, seed=3)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="model"):
            GeneratorConfig(model="nope")

    @pytest.mark.parametrize(
        "model, params",
        [
            ("er", {"n": 6.9, "m": 5}),
            ("er", {"n": 6, "m": 5.0}),
            ("ws", {"n": 10, "k": True, "p": 0.1}),
            ("rgg", {"n": "9", "threshold": 0.5}),
            ("rgg", {"n": 9, "threshold": 0.5, "dim": 2.5}),
        ],
    )
    def test_non_integer_counts_rejected(self, model, params):
        with pytest.raises(ValueError, match="not an integer"):
            GeneratorConfig(model=model, params=params)

    @pytest.mark.parametrize(
        "model, params",
        [
            ("ws", {"n": MAX_VERTICES + 1, "k": 4, "p": 0.1}),
            ("rgg", {"n": 10**12, "threshold": 0.5}),
            ("er", {"n": MAX_VERTICES + 1, "m": 5}),
        ],
    )
    def test_vertex_count_over_cap_rejected(self, model, params):
        with pytest.raises(ValueError, match=str(MAX_VERTICES)):
            GeneratorConfig(model=model, params=params)

    def test_vertex_count_at_cap_accepted(self):
        cfg = GeneratorConfig(model="er", params={"n": MAX_VERTICES, "m": 0})
        assert cfg.params["n"] == MAX_VERTICES

    def test_bool_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            GeneratorConfig(model="er", params={"n": 6, "m": 5}, seed=True)

    def test_connectivity_sanity(self):
        # ring lattices are connected; useful for downstream metric tests
        g = gen_ws_weighted(24, 4, 0.1, seed=0)
        pairs = [(u, v) for u, v, _ in g.edges]
        assert components_bfs(24, pairs) == 1
