"""Vertex metrics, correlation helpers, and scaffold comparison."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from netscaffold.graph import build_filtration, make_graph
from netscaffold.persistence import compute_persistence
from netscaffold.scaffold import Scaffold, minimal_scaffold_with_draws, step_bases
from netscaffold.stats import (
    KS_INCONCLUSIVE_P,
    VERTEX_METRICS,
    _kolmogorov_sf,
    _midranks,
    aggregate_comparisons,
    compare_scaffolds,
    graph_metrics,
    ks_two_sample,
    pearson,
    spearman,
)

from .oracles import betweenness_closeness


def scaffold_from(edge_weights, n):
    return Scaffold(
        provenance="minimal",
        n_vertices=n,
        edge_weights=tuple(sorted(edge_weights)),
        beta1_profile=(),
    )


class TestBetweennessCloseness:
    def test_path_graph(self):
        g = make_graph(3, [(0, 1, 1), (1, 2, 1)])
        m = graph_metrics(g)
        assert m.betweenness.tolist() == [0.0, 1.0, 0.0]
        assert m.closeness == pytest.approx([2 / 3, 1.0, 2 / 3])

    def test_four_cycle_splits_pairs(self):
        g = make_graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
        m = graph_metrics(g)
        assert m.betweenness.tolist() == [0.5, 0.5, 0.5, 0.5]
        assert m.closeness == pytest.approx([3 / 4] * 4)

    def test_direct_lengths_route_around_heavy_edge(self):
        g = make_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 3)])
        m = graph_metrics(g, length_mode="direct")
        assert m.betweenness.tolist() == [0.0, 1.0, 0.0]

    def test_inverse_lengths_prefer_heavy_edge(self):
        g = make_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 3)])
        m = graph_metrics(g, length_mode="inverse")
        assert m.betweenness.tolist() == [0.0, 0.0, 0.0]

    def test_scaffold_defaults_to_inverse(self):
        s = scaffold_from([(0, 1, Fraction(1)), (1, 2, Fraction(1)), (0, 2, Fraction(3))], 3)
        assert graph_metrics(s).betweenness.tolist() == [0.0, 0.0, 0.0]

    def test_isolated_vertex_gets_zero_closeness(self):
        g = make_graph(3, [(0, 1, 1)])
        m = graph_metrics(g)
        assert m.closeness[2] == 0.0

    def test_zero_weight_edge_rejected(self):
        g = make_graph(2, [(0, 1, 0)])
        with pytest.raises(ValueError, match="strictly positive"):
            graph_metrics(g, length_mode="direct")
        with pytest.raises(ValueError, match="strictly positive"):
            graph_metrics(g, length_mode="inverse")

    def test_unknown_length_mode_rejected(self):
        g = make_graph(2, [(0, 1, 1)])
        with pytest.raises(ValueError, match="length mode"):
            graph_metrics(g, length_mode="sideways")


@st.composite
def weighted_edges(draw):
    """A graph's vertex count and edges, with rational weights or with
    weights from a small set (so equal-length paths are common), on up
    to 10 vertices of which some may be isolated."""
    n = draw(st.integers(min_value=1, max_value=10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    weight = draw(
        st.sampled_from([
            st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 2)]),
            st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9),
        ])
    )
    ws = draw(st.lists(weight, min_size=len(chosen), max_size=len(chosen)))
    return n, [(u, v, w) for (u, v), w in zip(chosen, ws)]


def assert_matches_fraction_brandes(obj, n, edges, mode):
    m = graph_metrics(obj, length_mode=mode)
    lengths = [(u, v, w if mode == "direct" else 1 / w) for u, v, w in edges]
    bet, clo = betweenness_closeness(n, lengths)
    assert m.betweenness.tobytes() == bet.tobytes()
    assert m.closeness.tobytes() == clo.tobytes()


class TestIntegerBrandes:
    """The integer-scaled kernel against ``Fraction`` Brandes, bit for bit."""

    @given(weighted_edges(), st.sampled_from(["direct", "inverse"]))
    @settings(max_examples=300, deadline=None)
    def test_random_graphs(self, case, mode):
        n, edges = case
        assert_matches_fraction_brandes(make_graph(n, edges), n, edges, mode)

    def test_forced_ties(self):
        # a 3x4 grid of unit weights: many equal-length paths per pair,
        # plus an isolated vertex
        n = 13
        edges = [(r * 4 + c, r * 4 + c + 1, Fraction(1)) for r in range(3) for c in range(3)]
        edges += [(r * 4 + c, r * 4 + c + 4, Fraction(1)) for r in range(2) for c in range(4)]
        g = make_graph(n, edges)
        for mode in ("direct", "inverse"):
            assert_matches_fraction_brandes(g, n, sorted(g.edges), mode)

    # seeds whose scaffolds hold shares of 1/2, 1/3 and 1/6
    @pytest.mark.parametrize("seed", [700, 707, 708, 709, 713, 725])
    def test_scaffolds_with_draw_shares(self, seed):
        # integer weights 1..3 tie often, so draws split weight in 1/k shares
        rng = random.Random(seed)
        n = 8
        g = make_graph(
            n,
            [
                (u, v, rng.randint(1, 3))
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.6
            ],
        )
        f = build_filtration(g)
        s = minimal_scaffold_with_draws(f, step_bases(f, compute_persistence(f)))
        edges = list(s.edge_weights)
        assert any(w.denominator > 1 for _, _, w in edges)
        for mode in ("direct", "inverse"):
            assert_matches_fraction_brandes(s, n, edges, mode)


class TestDegreeStrength:
    def test_counts_and_sums(self):
        g = make_graph(3, [(0, 1, Fraction(1, 2)), (0, 2, Fraction(3, 2))])
        m = graph_metrics(g)
        assert m.degree.tolist() == [2.0, 1.0, 1.0]
        assert m.strength.tolist() == [2.0, 0.5, 1.5]


class TestEigenvector:
    def test_matches_dense_eigensolver(self):
        rng = random.Random(5)
        edges = []
        for u in range(8):
            for v in range(u + 1, 8):
                if rng.random() < 0.5:
                    edges.append((u, v, Fraction(rng.randint(1, 5))))
        g = make_graph(8, edges)
        m = graph_metrics(g)
        a = np.zeros((8, 8))
        for u, v, w in g.edges:
            a[u, v] = a[v, u] = float(w)
        vals, vecs = np.linalg.eigh(a)
        lead = np.abs(vecs[:, int(np.argmax(vals))])
        assert m.eigenvector == pytest.approx(lead, abs=1e-8)

    def test_triangle_is_uniform(self):
        g = make_graph(3, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
        m = graph_metrics(g)
        assert m.eigenvector == pytest.approx([1 / np.sqrt(3)] * 3)

    def test_empty_graph_is_zero(self):
        m = graph_metrics(make_graph(3, []))
        assert m.eigenvector.tolist() == [0.0, 0.0, 0.0]


class TestClustering:
    def test_unit_triangle(self):
        g = make_graph(3, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
        assert graph_metrics(g).clustering.tolist() == [1.0, 1.0, 1.0]

    def test_weighted_triangle_geometric_mean(self):
        g = make_graph(3, [(0, 1, 4), (0, 2, 2), (1, 2, 1)])
        m = graph_metrics(g)
        assert m.clustering == pytest.approx([0.5, 0.5, 0.5])

    def test_path_has_no_triangles(self):
        g = make_graph(3, [(0, 1, 1), (1, 2, 1)])
        assert graph_metrics(g).clustering.tolist() == [0.0, 0.0, 0.0]


class TestCorrelations:
    @pytest.mark.parametrize("seed", range(5))
    def test_pearson_matches_scipy(self, seed):
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=30), rng.normal(size=30)
        assert pearson(x, y) == pytest.approx(scipy.stats.pearsonr(x, y)[0])

    @pytest.mark.parametrize("seed", range(5))
    def test_spearman_matches_scipy(self, seed):
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=30), rng.normal(size=30)
        assert spearman(x, y) == pytest.approx(scipy.stats.spearmanr(x, y)[0])

    def test_spearman_handles_ties_like_scipy(self):
        x = [1, 2, 2, 3, 3, 3]
        y = [5, 4, 4, 2, 2, 1]
        assert spearman(x, y) == pytest.approx(scipy.stats.spearmanr(x, y)[0])

    def test_undefined_cases_return_none(self):
        assert pearson([1.0], [2.0]) is None
        assert pearson([1, 1, 1], [1, 2, 3]) is None
        assert pearson([1, 2, 3], [5, 5, 5]) is None
        assert spearman([1.0], [2.0]) is None
        assert spearman([2, 2, 2], [1, 2, 3]) is None

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [1, 2, 3])
        with pytest.raises(ValueError):
            spearman([1, 2], [1, 2, 3])


class TestKolmogorovSmirnov:
    @pytest.mark.parametrize("seed", range(5))
    def test_statistic_matches_scipy(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=40)
        y = rng.normal(loc=0.5, size=35)
        d, p = ks_two_sample(x, y)
        ref = scipy.stats.ks_2samp(x, y)
        assert d == pytest.approx(ref.statistic, abs=1e-12)
        assert 0.0 <= p <= 1.0

    def test_p_matches_kolmogorov_series(self):
        # classical limit Q(lam) = 2 sum (-1)^(k-1) exp(-2 k^2 lam^2)
        rng = np.random.default_rng(1)
        x = rng.normal(size=200)
        y = rng.normal(loc=0.2, size=180)
        d, p = ks_two_sample(x, y)
        lam = np.sqrt(200 * 180 / 380) * d
        q = 2.0 * sum(
            (-1) ** (k - 1) * np.exp(-2.0 * k * k * lam * lam)
            for k in range(1, 101)
        )
        assert p == pytest.approx(q, abs=1e-10)
        # scipy's finite-n asymp refinement should land nearby
        ref = scipy.stats.ks_2samp(x, y, method="asymp")
        assert p == pytest.approx(ref.pvalue, abs=0.05)

    def test_identical_samples(self):
        x = [1.0, 2.0, 3.0, 4.0]
        d, p = ks_two_sample(x, x)
        assert d == 0.0
        assert p == 1.0

    def test_disjoint_samples(self):
        d, p = ks_two_sample([1, 2, 3, 4, 5] * 4, [10, 11, 12, 13, 14] * 4)
        assert d == 1.0
        assert p < KS_INCONCLUSIVE_P

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            ks_two_sample([], [1.0])


def random_sample(rng: np.random.Generator) -> np.ndarray:
    """Floats, or heavily tied small integers, of random length 0..60."""
    size = int(rng.integers(0, 61))
    if rng.random() < 0.5:
        return rng.normal(size=size)
    return rng.integers(0, int(rng.integers(1, 5)), size=size).astype(float)


def neighbours(x: float, count: int) -> list[float]:
    """x and the count floats on each side of it."""
    below, above = [x], [x]
    for _ in range(count):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[::-1] + above[1:]


def ks_lambdas(max_size: int) -> np.ndarray:
    """Every distinct sqrt(nx ny / (nx + ny)) * D that ks_two_sample
    can evaluate for sample sizes up to max_size, D running over all
    |i/nx - j/ny|, computed as ks_two_sample computes it."""
    chunks = []
    for nx in range(1, max_size + 1):
        cdf_x = np.arange(nx + 1) / nx
        for ny in range(nx, max_size + 1):  # lambda is symmetric
            cdf_y = np.arange(ny + 1) / ny
            d = np.unique(np.abs(cdf_x[:, None] - cdf_y[None, :]))
            chunks.append(math.sqrt(nx * ny / (nx + ny)) * d)
    return np.unique(np.concatenate(chunks))


KOLMOGOROV_INPUTS = {
    # dense across the switch between the two series at 0.82
    "grid": np.linspace(0.0, 3.0, 30_001).tolist()
    + neighbours(0.82, 64)
    + np.linspace(0.8, 0.84, 4_001).tolist(),
    # exp(-pi^2 / (8 x^2)) underflows: early return and log path
    "underflow": np.linspace(0.0, 0.041, 4_101).tolist()
    + neighbours(math.pi / math.sqrt(746 * 8), 64)
    + np.linspace(0.0406, 0.0407, 2_001).tolist(),
    "special": [
        0.0, -0.0, -1.0, -1e-300, -math.inf, 5e-324, 1e-310, 2.2250738585072014e-308,
        1e-300, 1e-162, 1e-160, 1e-20, 10.0, 40.0, 1e300, math.inf, math.nan,
    ],
}


class TestExactReplacements:
    """The numpy midranks equal the scipy.stats function they replace,
    and the math KS tail ``scipy.special.kolmogorov``, bit for bit, not
    just nearly."""

    @staticmethod
    def assert_kolmogorov_equal(xs):
        xs = np.asarray(xs, dtype=float)
        ours = np.array([_kolmogorov_sf(x) for x in xs.tolist()])
        ref = scipy.special.kolmogorov(xs)
        differ = ~((ours == ref) | (np.isnan(ours) & np.isnan(ref)))
        assert not differ.any(), xs[differ][:5]

    @pytest.mark.parametrize("region", sorted(KOLMOGOROV_INPUTS))
    def test_kolmogorov_sf_equals_scipy(self, region):
        self.assert_kolmogorov_equal(KOLMOGOROV_INPUTS[region])

    def test_kolmogorov_sf_equals_scipy_on_every_ks_lambda(self):
        lams = ks_lambdas(60)
        assert lams.size > 1_000_000
        self.assert_kolmogorov_equal(lams)

    @pytest.mark.parametrize(
        "x",
        [
            [],
            [3.5],
            [2.0, 1.0],
            [1.0, 1.0],
            [7.0] * 9,
            [3, 1, 3, 3, 2, 1, 3, 0, 3, 1],
            [0.0, -0.0, 1.0, -0.0],
            [np.inf, -np.inf, 1.0, np.inf],
            [[2.0, 1.0], [1.0, 0.0]],
        ],
        ids=[
            "empty", "one", "two", "tied_pair", "constant", "heavy_ties",
            "signed_zeros", "infinities", "two_dims",
        ],
    )
    def test_midranks_equal_rankdata(self, x):
        x = np.asarray(x, dtype=float)
        ours, ref = _midranks(x), scipy.stats.rankdata(x)
        assert ours.dtype == ref.dtype
        assert ours.shape == ref.shape
        assert (ours == ref).all()

    @pytest.mark.parametrize("seed", range(40))
    def test_midranks_equal_rankdata_random(self, seed):
        x = random_sample(np.random.default_rng(seed))
        ours, ref = _midranks(x), scipy.stats.rankdata(x)
        assert ours.dtype == ref.dtype
        assert (ours == ref).all()

    @pytest.mark.parametrize("x", [[np.nan], [1.0, np.nan, 1.0, 0.5]])
    def test_midranks_of_nan_input_are_all_nan_like_rankdata(self, x):
        x = np.asarray(x, dtype=float)
        ours, ref = _midranks(x), scipy.stats.rankdata(x)
        assert ours.dtype == ref.dtype
        assert np.isnan(ref).all()
        assert np.isnan(ours).all() and ours.shape == ref.shape

    @pytest.mark.parametrize("seed", range(40))
    def test_spearman_is_pearson_on_rankdata(self, seed):
        rng = np.random.default_rng(seed)
        x = random_sample(rng)
        y = rng.permutation(x) + (rng.random() < 0.5) * rng.normal(size=x.size)
        expect = (
            None
            if x.size < 2
            else pearson(scipy.stats.rankdata(x), scipy.stats.rankdata(y))
        )
        assert spearman(x, y) == expect

    @pytest.mark.parametrize("seed", range(60))
    def test_ks_p_equals_kstwobign_sf(self, seed):
        rng = np.random.default_rng(seed)
        x, y = random_sample(rng), random_sample(rng)
        if x.size == 0 or y.size == 0:
            x, y = np.append(x, 1.0), np.append(y, 2.0)
        if seed % 6 == 0:
            y = rng.permutation(x)  # D = 0
        d, p = ks_two_sample(x, y)
        if seed % 6 == 0:
            assert d == 0.0
        lam = math.sqrt(x.size * y.size / (x.size + y.size)) * d
        assert p == float(scipy.stats.distributions.kstwobign.sf(lam))


class TestCompareScaffolds:
    def make_pair(self):
        a = scaffold_from(
            [(0, 1, Fraction(2)), (1, 2, Fraction(1)), (2, 3, Fraction(1)),
             (0, 3, Fraction(1)), (0, 2, Fraction(3))],
            4,
        )
        b = scaffold_from(
            [(0, 1, Fraction(1)), (1, 2, Fraction(2)), (2, 3, Fraction(1)),
             (0, 3, Fraction(2))],
            4,
        )
        return a, b

    def test_report_structure(self):
        a, b = self.make_pair()
        rep = compare_scaffolds(a, b)
        for name in VERTEX_METRICS:
            stats = rep.metrics[name]["main"]
            assert set(stats) == {
                "pearson", "spearman", "ks_stat", "ks_p", "ks_inconclusive",
            }
            assert "a_vs_null_b" not in rep.metrics[name]
        assert rep.metrics["edge_weight"]["main"]["intersection"] is not None

    def test_nulls_add_crossed_baselines(self):
        a, b = self.make_pair()
        na = scaffold_from([(0, 1, Fraction(1)), (2, 3, Fraction(1))], 4)
        nb = scaffold_from([(0, 2, Fraction(1)), (1, 3, Fraction(1))], 4)
        rep = compare_scaffolds(a, b, nulls=(na, nb))
        for name in VERTEX_METRICS:
            assert set(rep.metrics[name]) == {"main", "a_vs_null_b", "b_vs_null_a"}

    def test_vertex_count_mismatch_rejected(self):
        a, _ = self.make_pair()
        c = scaffold_from([(0, 1, Fraction(1))], 2)
        with pytest.raises(ValueError, match="vertex set"):
            compare_scaffolds(a, c)
        with pytest.raises(ValueError, match="vertex set"):
            compare_scaffolds(a, a, nulls=(c, c))

    def test_tiny_edge_overlap_gives_none(self):
        a = scaffold_from([(0, 1, Fraction(1))], 4)
        b = scaffold_from([(2, 3, Fraction(1))], 4)
        rep = compare_scaffolds(a, b)
        assert rep.metrics["edge_weight"]["main"]["intersection"] is None
        assert rep.metrics["edge_weight"]["main"]["union_with_zeros"] is not None

    def test_json_serializable(self):
        import json

        a, b = self.make_pair()
        rep = compare_scaffolds(a, b)
        parsed = json.loads(rep.to_json())
        assert set(VERTEX_METRICS) <= set(parsed)


class TestAggregate:
    def test_means_and_fractions(self):
        a, b = TestCompareScaffolds().make_pair()
        reports = [compare_scaffolds(a, b), compare_scaffolds(b, a)]
        agg = aggregate_comparisons(reports)
        for name in VERTEX_METRICS:
            row = agg[name]["main"]
            assert row["n"] == 2
            assert 0.0 <= row["ks_inconclusive_fraction"] <= 1.0
            if row["mean_pearson"] is not None:
                assert -1.0 <= row["mean_pearson"] <= 1.0

    def test_none_metrics_are_skipped_not_averaged(self):
        # two 4-cycles: constant degree vectors, pearson undefined
        a = scaffold_from(
            [(0, 1, Fraction(1)), (1, 2, Fraction(2)), (2, 3, Fraction(1)),
             (0, 3, Fraction(2))],
            4,
        )
        agg = aggregate_comparisons([compare_scaffolds(a, a)])
        assert agg["degree"]["main"]["mean_pearson"] is None
        assert agg["degree"]["main"]["n"] == 1

    def test_empty_input_gives_empty_slots(self):
        agg = aggregate_comparisons([])
        assert all(agg[name] == {} for name in VERTEX_METRICS)
