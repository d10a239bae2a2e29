"""Minimum homology bases, draw sets, and pathology detection."""

import logging
import random
from fractions import Fraction

import pytest

from netscaffold.complexes import flag_complex_at
from netscaffold.graph import make_graph, relabel
from netscaffold.minbasis import (
    Cycle,
    MinimalBasisWithDraws,
    PathologyEvent,
    VariantSet,
    annotate_edges,
    horton_candidates,
    min_basis_with_draws,
)

from .oracles import (
    all_cycle_vectors,
    brute_min_basis_total,
    components_bfs,
    flag_triangles,
    gf2_rank_lowbit,
    make_residue_fn,
    mask_length,
)


def random_graph(seed, n=7, density=0.5, connected=False):
    rng = random.Random(seed)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                edges.append((u, v, Fraction(rng.randint(1, 6), 2)))
    if connected:
        have = {u for u, v, _ in edges} | {v for u, v, _ in edges}
        present = {(u, v) for u, v, _ in edges}
        for v in range(1, n):
            if v not in have or components_bfs(n, list(present)) > 1:
                pass
        # chain fallback keeps every vertex reachable
        for v in range(1, n):
            if (v - 1, v) not in present:
                edges.append((v - 1, v, Fraction(rng.randint(1, 6), 2)))
                present.add((v - 1, v))
    return make_graph(n, edges)


def full_complex(g):
    eps = max((w for _, _, w in g.edges), default=Fraction(0))
    return flag_complex_at(g, eps)


def ann_of_cycle(ann_by_id, mask):
    out = 0
    i = 0
    while mask:
        if mask & 1:
            out ^= ann_by_id[i]
        mask >>= 1
        i += 1
    return out


class TestDataclasses:
    def test_cycle_sort_key(self):
        a = Cycle(edges=(0, 1), length_mu=Fraction(2))
        b = Cycle(edges=(0, 2), length_mu=Fraction(2))
        c = Cycle(edges=(5,), length_mu=Fraction(1))
        assert sorted([b, a, c], key=lambda x: x.sort_key) == [c, a, b]

    def test_variant_set_rejects_empty(self):
        with pytest.raises(ValueError):
            VariantSet(cycles=())

    def test_variant_set_rejects_disorder(self):
        a = Cycle(edges=(0, 1), length_mu=Fraction(2))
        b = Cycle(edges=(0, 2), length_mu=Fraction(2))
        with pytest.raises(ValueError):
            VariantSet(cycles=(b, a))
        vs = VariantSet(cycles=(a, b))
        assert vs.representative == a
        assert vs.length_mu == Fraction(2)
        assert len(vs) == 2


class TestAnnotations:
    @pytest.mark.parametrize("seed", range(15))
    def test_beta1_matches_euler(self, seed):
        g = random_graph(seed)
        cx = full_complex(g)
        beta1, _ = annotate_edges(cx)
        pairs = [(u, v) for u, v, _ in g.edges]
        m, n = len(pairs), g.n_vertices
        c = components_bfs(n, pairs)
        eps = max((w for _, _, w in g.edges), default=Fraction(0))
        index = {e: i for i, e in enumerate(pairs)}
        bnd = [
            (1 << index[(a, b)]) | (1 << index[(a, d)]) | (1 << index[(b, d)])
            for a, b, d in flag_triangles(n, list(g.edges), eps)
        ]
        assert beta1 == (m - n + c) - gf2_rank_lowbit(bnd)

    @pytest.mark.parametrize("seed", range(15))
    def test_triangle_boundaries_annotate_to_zero(self, seed):
        g = random_graph(seed)
        cx = full_complex(g)
        _, ann = annotate_edges(cx)
        index = {(u, v): i for i, (u, v, _) in enumerate(g.edges)}
        for a, b, d in cx.triangles:
            assert ann[index[(a, b)]] ^ ann[index[(a, d)]] ^ ann[index[(b, d)]] == 0

    @pytest.mark.parametrize("seed", range(10))
    def test_annotation_equals_residue_classification(self, seed):
        # two cycles are homologous exactly when annotations agree
        g = random_graph(seed, n=6, density=0.6)
        cx = full_complex(g)
        _, ann_by_id = annotate_edges(cx)
        pairs = [(u, v) for u, v, _ in g.edges]
        eps = max((w for _, _, w in g.edges), default=Fraction(0))
        index = {e: i for i, e in enumerate(pairs)}
        bnd = [
            (1 << index[(a, b)]) | (1 << index[(a, d)]) | (1 << index[(b, d)])
            for a, b, d in flag_triangles(g.n_vertices, list(g.edges), eps)
        ]
        residue = make_residue_fn(bnd)
        seen: dict[int, int] = {}
        for z in all_cycle_vectors(g.n_vertices, pairs):
            r = residue(z)
            a = ann_of_cycle(ann_by_id, z)
            assert (r == 0) == (a == 0)
            if r in seen:
                assert seen[r] == a
            else:
                assert a not in seen.values()
                seen[r] = a

    @pytest.mark.parametrize("seed", range(10))
    def test_annotation_is_additive(self, seed):
        g = random_graph(seed, n=6, density=0.55)
        cx = full_complex(g)
        _, ann_by_id = annotate_edges(cx)
        pairs = [(u, v) for u, v, _ in g.edges]
        vecs = all_cycle_vectors(g.n_vertices, pairs)
        rng = random.Random(seed)
        for _ in range(20):
            z1, z2 = rng.choice(vecs), rng.choice(vecs)
            lhs = ann_of_cycle(ann_by_id, z1 ^ z2)
            assert lhs == ann_of_cycle(ann_by_id, z1) ^ ann_of_cycle(ann_by_id, z2)


class TestHortonCandidates:
    @pytest.mark.parametrize("seed", range(10))
    def test_candidates_are_cycles_with_correct_lengths(self, seed):
        g = random_graph(seed)
        cx = full_complex(g)
        for cand in horton_candidates(cx):
            degree: dict[int, int] = {}
            total = Fraction(0)
            for eid in cand.edges:
                u, v, w = g.edges[eid]
                total += w
                degree[u] = degree.get(u, 0) + 1
                degree[v] = degree.get(v, 0) + 1
            assert all(d % 2 == 0 for d in degree.values())
            assert cand.length_mu == total

    def test_sorted_and_deduped(self):
        g = random_graph(3)
        cands = horton_candidates(full_complex(g))
        keys = [c.sort_key for c in cands]
        assert keys == sorted(keys)
        assert len({c.edges for c in cands}) == len(cands)

    def test_k4_contains_all_triangles(self, k4_distinct):
        cands = horton_candidates(full_complex(k4_distinct))
        index = {(u, v): i for i, (u, v, _) in enumerate(k4_distinct.edges)}
        got = {c.edges for c in cands}
        for a, b, d in flag_triangles(4, list(k4_distinct.edges), Fraction(2)):
            tri = tuple(sorted((index[(a, b)], index[(a, d)], index[(b, d)])))
            assert tri in got

    def test_mu_override_changes_lengths(self, k4_distinct):
        mu = {i: Fraction(1) for i in range(len(k4_distinct.edges))}
        for cand in horton_candidates(full_complex(k4_distinct), mu_weights=mu):
            assert cand.length_mu == len(cand.edges)

    def test_mu_missing_edge_raises(self, k4_distinct):
        with pytest.raises(ValueError, match="missing edge id"):
            horton_candidates(full_complex(k4_distinct), mu_weights={0: Fraction(1)})

    def test_mu_negative_raises(self, k4_distinct):
        mu = {i: Fraction(1) for i in range(len(k4_distinct.edges))}
        mu[2] = Fraction(-1)
        with pytest.raises(ValueError, match="negative"):
            horton_candidates(full_complex(k4_distinct), mu_weights=mu)


class TestMinBasisOptimality:
    @pytest.mark.parametrize("seed", range(40))
    def test_total_matches_bruteforce(self, seed):
        g = random_graph(seed)
        if not g.edges:
            pytest.skip("empty draw")
        eps = max(w for _, _, w in g.edges)
        mb = min_basis_with_draws(flag_complex_at(g, eps))
        want = brute_min_basis_total(
            g.n_vertices, list(g.edges), flag_triangles(g.n_vertices, list(g.edges), eps)
        )
        assert mb.total_length() == want

    @pytest.mark.parametrize("seed", range(12))
    def test_total_matches_bruteforce_mid_filtration(self, seed):
        g = random_graph(seed, n=6, density=0.6)
        if not g.edges:
            pytest.skip("empty draw")
        weights = sorted({w for _, _, w in g.edges})
        eps = weights[len(weights) // 2]
        sub = [e for e in g.edges if e[2] <= eps]
        mb = min_basis_with_draws(flag_complex_at(g, eps))
        want = brute_min_basis_total(
            g.n_vertices, sub, flag_triangles(g.n_vertices, sub, eps)
        )
        assert mb.total_length() == want

    @pytest.mark.parametrize("seed", range(12))
    def test_total_matches_bruteforce_with_mu(self, seed):
        g = random_graph(seed, n=6, density=0.6)
        if not g.edges:
            pytest.skip("empty draw")
        rng = random.Random(1000 + seed)
        mu_list = [Fraction(rng.randint(1, 9), 3) for _ in g.edges]
        mu = {i: mu_list[i] for i in range(len(g.edges))}
        eps = max(w for _, _, w in g.edges)
        mb = min_basis_with_draws(flag_complex_at(g, eps), mu_weights=mu)
        want = brute_min_basis_total(
            g.n_vertices,
            list(g.edges),
            flag_triangles(g.n_vertices, list(g.edges), eps),
            mu=mu_list,
        )
        assert mb.total_length() == want

    @pytest.mark.parametrize("seed", range(15))
    def test_representatives_span_independently(self, seed):
        g = random_graph(seed)
        cx = full_complex(g)
        beta1, ann_by_id = annotate_edges(cx)
        mb = min_basis_with_draws(cx)
        assert mb.beta1 == beta1
        assert len(mb.variant_sets) == beta1
        anns = []
        for rep in mb.representatives():
            a = 0
            for eid in rep.edges:
                a ^= ann_by_id[eid]
            anns.append(a)
        assert gf2_rank_lowbit(anns) == beta1

    def test_beta1_zero_gives_empty_basis(self):
        g = make_graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
        mb = min_basis_with_draws(full_complex(g))
        assert mb == MinimalBasisWithDraws(
            beta1=0, variant_sets=(), pathology_events=()
        )
        assert mb.total_length() == 0


class TestDrawsAndPathologies:
    def test_diamond_with_tail_draw_set(self, diamond_with_tail):
        mb = min_basis_with_draws(full_complex(diamond_with_tail))
        assert mb.beta1 == 1
        assert mb.pathology_events == ()
        (vs,) = mb.variant_sets
        assert len(vs) == 2
        assert [c.edges for c in vs.cycles] == [(0, 2, 4, 6, 7), (1, 2, 5, 6, 7)]
        assert vs.length_mu == Fraction(5)

    def test_theta_pathology(self, theta_graph):
        mb = min_basis_with_draws(full_complex(theta_graph))
        assert mb.beta1 == 2
        assert mb.pathology_events == (
            PathologyEvent(level=Fraction(5), n_classes=2, rank_increment=1),
        )
        lengths = sorted(vs.length_mu for vs in mb.variant_sets)
        assert lengths == [Fraction(4), Fraction(5)]
        assert all(len(vs) == 1 for vs in mb.variant_sets)

    def test_theta_logs_warning(self, theta_graph, caplog):
        with caplog.at_level(logging.WARNING, logger="netscaffold.minbasis"):
            min_basis_with_draws(full_complex(theta_graph))
        assert any("pathological" in r.message for r in caplog.records)

    def test_disjoint_equal_squares_are_benign(self):
        # same length, distinct independent classes: a draw tie is fine
        edges = [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)]
        edges += [(4, 5, 1), (5, 6, 1), (6, 7, 1), (4, 7, 1)]
        mb = min_basis_with_draws(full_complex(make_graph(8, edges)))
        assert mb.beta1 == 2
        assert mb.pathology_events == ()
        assert all(vs.length_mu == 4 for vs in mb.variant_sets)

    def test_distinct_weights_mean_singleton_sets(self):
        # generic weights: no equal-length cycles, so every set is a singleton
        edges = [
            (0, 1, Fraction(10, 10)), (1, 2, Fraction(11, 10)),
            (2, 3, Fraction(12, 10)), (0, 3, Fraction(13, 10)),
            (4, 5, Fraction(14, 10)), (5, 6, Fraction(15, 10)),
            (6, 7, Fraction(16, 10)), (4, 7, Fraction(17, 10)),
        ]
        mb = min_basis_with_draws(full_complex(make_graph(8, edges)))
        assert mb.beta1 == 2
        assert mb.pathology_events == ()
        assert all(len(vs) == 1 for vs in mb.variant_sets)


class TestDeterminismAndInvariance:
    @pytest.mark.parametrize("seed", range(8))
    def test_repeat_runs_identical(self, seed):
        g = random_graph(seed)
        cx = full_complex(g)
        assert min_basis_with_draws(cx) == min_basis_with_draws(cx)

    @pytest.mark.parametrize("seed", range(12))
    def test_relabel_preserves_totals(self, seed):
        g = random_graph(seed)
        rng = random.Random(777 + seed)
        perm = list(range(g.n_vertices))
        rng.shuffle(perm)
        g2 = relabel(g, perm)
        mb1 = min_basis_with_draws(full_complex(g))
        mb2 = min_basis_with_draws(full_complex(g2))
        assert mb1.beta1 == mb2.beta1
        assert mb1.total_length() == mb2.total_length()
        assert sorted(vs.length_mu for vs in mb1.variant_sets) == sorted(
            vs.length_mu for vs in mb2.variant_sets
        )
        assert sorted(ev.level for ev in mb1.pathology_events) == sorted(
            ev.level for ev in mb2.pathology_events
        )


class TestGreedyContract:
    @pytest.mark.parametrize("seed", range(20))
    def test_order_and_prefix_span_on_ties(self, seed):
        # integer weights 1..3 make many equal-length cycles and levels
        rng = random.Random(4000 + seed)
        n = 8
        g = make_graph(
            n,
            [
                (u, v, rng.randint(1, 3))
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.55
            ],
        )
        for eps in sorted({w for _, _, w in g.edges}):
            cx = flag_complex_at(g, eps)
            mb = min_basis_with_draws(cx)
            keys = [vs.representative.sort_key for vs in mb.variant_sets]
            assert keys == sorted(keys)
            _, ann_by_id = annotate_edges(cx)

            def ann(cyc):
                a = 0
                for eid in cyc.edges:
                    a ^= ann_by_id[eid]
                return a

            reps = [(rep.sort_key, ann(rep)) for rep in mb.representatives()]
            for cand in horton_candidates(cx):
                a = ann(cand)
                if a == 0:
                    continue
                prefix = [r for k, r in reps if k <= cand.sort_key]
                assert gf2_rank_lowbit(prefix + [a]) == gf2_rank_lowbit(prefix)
