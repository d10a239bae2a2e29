"""Minimum homology bases, draw sets, and pathology detection."""

import logging
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netscaffold import minbasis
from netscaffold.complexes import flag_complex_at
from netscaffold.graph import build_filtration, make_graph, orient_filtration
from netscaffold.minbasis import (
    Cycle,
    HortonSweep,
    MinimalBasisWithDraws,
    PathologyEvent,
    VariantSet,
    _insert,
    annotate_edges,
    min_basis_with_draws,
)
from netscaffold.persistence import bars_alive_at, compute_persistence
from netscaffold.scaffold import step_bases

from .oracles import (
    _sp_tree as reference_sp_tree,
    all_cycle_vectors,
    back_eliminated_classes,
    brute_min_basis_total,
    components_bfs,
    edge_position,
    flag_triangles,
    gf2_rank_lowbit,
    horton_candidates,
    horton_pool,
    make_residue_fn,
    mask_length,
    reference_selection,
    relabel,
    representatives,
    source_counts,
    sweep_pool,
    total_length,
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
        for a, b, d in flag_triangles(g.n_vertices, list(g.edges), cx.epsilon):
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
        assert total_length(mb) == want

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
        assert total_length(mb) == want

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
        assert total_length(mb) == want

    @pytest.mark.parametrize("seed", range(15))
    def test_representatives_span_independently(self, seed):
        g = random_graph(seed)
        cx = full_complex(g)
        beta1, ann_by_id = annotate_edges(cx)
        mb = min_basis_with_draws(cx)
        assert mb.beta1 == beta1
        assert len(mb.variant_sets) == beta1
        anns = []
        for rep in representatives(mb):
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
        assert total_length(mb) == 0


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
        assert total_length(mb1) == total_length(mb2)
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

            reps = [(rep.sort_key, ann(rep)) for rep in representatives(mb)]
            for cand in horton_candidates(cx):
                a = ann(cand)
                if a == 0:
                    continue
                prefix = [r for k, r in reps if k <= cand.sort_key]
                assert gf2_rank_lowbit(prefix + [a]) == gf2_rank_lowbit(prefix)


@st.composite
def graph_and_mu(draw, dense=False):
    """Graphs with tied and zero weights or with rational weights, and
    half of them with rational mu weights, zero included. Dense graphs
    hold at least half of the vertex pairs, so that ties across classes
    (pathology events) come up; sparse draws almost never have one."""
    n = draw(st.integers(min_value=2, max_value=8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(
        st.lists(
            st.sampled_from(pairs),
            unique=True,
            min_size=len(pairs) // 2 if dense else 0,
            max_size=len(pairs),
        )
    )
    weight = draw(
        st.sampled_from([
            st.sampled_from([0, Fraction(1, 2), 1, 2]),
            st.fractions(min_value=0, max_value=5, max_denominator=7),
        ])
    )
    ws = draw(st.lists(weight, min_size=len(chosen), max_size=len(chosen)))
    g = make_graph(n, [(u, v, w) for (u, v), w in zip(chosen, ws)])
    mu = None
    if draw(st.booleans()):
        mu_list = draw(
            st.lists(
                st.fractions(min_value=0, max_value=4, max_denominator=5),
                min_size=g.n_edges,
                max_size=g.n_edges,
            )
        )
        mu = dict(enumerate(mu_list))
    return g, mu


def moving_trees_graph():
    """Distinct weights 1..10 on 6 vertices, 5 active steps of 10.
    Roots 0 and 3 have their trees moved at the sixth step and kept for
    the last four; several recomputes change the tree paths of only
    some vertices."""
    return make_graph(
        6,
        [
            (0, 1, 4), (0, 3, 1), (0, 5, 5), (1, 2, 8), (1, 4, 10),
            (2, 3, 6), (2, 4, 7), (2, 5, 3), (3, 4, 9), (4, 5, 2),
        ],
    )


def mu_of(cx, mu):
    return [
        cx.edge_weight(p) if mu is None else mu[cx.edge_ids[p]]
        for p in range(cx.n_edges)
    ]


def view_adjacency(cx):
    """Adjacency lists (neighbor, weight, position) of a view."""
    adj = [[] for _ in range(cx.n_vertices)]
    for p in range(cx.n_edges):
        u, v = cx.edge_vertices(p)
        adj[u].append((v, cx.edge_weight(p), p))
        adj[v].append((u, cx.edge_weight(p), p))
    return adj


@st.composite
def adjacency(draw):
    """Adjacency lists (neighbor, weight, position) of a small graph
    with integer weights 0..3, so ties and zero weights are common."""
    n = draw(st.integers(min_value=1, max_value=9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = []
    if pairs:
        chosen = draw(
            st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))
        )
    adj = [[] for _ in range(n)]
    for p, (u, v) in enumerate(chosen):
        w = draw(st.integers(min_value=0, max_value=3))
        adj[u].append((v, w, p))
        adj[v].append((u, w, p))
    return adj


class TestShortestPathTree:
    @given(adjacency())
    @settings(max_examples=300, deadline=None)
    def test_every_edge_inserted_into_the_empty_view_matches_reference(self, adj):
        n = len(adj)
        edges = sorted({(p, u, v, w) for u in range(n) for v, w, p in adj[u] if u < v})
        ends = [(u, v) for _, u, v, _ in edges]
        imu = [w for _, _, _, w in edges]
        for root in range(n):
            # only root is reached
            dist = [None] * n
            dist[root] = 0
            branch = [-1] * n
            branch[root] = root
            empty = (dist, [-1] * n, branch, [0] * n)
            tree, changed = _insert(empty, adj, root, range(len(edges)), ends, imu)
            dist, pred, branch, pathmask = tree
            want_dist, want_pred, _, want_pathmask = reference_sp_tree(adj, n, root)
            assert (dist, pred, pathmask) == (want_dist, want_pred, want_pathmask)
            for u in range(n):
                # the child of root on the tree path, -1 off root's component
                top = u if dist[u] is not None else -1
                while top not in (-1, root) and pred[top] != root:
                    top = pred[top]
                assert branch[u] == top
            # every reached vertex but root, once each, after its parent
            reached = [u for u in range(n) if u != root and dist[u] is not None]
            assert sorted(changed) == reached
            assert (tree is empty) == (not reached)
            for i, v in enumerate(changed):
                assert pred[v] not in changed[i:]


@st.composite
def oriented_graph(draw):
    """Graphs with distinct weights, tied weights 1..4 or weights 0..3,
    oriented ascending or descending (which turns the largest weight
    into 0)."""
    n = draw(st.integers(min_value=2, max_value=9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1))
    kind = draw(st.sampled_from(["distinct", "tied", "zero"]))
    if kind == "distinct":
        ws = draw(st.permutations(range(1, len(chosen) + 1)))
    else:
        low = 0 if kind == "zero" else 1
        ws = draw(
            st.lists(
                st.integers(min_value=low, max_value=low + 3),
                min_size=len(chosen),
                max_size=len(chosen),
            )
        )
    g = make_graph(n, [(u, v, w) for (u, v), w in zip(chosen, ws)])
    return orient_filtration(g, draw(st.sampled_from(["ascending", "descending"])))


class TestTreeUpdate:
    @given(oriented_graph())
    @settings(max_examples=300, deadline=None)
    def test_updated_trees_equal_fresh_trees_at_every_step(self, g):
        n = g.n_vertices
        cx = full_complex(g)
        sweep = HortonSweep(cx)
        calls = []

        def recording(tree, *args):
            out = _insert(tree, *args)
            calls.append((tree, *out))
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(minbasis, "_insert", recording)
            for eps in build_filtration(g).steps:
                calls.clear()
                view = cx.at(eps)
                sweep._take(view)
                sweep._grow(view)
                for root, tree in enumerate(sweep._trees):
                    dist, pred, branch, pathmask = tree
                    want_dist, want_pred, _, want_pathmask = reference_sp_tree(
                        sweep._adj, n, root
                    )
                    assert (dist, pred, pathmask) == (
                        want_dist, want_pred, want_pathmask
                    )
                    for u in range(n):
                        # the child of root on the tree path, -1 off
                        # root's component
                        top = u if dist[u] is not None else -1
                        while top not in (-1, root) and pred[top] != root:
                            top = pred[top]
                        assert branch[u] == top
                # the changed set is exactly the vertices whose path
                # moved, each after its tree parent
                for old, new, changed in calls:
                    moved = [v for v in range(n) if old[3][v] != new[3][v]]
                    assert sorted(changed) == moved
                    assert (new is old) == (not moved)
                    for i, v in enumerate(changed):
                        assert new[1][v] not in changed[i:]


    def test_tie_that_moves_a_parent_redoes_the_vertices_settled_below_it(self):
        # from root 0, the first step reaches 2 through 3; the second
        # step's edge 0-2 ties that distance and moves pred[2] to 0, and
        # 4, first reached then through 2, is settled below it in the scan
        n = 5
        ends = [(0, 3), (2, 3), (0, 2), (2, 4)]
        imu = [2, 2, 4, 4]
        adj = [[] for _ in range(n)]
        tree = ([0] + [None] * (n - 1), [-1] * n, [0] + [-1] * (n - 1), [0] * n)
        for new in (range(2), range(2, 4)):
            for p in new:
                a, b = ends[p]
                adj[a].append((b, imu[p], p))
                adj[b].append((a, imu[p], p))
            tree, changed = _insert(tree, adj, 0, new, ends, imu)
        dist, pred, branch, pathmask = tree
        want_dist, want_pred, _, want_pathmask = reference_sp_tree(adj, n, 0)
        assert (dist, pred, pathmask) == (want_dist, want_pred, want_pathmask)
        assert branch == [0, -1, 2, 3, 2]
        assert changed == [2, 4]


class TestSelection:
    @given(graph_and_mu(dense=True))
    @settings(max_examples=300, deadline=None)
    def test_selection_matches_two_pass_reference_at_every_active_step(self, case):
        g, mu = case
        f = build_filtration(g)
        barcode = compute_persistence(f)
        for eps, mb in step_bases(f, barcode, mu):
            view = barcode.complex.at(eps)
            beta1, sets, events = reference_selection(view, mu_of(view, mu))
            assert mb.beta1 == beta1
            assert [
                (vs.length_mu, tuple(c.edges for c in vs.cycles))
                for vs in mb.variant_sets
            ] == sets
            assert [
                (ev.level, ev.n_classes, ev.rank_increment)
                for ev in mb.pathology_events
            ] == events


def assert_sweep_matches_fresh_search(g, mu):
    f = build_filtration(g)
    barcode = compute_persistence(f)
    cx = barcode.complex
    live = bars_alive_at(barcode, f.steps, 1)
    active = [eps for eps, b in zip(f.steps, live) if b > 0]
    assert step_bases(f, barcode, mu) == [
        (eps, min_basis_with_draws(cx.at(eps), mu)) for eps in active
    ]
    # over the active steps, as step_bases sweeps, and over every step
    for steps in (active, f.steps):
        if not steps:
            continue
        sweep = HortonSweep(cx.at(steps[-1]), mu)
        for eps in steps:
            view = cx.at(eps)
            assert min_basis_with_draws(view, mu, sweep) == min_basis_with_draws(
                view, mu
            )
            mu_view = mu_of(view, mu)
            assert sweep_pool(sweep, view) == horton_pool(view, mu_view)
            # the pool index: sources per cycle, and the unretired
            # cycles grouped by scaled length
            assert sweep._count == source_counts(view, mu_view)
            levels: dict[int, set[int]] = {}
            for m in sweep._count:
                if m not in sweep.retired:
                    length = mask_length(m, mu_view) * sweep.denom
                    levels.setdefault(int(length), set()).add(m)
            assert sweep._levels == levels


def assert_classes_match_back_elimination(g, mu):
    f = build_filtration(g)
    barcode = compute_persistence(f)
    cx = barcode.complex
    live = bars_alive_at(barcode, f.steps, 1)
    active = [eps for eps, b in zip(f.steps, live) if b > 0]
    for steps in (active, f.steps):
        if not steps:
            continue
        sweep = HortonSweep(cx.at(steps[-1]), mu)
        for eps in steps:
            view = cx.at(eps)
            beta1, oracle = back_eliminated_classes(view)
            assert annotate_edges(view) == (
                beta1,
                {view.edge_ids[p]: oracle(1 << p) for p in range(view.n_edges)},
            )
            # taking the same view again changes nothing
            for _ in range(2):
                assert sweep._take(view) == beta1
                # every column is kept, with its low as its pivot
                lows = {col.bit_length() - 1 for _, col in view.columns}
                assert set(sweep._cols) == lows
                assert sweep._pivots == sum(1 << p for p in lows)
                sweep._grow(view)
                pool = sweep_pool(sweep, view)
                # sweep class -> oracle class must be a bijection
                # that keeps 0, over the pool and the fundamental cycles
                seen: dict[int, int] = {}
                for mask in [*pool, *(m for m in view.cycles if m)]:
                    got, want = sweep.class_of(mask), oracle(mask)
                    assert (got == 0) == (want == 0)
                    assert seen.setdefault(got, want) == want
                assert len(set(seen.values())) == len(seen)


class TestHortonSweep:
    @given(graph_and_mu())
    @settings(max_examples=120, deadline=None)
    def test_sweep_matches_fresh_search_at_every_active_step(self, case):
        assert_sweep_matches_fresh_search(*case)

    @given(graph_and_mu(dense=True))
    @settings(max_examples=120, deadline=None)
    def test_sweep_matches_fresh_search_on_dense_draws(self, case):
        # dense draws reduce mostly to zero columns and tie across classes
        assert_sweep_matches_fresh_search(*case)

    @given(graph_and_mu())
    @settings(max_examples=120, deadline=None)
    def test_classes_match_back_elimination_at_every_step(self, case):
        assert_classes_match_back_elimination(*case)

    @given(graph_and_mu(dense=True))
    @settings(max_examples=120, deadline=None)
    def test_classes_match_back_elimination_on_dense_draws(self, case):
        assert_classes_match_back_elimination(*case)

    def test_recompute_retests_only_edges_at_changed_vertices(self):
        g = moving_trees_graph()
        cx = full_complex(g)
        sweep = HortonSweep(cx)
        local = 0
        for eps in build_filtration(g).steps:
            view = cx.at(eps)
            before, n_old = list(sweep._trees), sweep._n_edges
            retested = sweep.retested
            sweep._take(view)
            sweep._grow(view)
            assert sweep._count == source_counts(view, mu_of(view, None))
            # a kept tree tests only the new edges and is not counted; a
            # recompute tests the new edges and those at a vertex whose
            # tree path changed
            want = 0
            for old, tree in zip(before, sweep._trees):
                if tree is old:
                    continue
                changed = {v for v in range(g.n_vertices) if old[3][v] != tree[3][v]}
                edges = [
                    p
                    for p in range(view.n_edges)
                    if p >= n_old or changed & set(view.edge_vertices(p))
                ]
                want += len(edges)
                local += len(edges) < view.n_edges
            assert sweep.retested - retested == want
        assert local >= 10
        assert sweep.retested < sweep.rescan

    def test_step_bases_logs_one_summary_at_info(self, caplog):
        g = moving_trees_graph()
        f = build_filtration(g)
        barcode = compute_persistence(f)
        with caplog.at_level(logging.INFO, logger="netscaffold.minbasis"):
            results = step_bases(f, barcode)
        records = [r for r in caplog.records if "Horton sweep" in r.getMessage()]
        assert len(records) == 1
        assert records[0].levelno == logging.INFO
        views = [barcode.complex.at(eps) for eps, _ in results]
        last = views[-1]
        absorbed = last.n_edges - last.tree.bit_count() - results[-1][1].beta1
        # the index holds the Horton pool and the fundamental cycles
        largest = max(len(source_counts(v, mu_of(v, None))) for v in views)
        steps, n = len(results), g.n_vertices
        # from fresh trees: the trees and vertices whose paths change
        # between consecutive views, starting from the empty view, where
        # every path is empty
        paths = [[[0] * n for _ in range(n)]]
        for view in views:
            adj = view_adjacency(view)
            paths.append([reference_sp_tree(adj, n, root)[3] for root in range(n)])
        updated = moved = 0
        for before, after in zip(paths, paths[1:]):
            for was, now in zip(before, after):
                changed = sum(a != b for a, b in zip(was, now))
                updated += changed > 0
                moved += changed
        assert 0 < updated < steps * n
        msg = records[0].getMessage()
        assert msg.startswith(
            f"Horton sweep: {steps} steps, {updated} of {steps * n} trees updated "
            f"in place, {moved} vertex paths changed, "
        )
        tested = re.search(r", (\d+) of (\d+) edges re-tested, ", msg)
        assert tested is not None
        assert 0 < int(tested[1]) < int(tested[2])
        assert msg.endswith(
            f" {absorbed} boundaries absorbed, largest index {largest}"
        )

    @given(graph_and_mu(dense=True))
    @settings(max_examples=120, deadline=None)
    def test_retired_cycles_keep_a_source(self, case):
        g, mu = case
        f = build_filtration(g)
        cx = compute_persistence(f).complex
        sweep = HortonSweep(cx, mu)
        for eps in f.steps:
            min_basis_with_draws(cx.at(eps), mu, sweep)
            assert sweep.retired <= sweep._count.keys()

    def test_view_that_does_not_extend_the_last_one_raises(
        self, theta_graph, unit_square
    ):
        cx = full_complex(theta_graph)
        sweep = HortonSweep(cx)
        sweep._take(cx.at(Fraction(3, 2)))
        with pytest.raises(ValueError, match="does not extend"):
            sweep._take(cx.at(Fraction(1)))
        with pytest.raises(ValueError, match="not a view of the sweep's graph"):
            sweep._take(full_complex(unit_square))
        # a failed call leaves the sweep where it was
        pools = []
        for _ in range(2):
            sweep._take(cx)
            sweep._grow(cx)
            pools.append(dict(sweep._count))
        assert pools[0] == pools[1] == source_counts(cx, mu_of(cx, None))

    def test_view_past_the_horizon_raises(self, theta_graph):
        cx = full_complex(theta_graph)
        sweep = HortonSweep(cx.at(Fraction(1)))
        with pytest.raises(ValueError, match="past the horizon"):
            sweep._take(cx)

    def test_sweep_for_other_mu_weights_is_rejected(self, theta_graph):
        cx = full_complex(theta_graph)
        mu = {i: Fraction(1) for i in range(theta_graph.n_edges)}
        with pytest.raises(ValueError, match="other mu weights"):
            min_basis_with_draws(cx, mu, HortonSweep(cx))

    def test_retired_masks_are_boundaries_of_later_views(self):
        # a filled triangle below a square: the greedy meets the triangle
        # (length 3) first, finds its class 0 and retires it; the next
        # step adds the filled triangle 0-2-3 and keeps the square alive
        g = make_graph(
            6,
            [
                (0, 1, 1), (1, 2, 1), (0, 2, 1),
                (2, 3, 1), (3, 4, 1), (4, 5, 1), (2, 5, 1),
                (0, 3, 2),
            ],
        )
        cx = full_complex(g)
        sweep = HortonSweep(cx)
        first = min_basis_with_draws(cx.at(Fraction(1)), None, sweep)
        assert first == min_basis_with_draws(cx.at(Fraction(1)))
        tri = sum(1 << edge_position(cx, u, v) for u, v in ((0, 1), (1, 2), (0, 2)))
        assert sweep.retired == {tri}
        assert min_basis_with_draws(cx, None, sweep) == min_basis_with_draws(cx)
        assert len(sweep.retired) == 2
        _, ann_by_id = annotate_edges(cx)
        for mask in sweep.retired:
            by_id = sum(1 << eid for eid in cx.ids_of_mask(mask))
            assert ann_of_cycle(ann_by_id, by_id) == 0
