"""Independent reference implementations used only by the test suite.

Everything here is deliberately written without importing package
internals: breadth-first components instead of union-find, dense
Gaussian elimination with lowest-bit pivots instead of bitset column
reduction with highest-bit pivots, exhaustive cycle-space
enumeration instead of candidate generation, one fresh Horton
search and one back-eliminated boundary reduction per complex instead
of a sweep along the filtration, a basis selection that converts
every candidate and tests independence by rank, and Brandes'
betweenness and closeness on ``Fraction`` lengths instead of
integer-scaled ones. ``reference_reduced`` does use highest-bit
pivots, because the left-to-right reduction is what it pins down: it
rebuilds the triangles by brute force (``triangle_order``), their
boundary columns by scanning the edges, and reduces every column to
the end, with no pivot bound. ``reference_weight`` reads a weight
string through ``Fraction(str)``, as ``as_weight`` did before it built
weights from its own match. ``reference_flag_complex`` is the
flag complex build as it was before the graph ranked its own weights:
it hashes the weights into ranks, collects each rank's triangles as
tuples, sorts them by vertex triple and reduces them under the pivot
bound, so the streamed build must reproduce every field it fills.
Slow on purpose; only run on small inputs.

The exceptions are the adapters at the end, which only reshape what
the package returns: the Horton pool that a sweep's trees give, the
pool of one complex as sorted ``Cycle``s, the representatives and
total length of a basis, and ``relabel``, which permutes a graph's
vertex ids through ``make_graph`` for the invariance tests.
"""

from __future__ import annotations

import heapq
import re
from collections import Counter, deque
from fractions import Fraction
from itertools import combinations, groupby

import numpy as np

from netscaffold.complexes import FlagComplex2
from netscaffold.graph import make_graph
from netscaffold.minbasis import Cycle, HortonSweep, _hits


def components_bfs(n: int, pairs: list[tuple[int, int]]) -> int:
    adj = [[] for _ in range(n)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    count = 0
    for s in range(n):
        if seen[s]:
            continue
        count += 1
        seen[s] = True
        q = deque([s])
        while q:
            u = q.popleft()
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    q.append(v)
    return count


def gf2_rank_lowbit(vectors: list[int]) -> int:
    """Rank over Z2, eliminating on the LOWEST set bit of each vector."""
    basis: dict[int, int] = {}
    r = 0
    for vec in vectors:
        v = vec
        while v:
            lsb = v & -v
            piv = lsb.bit_length() - 1
            if piv not in basis:
                basis[piv] = v
                r += 1
                break
            v ^= basis[piv]
    return r


def flag_triangles(
    n: int, edges: list[tuple[int, int, Fraction]], eps: Fraction
) -> list[tuple[int, int, int]]:
    """All triangles whose three edges exist with weight <= eps."""
    present = {(u, v): w for u, v, w in edges if w <= eps}
    tris = []
    for a, b, c in combinations(range(n), 3):
        if (a, b) in present and (a, c) in present and (b, c) in present:
            tris.append((a, b, c))
    return tris


def betti1_oracle(
    n: int, edges: list[tuple[int, int, Fraction]], eps: Fraction
) -> int:
    """(m - n + c) - rank(d2), built from scratch over the kept edges."""
    kept = [(u, v) for u, v, w in edges if w <= eps]
    pos = {e: i for i, e in enumerate(kept)}
    c = components_bfs(n, kept)
    cols = []
    for a, b, d in flag_triangles(n, edges, eps):
        cols.append((1 << pos[(a, b)]) | (1 << pos[(a, d)]) | (1 << pos[(b, d)]))
    return (len(kept) - n + c) - gf2_rank_lowbit(cols)


def edge_position(cx, u: int, v: int) -> int:
    """Position of edge {u,v} in a flag complex, by scanning its edges;
    KeyError when the complex (or prefix view) does not hold it."""
    pair = (min(u, v), max(u, v))
    for p in range(cx.n_edges):
        if cx.edge_vertices(p) == pair:
            return p
    raise KeyError(pair)


def triangle_order(cx) -> list[tuple[int, tuple[int, int, int]]]:
    """Every triangle of a flag complex as (rank, vertex triple), in the
    order its boundary columns are reduced. A triangle's rank is the
    index of its largest edge weight among the distinct weights of the
    complex's edges; ties go by vertex triple. Built by brute force from
    the graph and the threshold, not from the complex's own fields."""
    g, eps = cx.graph, cx.epsilon
    weight = {(u, v): w for u, v, w in g.edges if w <= eps}
    rank = {w: r for r, w in enumerate(sorted(set(weight.values())))}
    return sorted(
        (rank[max(weight[(a, b)], weight[(a, c)], weight[(b, c)])], (a, b, c))
        for a, b, c in flag_triangles(g.n_vertices, list(g.edges), eps)
    )


def boundary_columns(cx, k: int) -> list[int]:
    """Boundary operator of a flag complex in degree k, as bitset columns.

    k=1: one column per edge position, over the vertices. k=2: one
    column per triangle in ``triangle_order``, over the edge positions.
    """
    if k == 1:
        return [
            (1 << u) | (1 << v)
            for u, v in (cx.edge_vertices(p) for p in range(cx.n_edges))
        ]
    if k == 2:
        return [
            (1 << edge_position(cx, a, b))
            | (1 << edge_position(cx, a, c))
            | (1 << edge_position(cx, b, c))
            for _, (a, b, c) in triangle_order(cx)
        ]
    raise ValueError(f"boundary degree must be 1 or 2, got {k}")


def reference_reduced(cx) -> tuple[int, ...]:
    """Plain left-to-right Z2 reduction of a complex's triangle boundary
    columns, rebuilt from its triangles: while column j shares its
    highest set bit with an earlier column, that column is added, down
    to zero or a pivot of its own. No early exit and no skipped column:
    one column per triangle, zero or not."""
    cols = boundary_columns(cx, 2)
    owner: dict[int, int] = {}
    for j in range(len(cols)):
        while cols[j]:
            piv = cols[j].bit_length() - 1
            if piv not in owner:
                owner[piv] = j
                break
            cols[j] ^= cols[owner[piv]]
    return tuple(cols)


def reference_columns(cx) -> tuple[tuple[int, int], ...]:
    """The (rank, column) pairs of the nonzero columns of
    ``reference_reduced``, in triangle order: exactly what
    ``FlagComplex2.columns`` must hold."""
    return tuple(
        (rank, col)
        for (rank, _), col in zip(triangle_order(cx), reference_reduced(cx))
        if col
    )


def reference_weight(text: str) -> Fraction:
    """A weight string's value as ``Fraction(text.strip())`` reads it.
    A decimal exponent past 10,000 is refused before it is expanded, and
    so are a negative value and one past the float range. Raises
    ``ValueError``, ``ZeroDivisionError`` or ``OverflowError``."""
    exp = re.search(r"e([-+]?[\d_]+)\s*\Z", text, re.IGNORECASE)
    if exp and abs(int(exp.group(1))) > 10_000:
        raise ValueError("decimal exponent out of range")
    w = Fraction(text.strip())
    float(w)
    if w < 0:
        raise ValueError("negative weight")
    return w


def reference_flag_complex(g, epsilon: Fraction) -> FlagComplex2:
    """``flag_complex_at(g, epsilon)`` by the sort-then-reduce build: the
    triangles of one rank are all built as ((a, b, c), low) tuples, sorted
    by vertex triple and then reduced, skipping those whose low lies
    below the pivot bound ``first`` (see the ``complexes`` docstring)."""
    weights = tuple(sorted({w for _, _, w in g.edges if w <= epsilon}))
    rank = {w: r for r, w in enumerate(weights)}
    edges = sorted(
        (rank[w], u, v, i) for i, (u, v, w) in enumerate(g.edges) if w <= epsilon
    )
    m = len(edges)
    pos = {(u, v): p for p, (_, u, v, _) in enumerate(edges)}

    parent = list(range(g.n_vertices))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree = 0
    in_tree = [False] * m
    forest: list[list[tuple[int, int]]] = [[] for _ in range(g.n_vertices)]
    for p, (_, u, v, _) in enumerate(edges):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            tree |= 1 << p
            in_tree[p] = True
            forest[u].append((v, p))
            forest[v].append((u, p))
    path = [0] * g.n_vertices
    seen = [False] * g.n_vertices
    for root in range(g.n_vertices):
        if seen[root]:
            continue
        seen[root] = True
        stack = [root]
        while stack:
            x = stack.pop()
            for y, p in forest[x]:
                if not seen[y]:
                    seen[y] = True
                    path[y] = path[x] | (1 << p)
                    stack.append(y)

    nbr = [0] * g.n_vertices
    owned: dict[int, int] = {}
    first = next((p for p, t in enumerate(in_tree) if not t), m)
    triangle_counts: list[int] = []
    columns: list[tuple[int, int]] = []
    n_triangles = 0
    p = 0
    while p < m:
        r = edges[p][0]
        closing = []
        while p < m and edges[p][0] == r:
            _, u, v, _ = edges[p]
            common = nbr[u] & nbr[v]
            while common:
                t = (common & -common).bit_length() - 1
                common ^= 1 << t
                closing.append(
                    ((t, u, v) if t < u else (u, t, v) if t < v else (u, v, t), p)
                )
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u
            p += 1
        n_triangles += len(closing)
        triangle_counts.append(n_triangles)
        closing.sort()
        for (a, b, c), low in closing:
            if low < first:
                continue
            col = (1 << pos[(a, b)]) | (1 << pos[(a, c)]) | (1 << pos[(b, c)])
            while low >= first and low in owned:
                col ^= owned[low]
                low = col.bit_length() - 1
            if low >= first:
                owned[low] = col
                columns.append((r, col))
                while first < m and (in_tree[first] or first in owned):
                    first += 1

    return FlagComplex2(
        epsilon=epsilon,
        graph=g,
        weights=weights,
        edge_ids=tuple(e[3] for e in edges),
        edge_ranks=tuple(e[0] for e in edges),
        triangle_counts=tuple(triangle_counts),
        tree=tree,
        cycles=tuple(
            0 if in_tree[p] else path[u] ^ path[v] ^ (1 << p)
            for p, (_, u, v, _) in enumerate(edges)
        ),
        columns=tuple(columns),
    )


def _bfs_tree(n: int, pairs: list[tuple[int, int]]) -> tuple[list[int], list[int]]:
    """Forest as (parent vertex, parent edge index) arrays; roots get -1."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, (u, v) in enumerate(pairs):
        adj[u].append((v, i))
        adj[v].append((u, i))
    parent = [-1] * n
    parent_edge = [-1] * n
    seen = [False] * n
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        q = deque([s])
        while q:
            u = q.popleft()
            for v, i in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    parent[v] = u
                    parent_edge[v] = i
                    q.append(v)
    return parent, parent_edge


def fundamental_cycles(n: int, pairs: list[tuple[int, int]]) -> list[int]:
    """One bitmask (over edge indices) per non-tree edge of a BFS forest."""
    parent, parent_edge = _bfs_tree(n, pairs)
    tree_edges = {parent_edge[v] for v in range(n) if parent_edge[v] != -1}

    def path_mask(x: int) -> int:
        mask = 0
        while parent[x] != -1:
            mask |= 1 << parent_edge[x]
            x = parent[x]
        return mask

    out = []
    for i, (u, v) in enumerate(pairs):
        if i in tree_edges:
            continue
        out.append(path_mask(u) ^ path_mask(v) ^ (1 << i))
    return out


def all_cycle_vectors(n: int, pairs: list[tuple[int, int]]) -> list[int]:
    """Every nonzero element of the cycle space; 2^g - 1 vectors."""
    fund = fundamental_cycles(n, pairs)
    if len(fund) > 20:
        raise ValueError("cycle space too large to enumerate")
    out = []
    for pick in range(1, 1 << len(fund)):
        z = 0
        k = pick
        idx = 0
        while k:
            if k & 1:
                z ^= fund[idx]
            k >>= 1
            idx += 1
        out.append(z)
    return out


def make_residue_fn(boundary_masks: list[int]):
    """Canonical reduction modulo the span of the boundary masks.

    Returns a function mapping an edge bitmask to a residue bitmask;
    two cycles are homologous exactly when residues coincide.
    """
    basis: dict[int, int] = {}
    for vec in boundary_masks:
        v = vec
        while v:
            lsb = v & -v
            piv = lsb.bit_length() - 1
            if piv not in basis:
                basis[piv] = v
                break
            v ^= basis[piv]

    def residue(mask: int) -> int:
        v = mask
        acc = 0
        while v:
            lsb = v & -v
            piv = lsb.bit_length() - 1
            if piv in basis:
                v ^= basis[piv]
            else:
                acc |= lsb
                v ^= lsb
        return acc

    return residue


def back_eliminated_classes(cx):
    """Beta1 of one complex and its class function, from scratch.

    The nonzero columns of the plain reduction of the complex's triangle
    boundaries (``reference_reduced``), restricted to its non-tree
    positions, are back-eliminated until each pivot row lives in its own
    column only; the free rows then number the beta1 coordinates, and a
    pivot edge's class is the rest of its column.
    The class of a cycle (a bitset of edge positions) is the XOR of its
    edges' classes. This is how the library annotated every step before
    its sweep kept the reduction from step to step.
    """
    nt_mask = ((1 << cx.n_edges) - 1) ^ cx.tree
    cols = [c & nt_mask for c in reference_reduced(cx) if c]
    pivots = {c.bit_length() - 1: j for j, c in enumerate(cols)}
    for p in sorted(pivots, reverse=True):
        j = pivots[p]
        for j2 in range(len(cols)):
            if j2 != j and (cols[j2] >> p) & 1:
                cols[j2] ^= cols[j]

    free_rows = [
        p for p in range(cx.n_edges) if (nt_mask >> p) & 1 and p not in pivots
    ]
    free_bit = {r: i for i, r in enumerate(free_rows)}

    def coords(x: int) -> int:
        out = 0
        while x:
            lsb = x & -x
            out |= 1 << free_bit[lsb.bit_length() - 1]
            x ^= lsb
        return out

    ann_by_pos = [0] * cx.n_edges
    for p in free_rows:
        ann_by_pos[p] = 1 << free_bit[p]
    for p, j in pivots.items():
        ann_by_pos[p] = coords(cols[j] ^ (1 << p))

    def class_of(mask: int) -> int:
        ann = 0
        bits = mask & nt_mask
        while bits:
            lsb = bits & -bits
            ann ^= ann_by_pos[lsb.bit_length() - 1]
            bits ^= lsb
        return ann

    return len(free_rows), class_of


def mask_length(mask: int, weights: list[Fraction]) -> Fraction:
    total = Fraction(0)
    i = 0
    while mask:
        if mask & 1:
            total += weights[i]
        mask >>= 1
        i += 1
    return total


def brute_min_basis_total(
    n: int,
    edges: list[tuple[int, int, Fraction]],
    triangles: list[tuple[int, int, int]],
    mu: list[Fraction] | None = None,
) -> Fraction:
    """Exact minimum total length of a homology-spanning cycle family.

    Enumerates the whole cycle space, reduces each vector modulo the
    triangle boundaries, and runs the greedy matroid selection on
    (length, mask) order. Greedy over a linear matroid is exact, so
    this is a true optimum, independent of any candidate heuristic.
    """
    pairs = [(u, v) for u, v, _ in edges]
    weights = [mu[i] if mu is not None else edges[i][2] for i in range(len(edges))]
    index = {(u, v): i for i, (u, v) in enumerate(pairs)}
    bnd = []
    for a, b, c in triangles:
        bnd.append(
            (1 << index[(a, b)]) | (1 << index[(a, c)]) | (1 << index[(b, c)])
        )
    residue = make_residue_fn(bnd)

    ranked = []
    for z in all_cycle_vectors(n, pairs):
        r = residue(z)
        if r:
            ranked.append((mask_length(z, weights), z, r))
    ranked.sort(key=lambda t: (t[0], t[1]))

    picked_basis: dict[int, int] = {}
    total = Fraction(0)
    n_picked = 0
    for length, _z, r in ranked:
        v = r
        while v:
            lsb = v & -v
            piv = lsb.bit_length() - 1
            if piv not in picked_basis:
                picked_basis[piv] = v
                total += length
                n_picked += 1
                break
            v ^= picked_basis[piv]
    # sanity: number of picks is the quotient dimension
    g = len(pairs) - n + components_bfs(n, pairs)
    beta1 = g - gf2_rank_lowbit(bnd)
    assert n_picked == beta1, (n_picked, beta1)
    return total


def _sp_tree(adj, n: int, root: int):
    """Dijkstra tree from root: (dist, pred, depth, pathmask).

    pred[u] is the smallest-id already-settled neighbor on a shortest
    path; pathmask[u] is the bitset of edge positions on the tree path.
    """
    dist = [None] * n
    dist[root] = 0
    settled = [False] * n
    order = []
    heap = [(0, root)]
    while heap:
        d, u = heapq.heappop(heap)
        if settled[u]:
            continue
        settled[u] = True
        order.append(u)
        for v, w, _pos in adj[u]:
            nd = d + w
            if dist[v] is None or nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))

    pred = [-1] * n
    depth = [0] * n
    pathmask = [0] * n
    done = [False] * n
    for u in order:
        if u != root:
            best = best_pos = -1
            for v, w, pos in adj[u]:
                if done[v] and dist[v] + w == dist[u] and (best == -1 or v < best):
                    best, best_pos = v, pos
            pred[u] = best
            depth[u] = depth[best] + 1
            pathmask[u] = pathmask[best] | (1 << best_pos)
        done[u] = True
    return dist, pred, depth, pathmask


def _lca(a: int, b: int, pred: list[int], depth: list[int]) -> int:
    while depth[a] > depth[b]:
        a = pred[a]
    while depth[b] > depth[a]:
        b = pred[b]
    while a != b:
        a = pred[a]
        b = pred[b]
    return a


def horton_hits(cx, mu: list[Fraction]) -> list[tuple[int, Fraction]]:
    """Every (root, edge) Horton hit of one flag complex from a fresh
    search, as (edge-position mask, length) pairs, repeats kept; mu[p]
    is the length of position p.

    For root v and edge (a,b): tree paths v->a, v->b plus the edge,
    kept when the edge is not a tree edge of v and the paths meet only
    at v (checked by walking up to the lowest common ancestor). This is
    the per-step enumeration the library ran before its sweep kept
    shortest-path trees from step to step.
    """
    n = cx.n_vertices
    adj = [[] for _ in range(n)]
    for p in range(cx.n_edges):
        u, v = cx.edge_vertices(p)
        adj[u].append((v, mu[p], p))
        adj[v].append((u, mu[p], p))
    hits = []
    for root in range(n):
        dist, pred, depth, pathmask = _sp_tree(adj, n, root)
        for p in range(cx.n_edges):
            a, b = cx.edge_vertices(p)
            if dist[a] is None or dist[b] is None:
                continue
            if pred[a] == b or pred[b] == a:
                continue
            if _lca(a, b, pred, depth) != root:
                continue
            mask = pathmask[a] ^ pathmask[b] ^ (1 << p)
            hits.append((mask, dist[a] + dist[b] + mu[p]))
    return hits


def horton_pool(cx, mu: list[Fraction]) -> dict[int, Fraction]:
    """Horton cycles of one flag complex from a fresh search, as
    edge-position mask -> length; mu[p] is the length of position p."""
    return dict(horton_hits(cx, mu))


def source_counts(cx, mu: list[Fraction]) -> dict[int, int]:
    """Sources of each candidate cycle of one flag complex, as
    edge-position mask -> count: one per (root, edge) Horton hit of a
    fresh search, and one per fundamental cycle of its forest."""
    masks = [m for m, _ in horton_hits(cx, mu)] + [m for m in cx.cycles if m]
    return dict(Counter(masks))


def reference_selection(cx, mu: list[Fraction]):
    """Minimum basis of one flag complex by a two-pass greedy, as
    (beta1, variant sets, pathology events); mu[p] is the length of
    position p.

    The candidates are the fresh Horton pool plus the complex's
    fundamental cycles, classed by back-elimination, converted to
    edge ids and sorted by (length, edge ids). The pass runs one length
    level at a time until beta1 classes are kept. The level's nonzero
    classes not spanned at its start are its new classes; each new class
    that raises the rank of the classes kept so far is kept, in order of
    its first member. A variant set is (length, members' edge ids in
    order); an event is (level, new classes, classes kept), recorded
    when the level keeps fewer classes than it has new ones.
    """
    beta1, class_of = back_eliminated_classes(cx)
    pool = horton_pool(cx, mu)
    for mask in cx.cycles:
        if mask:
            pool.setdefault(mask, mask_length(mask, mu))
    cands = sorted(
        (
            length,
            tuple(sorted(cx.edge_ids[p] for p in range(cx.n_edges) if mask >> p & 1)),
            class_of(mask),
        )
        for mask, length in pool.items()
    )
    kept: list[int] = []
    sets, events = [], []
    for level, group in groupby(cands, key=lambda c: c[0]):
        if len(kept) == beta1:
            break
        members: dict[int, list[tuple[int, ...]]] = {}
        for _, ids, a in group:
            if a:
                members.setdefault(a, []).append(ids)
        new = [a for a in members if gf2_rank_lowbit(kept + [a]) > len(kept)]
        gained = 0
        for a in new:
            if gf2_rank_lowbit(kept + [a]) > len(kept):
                kept.append(a)
                sets.append((level, tuple(members[a])))
                gained += 1
        if gained < len(new):
            events.append((level, len(new), gained))
    return beta1, sets, events


# ---------------------------------------------------------------------------
# adapters over package results


def _sssp(adj, n: int, s: int):
    """Dijkstra with path counting on ``Fraction`` lengths:
    (dist, sigma, preds, order)."""
    dist = [None] * n
    sigma = [0] * n
    preds = [[] for _ in range(n)]
    dist[s] = Fraction(0)
    sigma[s] = 1
    settled = [False] * n
    order = []
    heap = [(Fraction(0), s)]
    while heap:
        d, u = heapq.heappop(heap)
        if settled[u]:
            continue
        settled[u] = True
        order.append(u)
        for v, w in adj[u]:
            nd = d + w
            if dist[v] is None or nd < dist[v]:
                dist[v] = nd
                sigma[v] = sigma[u]
                preds[v] = [u]
                heapq.heappush(heap, (nd, v))
            elif nd == dist[v] and not settled[v]:
                sigma[v] += sigma[u]
                preds[v].append(u)
    return dist, sigma, preds, order


def betweenness_closeness(n: int, edges: list[tuple[int, int, Fraction]]):
    """Brandes betweenness and closeness on ``Fraction`` path lengths,
    with three ``Fraction`` operations per shortest-path DAG edge; the
    library's kernel before it scaled lengths and dependencies to
    integers. Returns two float arrays."""
    adj = [[] for _ in range(n)]
    for u, v, w in edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    bet = [Fraction(0)] * n
    clo = np.zeros(n)
    for s in range(n):
        dist, sigma, preds, order = _sssp(adj, n, s)
        total = Fraction(0)
        reached = 0
        for v in order:
            if v != s:
                total += dist[v]
                reached += 1
        if reached > 0 and total > 0:
            clo[s] = float(Fraction(n - 1) / total)
        delta = [Fraction(0)] * n
        for v in reversed(order):
            for u in preds[v]:
                delta[u] += Fraction(sigma[u], sigma[v]) * (1 + delta[v])
            if v != s:
                bet[v] += delta[v]
    return np.array([float(b / 2) for b in bet]), clo


def sweep_pool(sweep, cx) -> dict[int, Fraction]:
    """The Horton pool that the shortest-path trees of a sweep give for
    cx, the last view it grew to, as edge-position mask -> length, by
    the sweep's own hit test. Reads the trees and changes nothing."""
    return {
        mask: Fraction(length, sweep.denom)
        for tree in sweep._trees
        for mask, length in _hits(tree, range(cx.n_edges), sweep._ends, sweep.imu)
    }


def horton_candidates(cx, mu_weights=None) -> list[Cycle]:
    """The Horton pool of one complex from a one-step ``HortonSweep``,
    as ``Cycle``s sorted by (length, edge ids).

    mu_weights overrides the filtration weights for length accounting
    (keyed by graph edge id); shortest-path trees use the same metric.
    """
    sweep = HortonSweep(cx, mu_weights)
    sweep._take(cx)
    sweep._grow(cx)
    cycles = [
        Cycle(edges=cx.ids_of_mask(m), length_mu=l)
        for m, l in sweep_pool(sweep, cx).items()
    ]
    cycles.sort(key=lambda c: c.sort_key)
    return cycles


def representatives(mb) -> list[Cycle]:
    """One representative cycle per variant set of a basis."""
    return [vs.representative for vs in mb.variant_sets]


def total_length(mb) -> Fraction:
    """Summed mu-length of a basis, one representative per class."""
    return sum((vs.length_mu for vs in mb.variant_sets), Fraction(0))


def relabel(g, perm):
    """Apply a vertex permutation; perm[old] = new. Weights ride along."""
    if sorted(perm) != list(range(g.n_vertices)):
        raise ValueError("perm is not a permutation of the vertex set")
    return make_graph(g.n_vertices, [(perm[u], perm[v], w) for u, v, w in g.edges])
