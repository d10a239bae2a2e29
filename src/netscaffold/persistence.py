"""Persistent homology of graph filtrations in degrees 0 and 1.

Standard column reduction of the boundary matrix in filtration order,
with columns as int bitsets. Finite dim-1 bars take their generator
from the reduced triangle column at pairing time; essential dim-1 bars
take theirs from the tracked combination that certifies the zeroed edge
column is a cycle. Zero-persistence pairs are dropped (exact equality,
no tolerance).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .complexes import flag_complex_at
from .graph import Filtration
from .minbasis import Cycle
from .z2 import boundary_matrix, low, rank

__all__ = [
    "PersistencePair",
    "Barcode",
    "compute_persistence",
    "betti1_at",
    "bars_alive_at",
    "barcode_to_csv",
    "barcode_to_json",
]


@dataclass(frozen=True)
class PersistencePair:
    """One bar: death None means the class never dies."""

    dim: int
    birth: Fraction
    death: Fraction | None
    generator: Cycle | None = None

    @property
    def persistence(self) -> Fraction | None:
        if self.death is None:
            return None
        return self.death - self.birth


@dataclass(frozen=True)
class Barcode:
    pairs: tuple[PersistencePair, ...]

    def in_dim(self, dim: int) -> tuple[PersistencePair, ...]:
        return tuple(p for p in self.pairs if p.dim == dim)


def compute_persistence(f: Filtration) -> Barcode:
    """Barcode of the flag filtration (degrees 0 and 1)."""
    g = f.source
    cx = flag_complex_at(g, f.steps[-1])
    n = g.n_vertices

    # global order: vertices (born at 0), then edges and triangles by
    # (rank, dimension, vertex tuple); vertices occupy indices 0..n-1
    entries: list[tuple[int, int, tuple[int, ...]]] = [
        (r, 1, cx.edge_vertices(p)) for p, r in enumerate(cx.edge_ranks)
    ]
    entries.extend((r, 2, t) for r, t in zip(cx.triangle_ranks, cx.triangles))
    entries.sort()

    index_of_edge: dict[tuple[int, int], int] = {}
    columns: list[int] = [0] * n  # vertex columns are empty
    fvals: list[Fraction] = [Fraction(0)] * n
    dims: list[int] = [0] * n
    for r, dim, vs in entries:
        idx = len(columns)
        if dim == 1:
            index_of_edge[vs] = idx
            col = (1 << vs[0]) | (1 << vs[1])
        else:
            u, v, w = vs
            col = (
                (1 << index_of_edge[(u, v)])
                | (1 << index_of_edge[(u, w)])
                | (1 << index_of_edge[(v, w)])
            )
        columns.append(col)
        fvals.append(cx.weights[r])
        dims.append(dim)

    total = len(columns)
    pivot_owner: dict[int, int] = {}
    combos: dict[int, int] = {}  # edge column -> bitset over edge columns
    reduced = list(columns)
    for j in range(total):
        if dims[j] == 1:
            combos[j] = 1 << j
        while reduced[j]:
            piv = low(reduced[j])
            owner = pivot_owner.get(piv)
            if owner is None:
                pivot_owner[piv] = j
                break
            reduced[j] ^= reduced[owner]
            if dims[j] == 1:
                combos[j] ^= combos[owner]

    edge_id_of_index = {
        index_of_edge[cx.edge_vertices(p)]: cx.edge_ids[p]
        for p in range(cx.n_edges)
    }

    def cycle_from_edge_indices(bits: int) -> Cycle:
        ids = []
        length = Fraction(0)
        while bits:
            lsb = bits & -bits
            idx = lsb.bit_length() - 1
            eid = edge_id_of_index[idx]
            ids.append(eid)
            length += g.edges[eid][2]
            bits ^= lsb
        return Cycle(edges=tuple(sorted(ids)), length_mu=length)

    killed: set[int] = set()
    pairs: list[PersistencePair] = []
    for j in range(total):
        if not reduced[j]:
            continue
        i = low(reduced[j])
        killed.add(i)
        birth, death = fvals[i], fvals[j]
        if birth == death:
            continue
        if dims[j] == 1:
            pairs.append(PersistencePair(dim=0, birth=birth, death=death))
        else:
            pairs.append(
                PersistencePair(
                    dim=1,
                    birth=birth,
                    death=death,
                    generator=cycle_from_edge_indices(reduced[j]),
                )
            )
    for j in range(total):
        if reduced[j] or j in killed:
            continue
        if dims[j] == 0:
            pairs.append(PersistencePair(dim=0, birth=Fraction(0), death=None))
        elif dims[j] == 1:
            pairs.append(
                PersistencePair(
                    dim=1,
                    birth=fvals[j],
                    death=None,
                    generator=cycle_from_edge_indices(combos[j]),
                )
            )
        # zero triangle columns would be essential dim-2; out of scope

    pairs.sort(
        key=lambda p: (
            p.dim,
            p.birth,
            p.death is None,
            p.death if p.death is not None else Fraction(0),
            p.generator.edges if p.generator is not None else (),
        )
    )
    return Barcode(pairs=tuple(pairs))


def betti1_at(cx) -> int:
    """First Betti number of one complex: (|E| - |V| + c) - rank(d2)."""
    parent = list(range(cx.n_vertices))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    c = cx.n_vertices
    for p in range(cx.n_edges):
        u, v = cx.edge_vertices(p)
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            c -= 1
    cycles = cx.n_edges - cx.n_vertices + c
    return cycles - rank(boundary_matrix(cx, 2))


def bars_alive_at(barcode: Barcode, eps: Fraction, dim: int) -> int:
    """Bars with birth <= eps < death (death None counts as infinite)."""
    return sum(
        1
        for p in barcode.in_dim(dim)
        if p.birth <= eps and (p.death is None or p.death > eps)
    )


def barcode_to_csv(barcode: Barcode) -> str:
    """Rows dim,birth,death; essential bars write death as inf."""
    lines = ["dim,birth,death"]
    for p in barcode.pairs:
        death = "inf" if p.death is None else repr(float(p.death))
        lines.append(f"{p.dim},{float(p.birth)!r},{death}")
    return "\n".join(lines) + "\n"


def barcode_to_json(barcode: Barcode) -> str:
    """Exact births/deaths as rational strings, plus generator edges."""
    items = []
    for p in barcode.pairs:
        item: dict[str, object] = {
            "dim": p.dim,
            "birth": str(p.birth),
            "death": None if p.death is None else str(p.death),
        }
        if p.generator is not None:
            item["generator_edges"] = list(p.generator.edges)
            item["generator_length"] = str(p.generator.length_mu)
        items.append(item)
    return json.dumps({"pairs": items}, indent=2)
