"""Persistent homology of graph filtrations in degrees 0 and 1.

The bars are read off the filtration's full flag complex, which
carries its spanning forest and the triangle boundary columns that
stay nonzero under reduction (see ``complexes``). Each tree edge kills
a vertex class. Each such column kills the class born at its low, the
column's last edge in filtration order, and the column is that bar's
generator; a triangle whose column reduces to zero would only start a
dim-2 class, so the complex keeps none of those.
Each non-tree edge no column kills is born essential, with its
fundamental cycle as generator. Zero-persistence pairs are dropped
(exact equality, no tolerance). A birth and a death are compared, and
the bars sorted, by the weights' ranks in the complex, which order as
the weights do. The Betti numbers at a list of steps are the bars alive
at each, counted in one batch (``bars_alive_at``).
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter

from .complexes import FlagComplex2, flag_complex_at
from .graph import Filtration
from .minbasis import Cycle

__all__ = [
    "PersistencePair",
    "Barcode",
    "compute_persistence",
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


@dataclass(frozen=True)
class Barcode:
    pairs: tuple[PersistencePair, ...]
    # the full complex these bars reduce; the scaffolds slice steps from it
    complex: FlagComplex2 = field(repr=False, compare=False)

    def in_dim(self, dim: int) -> tuple[PersistencePair, ...]:
        return tuple(p for p in self.pairs if p.dim == dim)


def compute_persistence(f: Filtration) -> Barcode:
    """Barcode of the flag filtration (degrees 0 and 1), with its complex."""
    g = f.source
    cx = flag_complex_at(g, f.steps[-1])

    def cycle(mask: int) -> Cycle:
        ids = cx.ids_of_mask(mask)
        return Cycle(
            edges=ids, length_mu=sum((g.edges[e][2] for e in ids), Fraction(0))
        )

    # (key, bar) with key (dim, birth rank, death rank, generator edges)
    never = len(cx.weights)  # the rank of a death that never comes
    keyed: list[tuple[tuple, PersistencePair]] = []
    for p in range(cx.n_edges):
        if (cx.tree >> p) & 1 and cx.edge_weight(p) != 0:
            bar = PersistencePair(dim=0, birth=Fraction(0), death=cx.edge_weight(p))
            keyed.append(((0, 0, cx.edge_ranks[p], ()), bar))
    essential = PersistencePair(dim=0, birth=Fraction(0), death=None)
    keyed.extend(
        [((0, 0, never, ()), essential)] * (g.n_vertices - cx.tree.bit_count())
    )
    killed: set[int] = set()
    for r, col in cx.columns:
        p = col.bit_length() - 1  # its low
        killed.add(p)
        if cx.edge_ranks[p] != r:
            gen = cycle(col)
            bar = PersistencePair(
                dim=1, birth=cx.edge_weight(p), death=cx.weights[r], generator=gen
            )
            keyed.append(((1, cx.edge_ranks[p], r, gen.edges), bar))
    for p, mask in enumerate(cx.cycles):
        if mask and p not in killed:
            gen = cycle(mask)
            bar = PersistencePair(
                dim=1, birth=cx.edge_weight(p), death=None, generator=gen
            )
            keyed.append(((1, cx.edge_ranks[p], never, gen.edges), bar))

    keyed.sort(key=itemgetter(0))
    return Barcode(pairs=tuple(bar for _, bar in keyed), complex=cx)


def bars_alive_at(barcode: Barcode, steps: Sequence[Fraction], dim: int) -> list[int]:
    """Per eps in steps, the bars with birth <= eps < death (death None
    counts as infinite): those born by eps less those dead by eps."""
    bars = barcode.in_dim(dim)
    births = sorted(p.birth for p in bars)
    deaths = sorted(p.death for p in bars if p.death is not None)
    return [bisect_right(births, eps) - bisect_right(deaths, eps) for eps in steps]


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
