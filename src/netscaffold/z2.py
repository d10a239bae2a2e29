"""Linear algebra over Z2 with columns stored as Python int bitsets.

Bit i of a column int is the row-i entry; addition is XOR and the pivot
of a column is its highest set bit. Arbitrary-precision ints make every
operation exact and keep sparse boundary matrices cheap at the scales
this package targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .complexes import FlagComplex2

__all__ = [
    "bits_from_indices",
    "low",
    "Z2Matrix",
    "boundary_matrix",
    "column_reduce",
    "rank",
]


def bits_from_indices(indices: Iterable[int]) -> int:
    """Pack row indices into a bitset column."""
    bits = 0
    for i in indices:
        bits |= 1 << i
    return bits


def low(bits: int) -> int:
    """Pivot row of a column: the largest set bit, or -1 for zero."""
    return bits.bit_length() - 1


@dataclass
class Z2Matrix:
    """Column-major Z2 matrix; columns[j] is a bitset over n_rows rows."""

    columns: list[int]
    n_rows: int

    @property
    def n_cols(self) -> int:
        return len(self.columns)

    def copy(self) -> "Z2Matrix":
        return Z2Matrix(columns=list(self.columns), n_rows=self.n_rows)


def boundary_matrix(cx: FlagComplex2, k: int) -> Z2Matrix:
    """Boundary operator of the complex in degree k (1 or 2).

    k=1: rows are vertices, one column per edge. k=2: rows are edge
    positions in the complex, one column per triangle.
    """
    if k == 1:
        cols = [
            bits_from_indices(cx.edge_vertices(p)) for p in range(cx.n_edges)
        ]
        return Z2Matrix(columns=cols, n_rows=cx.n_vertices)
    if k == 2:
        cols = []
        for (u, v, w) in cx.triangles:
            cols.append(
                bits_from_indices(
                    (
                        cx.edge_position(u, v),
                        cx.edge_position(u, w),
                        cx.edge_position(v, w),
                    )
                )
            )
        return Z2Matrix(columns=cols, n_rows=cx.n_edges)
    raise ValueError(f"boundary degree must be 1 or 2, got {k}")


def column_reduce(m: Z2Matrix) -> tuple[Z2Matrix, list[tuple[int, int]]]:
    """Left-to-right column reduction.

    Repeatedly adds an earlier column into a later one whenever both
    share the same pivot row, until pivots are distinct. Returns the
    reduced matrix and the log of (source, target) column additions,
    in the order they were applied.
    """
    cols = list(m.columns)
    ops: list[tuple[int, int]] = []
    pivot_owner: dict[int, int] = {}
    for j in range(len(cols)):
        while cols[j]:
            piv = low(cols[j])
            owner = pivot_owner.get(piv)
            if owner is None:
                pivot_owner[piv] = j
                break
            cols[j] ^= cols[owner]
            ops.append((owner, j))
    return Z2Matrix(columns=cols, n_rows=m.n_rows), ops


def rank(m: Z2Matrix) -> int:
    """Z2 rank: nonzero columns after reduction."""
    reduced, _ = column_reduce(m)
    return sum(1 for c in reduced.columns if c)
