"""Bitset linear algebra over Z2."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netscaffold.complexes import flag_complex_at
from netscaffold.graph import make_graph
from netscaffold.z2 import (
    Z2Matrix,
    bits_from_indices,
    boundary_matrix,
    column_reduce,
    low,
    rank,
)

from .conftest import SQRT2
from .oracles import gf2_rank_lowbit


def indices_from_bits(bits: int) -> list[int]:
    """Unpack a bitset column into ascending row indices."""
    out = []
    i = 0
    while bits:
        if bits & 1:
            out.append(i)
        bits >>= 1
        i += 1
    return out


class TestBits:
    def test_round_trip(self):
        assert indices_from_bits(bits_from_indices([0, 3, 5])) == [0, 3, 5]
        assert bits_from_indices([]) == 0

    def test_low_is_highest_set_bit(self):
        assert low(0) == -1
        assert low(1) == 0
        assert low(0b10110) == 4


class TestColumnReduce:
    def test_pivots_become_distinct(self):
        m = Z2Matrix(columns=[0b11, 0b11, 0b10], n_rows=2)
        reduced, _ = column_reduce(m)
        pivots = [low(c) for c in reduced.columns if c]
        assert len(pivots) == len(set(pivots))

    def test_ops_log_replays_to_reduced(self):
        cols = [0b1011, 0b1110, 0b0111, 0b1000]
        m = Z2Matrix(columns=list(cols), n_rows=4)
        reduced, ops = column_reduce(m)
        replay = list(cols)
        for src, dst in ops:
            replay[dst] ^= replay[src]
        assert replay == reduced.columns

    def test_input_not_mutated(self):
        m = Z2Matrix(columns=[0b11, 0b11], n_rows=2)
        column_reduce(m)
        assert m.columns == [0b11, 0b11]


class TestRank:
    def test_known_values(self):
        assert rank(Z2Matrix(columns=[], n_rows=3)) == 0
        assert rank(Z2Matrix(columns=[0b01, 0b10, 0b11], n_rows=2)) == 2

    @given(st.lists(st.integers(min_value=0, max_value=2**12 - 1), max_size=16))
    @settings(max_examples=80, deadline=None)
    def test_matches_lowbit_elimination(self, cols):
        assert rank(Z2Matrix(columns=cols, n_rows=12)) == gf2_rank_lowbit(cols)

    @given(
        st.lists(st.integers(min_value=0, max_value=2**10 - 1), max_size=12),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_column_shuffle(self, cols, rnd):
        shuffled = list(cols)
        rnd.shuffle(shuffled)
        assert rank(Z2Matrix(cols, 10)) == rank(Z2Matrix(shuffled, 10))


class TestBoundaryMatrices:
    def test_edge_columns_have_two_bits(self, unit_square):
        cx = flag_complex_at(unit_square, SQRT2)
        d1 = boundary_matrix(cx, 1)
        assert d1.n_rows == 4
        assert all(c.bit_count() == 2 for c in d1.columns)

    def test_triangle_columns_have_three_bits(self, unit_square):
        cx = flag_complex_at(unit_square, SQRT2)
        d2 = boundary_matrix(cx, 2)
        assert d2.n_rows == cx.n_edges
        assert all(c.bit_count() == 3 for c in d2.columns)

    def test_composition_vanishes(self, unit_square):
        cx = flag_complex_at(unit_square, SQRT2)
        d1 = boundary_matrix(cx, 1)
        d2 = boundary_matrix(cx, 2)
        for tri_col in d2.columns:
            acc = 0
            for p in indices_from_bits(tri_col):
                acc ^= d1.columns[p]
            assert acc == 0

    def test_bad_degree(self, unit_square):
        cx = flag_complex_at(unit_square, Fraction(1))
        with pytest.raises(ValueError):
            boundary_matrix(cx, 3)


@given(
    st.integers(min_value=2, max_value=7),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_d1_d2_composition_on_random_flags(n, data):
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = data.draw(
        st.lists(st.sampled_from(possible), unique=True, min_size=1, max_size=len(possible))
    )
    g = make_graph(n, [(u, v, 1) for u, v in chosen])
    cx = flag_complex_at(g, Fraction(1))
    d1 = boundary_matrix(cx, 1)
    d2 = boundary_matrix(cx, 2)
    for tri_col in d2.columns:
        acc = 0
        for p in indices_from_bits(tri_col):
            acc ^= d1.columns[p]
        assert acc == 0
