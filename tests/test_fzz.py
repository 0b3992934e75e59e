from __future__ import annotations

import random

import pytest

from zzpers.errors import Exhausted, IllegalTransposition, UnsupportedOnFzzPath
from zzpers.filtration import ZigzagFiltration
from zzpers.fzz import (CONE, COPY, OMEGA, FzzEngine, ReducedMatrix,
                        barcode_from_scratch, convert, map_intervals, reduce)
from zzpers.planner import random_filtration, random_script, state_from_filtration
from zzpers.rep_updates import apply_op

from conftest import filtration, simplex


class TestConvert:
    def test_triangle_cell_order(self, tri):
        delta = convert(tri)
        tags = [c.tag for c in delta.cells]
        assert tags == [OMEGA, COPY, COPY, COPY, CONE, CONE, CONE]
        names = [tuple(c.simplex) if c.simplex else None for c in delta.cells]
        # deletions 01, 1, 0 reversed: cones over 0, 1, 01
        assert names == [None, (0,), (1,), (0, 1), (0,), (1,), (0, 1)]

    def test_single_vertex(self):
        delta = convert(filtration("+0", "-0"))
        assert [c.tag for c in delta.cells] == [OMEGA, COPY, CONE]
        cone = delta.cells[2]
        assert set(cone.boundary) == {delta.cells[1].id, delta.cells[0].id}

    def test_readded_simplex_gets_two_copies(self):
        delta = convert(filtration("+0", "-0", "+0", "-0"))
        copies = [c for c in delta.cells if c.tag == COPY]
        assert len(copies) == 2 and len({c.id for c in copies}) == 2

    def test_phi_bijection(self, rng):
        for _ in range(15):
            f = random_filtration(rng, [0, 1, 2], dim_cap=2,
                                  max_simplices=7, max_length=18)
            if not f.steps:
                continue
            delta = convert(f)
            m = len(f.steps)
            assert sorted(delta.phi) == list(range(1, m + 1))
            for j, pos in enumerate(delta.phi):
                assert delta.phi_inv[pos] == j


class TestReduce:
    def test_triangle_pair_count(self, tri):
        delta = convert(tri)
        _, pairs = reduce(delta)
        assert len(pairs) == 3

    def test_single_pair(self):
        delta = convert(filtration("+0", "-0"))
        _, pairs = reduce(delta)
        assert pairs == [(1, 2)]

    def test_empty(self):
        assert barcode_from_scratch(ZigzagFiltration()) == []

    def test_only_cone_vertex_unpaired(self, rng):
        for _ in range(25):
            f = random_filtration(rng, [0, 1, 2, 3], dim_cap=2,
                                  max_simplices=9, max_length=22)
            if not f.steps:
                continue
            delta = convert(f)
            matrix, pairs = reduce(delta)
            assert matrix.unpaired() == [0]
            assert len(pairs) == len(f.steps) // 2


class TestMapIntervals:
    def test_triangle_end_to_end(self, tri):
        assert barcode_from_scratch(tri) == [(0, 1, 5), (0, 2, 2), (0, 4, 4)]

    def test_role_swap_branch(self, tri):
        # the bar [4,4] is created by a deletion: its creator index must come
        # from the destroyer side of the cell pairing
        delta = convert(tri)
        _, pairs = reduce(delta)
        bars = map_intervals(delta, pairs, tri.steps)
        assert (0, 4, 4) in bars
        swapped = [(q, k) for q, k in pairs
                   if delta.phi_inv[q] > delta.phi_inv[k]]
        assert swapped, "some pair must exercise the swapped branch"

    def test_deletion_created_bar_dimension(self):
        # deleting an edge of a filled square frees a 1-cycle: dim = 1 = 2-1
        f = filtration("+0", "+1", "+2", "+0.1", "+1.2", "+0.2", "+0.1.2",
                       "-0.1.2", "-0.1", "+0.1", "+0.1.2",
                       "-0.1.2", "-0.2", "-1.2", "-0.1", "-2", "-1", "-0")
        bars = barcode_from_scratch(f)
        assert (1, 8, 8) in bars


def _fresh_pairs_of_permuted(cols, order):
    posmap = {old: new for new, old in enumerate(order)}
    permuted = []
    for old in order:
        bits = 0
        rest = cols[old]
        while rest:
            low = rest & -rest
            bits |= 1 << posmap[low.bit_length() - 1]
            rest ^= low
        permuted.append(bits)
    return ReducedMatrix(permuted).pairs()


class TestTranspose:
    def test_matches_fresh_reduction(self, rng):
        for _ in range(25):
            f = random_filtration(rng, [0, 1, 2, 3], dim_cap=2,
                                  max_simplices=9, max_length=22)
            if len(f.steps) < 4:
                continue
            delta = convert(f)
            matrix, _ = reduce(delta)
            cols = list(matrix.D)
            order = list(range(len(cols)))
            for _hop in range(30):
                k = rng.randrange(1, len(cols) - 1)
                if (matrix.D[k + 1] >> k) & 1:
                    continue
                matrix.transpose(k)
                order[k], order[k + 1] = order[k + 1], order[k]
                assert matrix.pairs() == _fresh_pairs_of_permuted(cols, order)

    def test_face_coface_rejected(self, tri):
        delta = convert(tri)
        matrix, _ = reduce(delta)
        with pytest.raises(IllegalTransposition):
            matrix.transpose(2)  # the edge copy right after its vertex copy

    def test_disjoint_supports_keep_pairing(self):
        f = filtration("+0", "+1", "-1", "-0")
        delta = convert(f)
        matrix, _ = reduce(delta)
        before = {frozenset(p) for p in matrix.pairs()}
        matrix.transpose(1)  # the two vertex copies commute
        after = set()
        relabel = {1: 2, 2: 1}
        for q, k in matrix.pairs():
            after.add(frozenset((relabel.get(q, q), relabel.get(k, k))))
        assert before == after


class TestEngine:
    def test_agrees_with_rep_engine(self, rng):
        checked = 0
        for trial in range(15):
            f = random_filtration(rng, [0, 1, 2, 3], dim_cap=2,
                                  max_simplices=9, max_length=22)
            if not f.steps:
                continue
            state = state_from_filtration(f)
            engine = FzzEngine(f)
            try:
                script = random_script(f, 10, seed=trial, max_length=32)
            except Exhausted:
                continue
            for sop in script:
                apply_op(state, sop.op, sop.pos, sop.simplex)
                if sop.op in ("oe", "oc"):
                    with pytest.raises(UnsupportedOnFzzPath):
                        engine.apply(sop.op, sop.pos, sop.simplex)
                    engine = FzzEngine(state.filtration)
                else:
                    engine.apply(sop.op, sop.pos, sop.simplex)
                    checked += 1
                assert engine.barcode() == state.barcode()
        assert checked > 40

    def test_mixed_switch_is_constant_size(self):
        engine = FzzEngine(filtration("+0", "+1", "-0", "+0", "-1", "-0"))
        cells_before = [c.id for c in engine.delta.cells]
        engine.outward_switch(2)
        assert [c.id for c in engine.delta.cells] == cells_before

    def test_rejection_carries_position(self, tri):
        engine = FzzEngine(tri)
        with pytest.raises(UnsupportedOnFzzPath) as err:
            engine.outward_expansion(3, simplex(0))
        assert err.value.position == 3 and err.value.op == "oe"
        with pytest.raises(UnsupportedOnFzzPath) as err:
            engine.outward_contraction(3)
        assert err.value.position == 3 and err.value.op == "oc"

    def test_inward_expansion_transposition_budget(self, rng):
        for trial in range(10):
            f = random_filtration(rng, [0, 1, 2], dim_cap=1,
                                  max_simplices=6, max_length=16)
            if not f.steps:
                continue
            engine = FzzEngine(f)
            m = len(f.steps)
            cx = f.complex_at(m // 2)
            candidate = None
            for v in (0, 1, 2):
                if simplex(v) not in cx:
                    candidate = simplex(v)
                    break
            if candidate is None:
                continue
            res = engine.inward_expansion(m // 2, candidate)
            assert res.stats["transpositions"] <= 2 * (m + 2)
