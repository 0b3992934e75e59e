from __future__ import annotations

import random

import pytest

from zzpers.dpc import Trajectories, detect_events, filtration_at, group_events
from zzpers.errors import (ContractViolation, Exhausted, IllegalTransposition,
                           UnsupportedOnFzzPath)
from zzpers.filtration import ADD, DELETE, Step, ZigzagFiltration
from zzpers.fzz import (FzzEngine, ReducedMatrix, barcode_from_scratch, convert,
                        map_intervals, reduce)
from zzpers.planner import (apply_to_filtration, legal_ops_at, random_filtration,
                            random_script, state_from_filtration)
from zzpers.rep_updates import apply_op

from conftest import filtration, simplex
from test_filtration import CORRUPTIONS, POOL, corrupt


class TestConvert:
    def test_triangle_cell_order(self, tri):
        columns, phi, _ = convert(tri)
        # the apex, copies of 0, 1, 01, then deletions 01, 1, 0 reversed:
        # cones over 0 (meeting the apex), 1 and 01
        assert columns == [0, 0, 0, 0b110, 0b11, 0b101, 0b111000]
        assert phi == [1, 2, 3, 6, 5, 4]

    def test_single_vertex(self):
        columns, phi, phi_inv = convert(filtration("+0", "-0"))
        assert columns == [0, 0, 0b11]  # the cone meets the copy and the apex
        assert (phi, phi_inv) == ([1, 2], [None, 0, 1])

    def test_readded_simplex_gets_two_copies(self):
        columns, phi, _ = convert(filtration("+0", "-0", "+0", "-0"))
        assert (phi[0], phi[2]) == (1, 2) and columns[1] == columns[2] == 0
        assert columns[3:] == [0b101, 0b11]  # the later copy is coned first

    def test_phi_bijection(self, rng):
        for _ in range(15):
            f = random_filtration(rng, [0, 1, 2], dim_cap=2,
                                  max_simplices=7, max_length=18)
            if not f.steps:
                continue
            _, phi, phi_inv = convert(f)
            m = len(f.steps)
            assert sorted(phi) == list(range(1, m + 1))
            for j, pos in enumerate(phi):
                assert phi_inv[pos] == j


class TestReduce:
    def test_triangle_pair_count(self, tri):
        _, pairs = reduce(convert(tri)[0])
        assert len(pairs) == 3

    def test_single_pair(self):
        _, pairs = reduce(convert(filtration("+0", "-0"))[0])
        assert pairs == [(1, 2)]

    def test_empty(self):
        assert barcode_from_scratch(ZigzagFiltration()) == []

    def test_only_cone_vertex_unpaired(self, rng):
        for _ in range(25):
            f = random_filtration(rng, [0, 1, 2, 3], dim_cap=2,
                                  max_simplices=9, max_length=22)
            if not f.steps:
                continue
            matrix, pairs = reduce(convert(f)[0])
            assert matrix.unpaired() == [0]
            assert len(pairs) == len(f.steps) // 2


class TestMapIntervals:
    def test_triangle_end_to_end(self, tri):
        assert barcode_from_scratch(tri) == [(0, 1, 5), (0, 2, 2), (0, 4, 4)]

    def test_role_swap_branch(self, tri):
        # the bar [4,4] is created by a deletion: its creator index must come
        # from the destroyer side of the cell pairing
        columns, _, phi_inv = convert(tri)
        _, pairs = reduce(columns)
        bars = map_intervals(pairs, phi_inv, tri.steps)
        assert (0, 4, 4) in bars
        swapped = [(q, k) for q, k in pairs
                   if phi_inv[q] > phi_inv[k]]
        assert swapped, "some pair must exercise the swapped branch"

    def test_deletion_created_bar_dimension(self):
        # deleting an edge of a filled square frees a 1-cycle: dim = 1 = 2-1
        f = filtration("+0", "+1", "+2", "+0.1", "+1.2", "+0.2", "+0.1.2",
                       "-0.1.2", "-0.1", "+0.1", "+0.1.2",
                       "-0.1.2", "-0.2", "-1.2", "-0.1", "-2", "-1", "-0")
        bars = barcode_from_scratch(f)
        assert (1, 8, 8) in bars



def _cell_pipeline(f):
    """convert -> reduce -> map_intervals: the engine's path to the barcode."""
    columns, _, phi_inv = convert(f)
    return map_intervals(reduce(columns)[1], phi_inv, f.steps)


class TestOracle:
    """barcode_from_scratch builds its own columns and reduces with
    clearing; the cell pipeline is its reference."""

    def test_matches_the_cell_pipeline_on_random_filtrations(self):
        rng = random.Random(31)
        for _ in range(300):
            f = random_filtration(rng, list(range(rng.randint(1, 7))),
                                  dim_cap=rng.choice((1, 2, 3)),
                                  max_simplices=rng.randint(1, 40),
                                  max_length=rng.choice((10, 40, 120)))
            want = _cell_pipeline(f)
            assert barcode_from_scratch(f) == want
            assert barcode_from_scratch(f, validate=False) == want

    def test_matches_the_cell_pipeline_on_every_band_of_a_cloud(self):
        rng = random.Random(7)
        tr = Trajectories({p: [tuple(rng.uniform(0.0, 10.0) for _ in range(2))
                               for _ in range(10)] for p in range(7)})
        events, _ = detect_events(tr, 2)
        _, evals = group_events(events)
        assert len(evals) > 500
        for delta in evals:
            f = filtration_at(tr, delta, 2)
            assert barcode_from_scratch(f) == _cell_pipeline(f)

    @pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
    def test_an_invalid_filtration_gets_validates_words(self, kind):
        rng = random.Random(kind)
        corrupted = 0
        for _ in range(60):
            f = random_filtration(rng, POOL, dim_cap=2, max_simplices=10, max_length=24)
            bad = corrupt(f, kind, rng)
            if bad is f:
                continue
            corrupted += 1
            with pytest.raises(ContractViolation) as err:
                barcode_from_scratch(bad)
            assert str(err.value) == "invalid filtration: " + "; ".join(bad.validate())
        assert corrupted >= 20

    def test_a_delete_under_a_coface_is_caught_where_it_happens(self):
        # no later step goes wrong: the end is empty and every delete finds
        # its simplex
        bad = filtration("+0", "+1", "+0.1", "-0", "-0.1", "-1")
        with pytest.raises(ContractViolation) as err:
            barcode_from_scratch(bad)
        assert str(err.value) == "invalid filtration: step 3: delete of 0 has cofaces"
        # the columns need this check, so it holds without validation too
        with pytest.raises(ContractViolation) as err:
            barcode_from_scratch(bad, validate=False)
        assert str(err.value) == "invalid filtration: step 3: delete of 0 has cofaces"

    @pytest.mark.parametrize("validate", [True, False])
    def test_a_missing_face_and_a_duplicate_id_get_one_message(self, validate):
        # the fault found first differs with validate; the words do not
        bad = ZigzagFiltration([Step(0, ADD, simplex(0)), Step(1, ADD, simplex(0, 1)),
                                Step(2, DELETE, simplex(0, 1)), Step(0, DELETE, simplex(0))])
        with pytest.raises(ContractViolation) as err:
            barcode_from_scratch(bad, validate=validate)
        assert str(err.value) == ("invalid filtration: step 1: add of 0 1 missing faces; "
                                  "step 3: duplicate step id 0")

    def test_a_lone_duplicate_id_passes_without_validation(self):
        dup = ZigzagFiltration([Step(0, ADD, simplex(0)), Step(1, ADD, simplex(1)),
                                Step(1, DELETE, simplex(1)), Step(2, DELETE, simplex(0))])
        with pytest.raises(ContractViolation):
            barcode_from_scratch(dup)
        want = barcode_from_scratch(filtration("+0", "+1", "-1", "-0"))
        assert barcode_from_scratch(dup, validate=False) == want == [(0, 1, 3), (0, 2, 2)]


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


def _reference_transpose(D, R, V, low_inv, k):
    """The transposition with a full-matrix row swap and low_inv rebuilt
    per touched column, on plain lists: the reference for
    ReducedMatrix.transpose."""
    low = ReducedMatrix._low
    i, j = k, k + 1
    if (V[j] >> i) & 1:
        V[j] ^= V[i]
        R[j] ^= R[i]
    touched = {i, j} | {low_inv[r] for r in (i, j) if r in low_inv}
    for mat in (D, R, V):
        mat[i], mat[j] = mat[j], mat[i]
        for c, col in enumerate(mat):
            if ((col >> i) ^ (col >> j)) & 1:
                mat[c] = col ^ (1 << i) ^ (1 << j)
    low_inv = {r: c for r, c in low_inv.items() if c not in touched}
    for c in sorted(touched):
        while R[c]:
            r = low(R[c])
            other = low_inv.get(r)
            if other is None:
                low_inv[r] = c
                break
            if other > c:
                low_inv[r] = c
                R[other] ^= R[c]
                V[other] ^= V[c]
                c = other
                continue
            R[c] ^= R[other]
            V[c] ^= V[other]
    return low_inv


def _invariant_violations(matrix):
    """R = D*V over Z2, V unit upper triangular, low_inv = the lows of the
    nonzero columns, lows pairwise distinct."""
    bad = []
    for c, v in enumerate(matrix.V):
        if v >> c != 1:
            bad.append(f"V[{c}] not unit upper triangular")
        product, rest = 0, v
        while rest:
            bit = rest & -rest
            product ^= matrix.D[bit.bit_length() - 1]
            rest ^= bit
        if product != matrix.R[c]:
            bad.append(f"R[{c}] != D*V[{c}]")
    lows = [(matrix.low(c), c) for c, col in enumerate(matrix.R) if col]
    if len({r for r, _ in lows}) != len(lows):
        bad.append("repeated lows")
    if matrix.low_inv != dict(lows):
        bad.append("low_inv disagrees with the lows")
    return bad


class TestTranspose:
    def test_matches_fresh_reduction(self, rng):
        for _ in range(25):
            f = random_filtration(rng, [0, 1, 2, 3], dim_cap=2,
                                  max_simplices=9, max_length=22)
            if len(f.steps) < 4:
                continue
            matrix, _ = reduce(convert(f)[0])
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
        matrix, _ = reduce(convert(tri)[0])
        with pytest.raises(IllegalTransposition):
            matrix.transpose(2)  # the edge copy right after its vertex copy

    def test_disjoint_supports_keep_pairing(self):
        f = filtration("+0", "+1", "-1", "-0")
        matrix, _ = reduce(convert(f)[0])
        before = {frozenset(p) for p in matrix.pairs()}
        matrix.transpose(1)  # the two vertex copies commute
        after = set()
        relabel = {1: 2, 2: 1}
        for q, k in matrix.pairs():
            after.add(frozenset((relabel.get(q, q), relabel.get(k, k))))
        assert before == after

    def test_invariants_after_every_transpose(self, rng):
        checked = 0
        for _ in range(30):
            f = random_filtration(rng, [0, 1, 2, 3, 4], dim_cap=2,
                                  max_simplices=14, max_length=40)
            if len(f.steps) < 4:
                continue
            matrix, _ = reduce(convert(f)[0])
            for _hop in range(40):
                k = rng.randrange(1, len(matrix) - 1)
                if (matrix.D[k + 1] >> k) & 1:
                    continue
                matrix.transpose(k)
                assert _invariant_violations(matrix) == []
                checked += 1
        assert checked > 500

    def test_composed_transposes_equal_the_reference(self, rng):
        # a cell walked from src to dst one adjacent transpose at a time;
        # a walk stops at the first refused transpose, which changes nothing
        legal = illegal = 0
        for _ in range(30):
            f = random_filtration(rng, [0, 1, 2, 3, 4], dim_cap=2,
                                  max_simplices=14, max_length=40)
            if len(f.steps) < 6:
                continue
            matrix, _ = reduce(convert(f)[0])
            D, R, V = list(matrix.D), list(matrix.R), list(matrix.V)
            low_inv = dict(matrix.low_inv)
            for _hop in range(15):
                src, dst = rng.sample(range(1, len(matrix)), 2)
                step = 1 if dst > src else -1
                for p in range(src, dst, step):
                    k = min(p, p + step)
                    if (D[k + 1] >> k) & 1:
                        with pytest.raises(IllegalTransposition):
                            matrix.transpose(k)
                        assert (matrix.D, matrix.R, matrix.V) == (D, R, V)
                        assert matrix.low_inv == low_inv
                        illegal += 1
                        break
                    matrix.transpose(k)
                    low_inv = _reference_transpose(D, R, V, low_inv, k)
                    assert (matrix.D, matrix.R, matrix.V) == (D, R, V)
                    assert matrix.low_inv == low_inv
                    legal += 1
                assert _invariant_violations(matrix) == []
        assert legal > 500 and illegal > 50

    def test_long_inward_round_trip(self, rng):
        # how far before the end a cell went in or came out, read from phi
        # before each op: the copy of an expansion at i follows the
        # additions before i, whose copies are the positions 1..m/2
        farthest = 0
        for _ in range(8):
            f = random_filtration(rng, list(range(8)), dim_cap=2,
                                  max_simplices=60, max_length=300)
            if len(f.steps) < 100:
                continue
            engine = FzzEngine(f)
            before = engine.barcode()
            for i in (1, 2, len(f.steps) // 2):
                cx = f.complex_at(i)
                sigma = next(s for s in [simplex(a, b) for a in range(8)
                                         for b in range(a + 1, 8)] + [simplex(9)]
                             if cx.can_add(s))
                phi = engine.phi
                copy_at = 1 + sum(q <= len(phi) // 2 for q in phi[:i])
                farthest = max(farthest, len(engine.matrix) - copy_at)
                engine.apply("ie", i, sigma)
                assert engine.phi[i] == copy_at
                assert _invariant_violations(engine.matrix) == []
                assert engine.barcode() == barcode_from_scratch(engine.filtration)
                farthest = max(farthest, len(engine.matrix) - 1 - engine.phi[i])
                engine.apply("ic", i + 1)
                assert _invariant_violations(engine.matrix) == []
                assert engine.filtration.moves() == f.moves()
                assert engine.barcode() == before == barcode_from_scratch(f)
        assert farthest > 100


class TestInsertRemove:
    """ReducedMatrix.insert and remove against a fresh reduction, at every
    legal ie site and every ic site of seeded filtrations.  The pairing of
    a reduction is unique, so it must equal the fresh one's."""

    @staticmethod
    def _insert(matrix, columns, cells):
        for p in cells:  # the copy, then the cone
            matrix.insert(p, columns[p])
            assert _invariant_violations(matrix) == []

    @staticmethod
    def _remove(matrix, cells):
        for p in reversed(cells):  # the cone, a face of no cell, first
            matrix.remove(p)
            assert _invariant_violations(matrix) == []

    def test_agrees_with_a_fresh_reduction_at_every_site(self):
        rng = random.Random(30)
        sites = {"ie": 0, "ic": 0}
        for _ in range(60):
            f = random_filtration(rng, POOL, dim_cap=2, max_simplices=10, max_length=24)
            for pos in range(len(f.steps) + 1):
                for sop in legal_ops_at(f, pos, POOL, 2, True):
                    if sop.op not in sites:
                        continue
                    sites[sop.op] += 1
                    edited = f.copy()
                    apply_to_filtration(edited, sop)
                    # the filtration with the two cells, and the one without
                    big, small = (edited, f) if sop.op == "ie" else (f, edited)
                    big_columns, phi, _ = convert(big)
                    small_columns = convert(small)[0]
                    i = pos if sop.op == "ie" else pos - 1
                    cells = (phi[i], phi[i + 1])
                    if sop.op == "ie":
                        matrix, _ = reduce(small_columns)
                        self._insert(matrix, big_columns, cells)
                        assert matrix.D == big_columns
                        assert matrix.pairs() == reduce(big_columns)[1]
                        self._remove(matrix, cells)
                    else:
                        matrix, _ = reduce(big_columns)
                        self._remove(matrix, cells)
                        assert matrix.D == small_columns
                        assert matrix.pairs() == reduce(small_columns)[1]
                        self._insert(matrix, big_columns, cells)
                    # the round trip restores the columns and the pairing
                    start = small_columns if sop.op == "ie" else big_columns
                    assert matrix.D == start
                    assert matrix.pairs() == reduce(start)[1]
        assert sites["ie"] > 2000 and sites["ic"] > 40

    def test_refusals_change_nothing(self, tri):
        matrix, _ = reduce(convert(tri)[0])
        before = (list(matrix.D), list(matrix.R), list(matrix.V), dict(matrix.low_inv))
        with pytest.raises(ContractViolation, match="cannot have cell 4 as a face"):
            matrix.insert(4, 0b10010)  # a boundary row at the new cell's place
        with pytest.raises(ContractViolation, match="cell 1 is a face of cell 3"):
            matrix.remove(1)  # vertex 0's copy, a face of the edge's copy
        assert (matrix.D, matrix.R, matrix.V, matrix.low_inv) == before


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

    def test_matrix_and_phi_match_a_fresh_conversion_after_every_op(self):
        rng = random.Random(10)
        runs = edits = 0
        for trial in range(80):
            f = random_filtration(rng, [0, 1, 2, 3], dim_cap=2,
                                  max_simplices=9, max_length=22)
            try:
                script = random_script(f, 6, seed=trial, max_length=30)
            except Exhausted:
                continue
            engine = FzzEngine(f)
            for sop in script:
                if sop.op in ("oe", "oc"):  # not on the FZZ path: start over after it
                    after = engine.filtration.copy()
                    apply_to_filtration(after, sop)
                    engine = FzzEngine(after)
                    continue
                assert engine.apply(sop.op, sop.pos, sop.simplex).vines == {}
                edits += sop.op in ("ie", "ic")
                columns, phi, phi_inv = convert(engine.filtration)
                assert engine.matrix.D == columns
                assert (engine.phi, engine.phi_inv) == (phi, phi_inv)
                # barcode() reads only the pivot map, so it must stay exact
                assert _invariant_violations(engine.matrix) == []
                bars = engine.barcode()
                assert bars == map_intervals(engine.matrix.pairs(), engine.phi_inv,
                                             engine.filtration.steps)
                assert bars == barcode_from_scratch(engine.filtration)
            runs += 1
        assert runs >= 30 and edits >= 30

    def test_mixed_switch_is_constant_size(self):
        engine = FzzEngine(filtration("+0", "+1", "-0", "+0", "-1", "-0"))
        m = engine.matrix
        before = (list(m.D), list(m.R), list(m.V), dict(m.low_inv))
        phi = list(engine.phi)
        engine.apply("os", 2)
        assert (m.D, m.R, m.V, m.low_inv) == before
        phi[1], phi[2] = phi[2], phi[1]
        assert engine.phi == phi

    def test_vertex_expansion_meets_the_apex(self):
        engine = FzzEngine(filtration())
        assert engine.apply("ie", 0, simplex(0)).vines == {}
        # cell 0 is the apex, 1 the vertex's copy, 2 its cone
        assert engine.matrix.D == [0, 0, 0b11]
        assert engine.barcode() == barcode_from_scratch(engine.filtration)

    def test_expansion_cones_only_a_face_s_next_deletion(self):
        # vertex 1 is deleted at 2, re-added and deleted again at 4; with the
        # edge in at 2, its faces' next deletions are steps 4 and 7, not 6
        engine = FzzEngine(filtration("+0", "+1", "-1", "+1", "-1", "-0"))
        engine.apply("ie", 2, simplex(0, 1))
        phi, D = engine.phi, engine.matrix.D
        assert D[phi[2]] == 1 << phi[0] | 1 << phi[1]
        assert D[phi[3]] == 1 << phi[2] | 1 << phi[4] | 1 << phi[7]
        columns, converted_phi, _ = convert(engine.filtration)
        assert D == columns and phi == converted_phi
        assert engine.barcode() == barcode_from_scratch(engine.filtration)

    def test_contraction_drops_the_bar_and_reports_no_vines(self, tri):
        engine = FzzEngine(tri)
        assert len(engine.barcode()) == 3
        res = engine.apply("ic", 3)
        assert res.vines == {} and res.op == "ic"
        assert len(engine.matrix) == len(engine.filtration.steps) + 1  # apex + one per step
        assert engine.barcode() == barcode_from_scratch(engine.filtration)
        assert len(engine.barcode()) == 2
        columns, phi, phi_inv = convert(engine.filtration)
        assert engine.matrix.D == columns
        assert (engine.phi, engine.phi_inv) == (phi, phi_inv)

    def test_rejection_carries_position(self, tri):
        engine = FzzEngine(tri)
        with pytest.raises(UnsupportedOnFzzPath) as err:
            engine.apply("oe", 3, simplex(0))
        assert err.value.position == 3 and err.value.op == "oe"
        with pytest.raises(UnsupportedOnFzzPath) as err:
            engine.apply("oc", 3)
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
            res = engine.apply("ie", m // 2, candidate)
            assert res.stats["transpositions"] <= 2 * (m + 2)
