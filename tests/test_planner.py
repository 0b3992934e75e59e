from __future__ import annotations

import random
import re

import pytest

from zzpers import planner
from zzpers.dpc import Trajectories, filtration_at
from zzpers.errors import ContractViolation, Exhausted
from zzpers.filtration import ZigzagFiltration
from zzpers.fzz import barcode_from_scratch
from zzpers.planner import (ScriptOp, apply_to_filtration,
                            invert_script, random_filtration, random_script,
                            reduce_to_empty, script_from_text, script_to_text,
                            state_from_filtration, transform)
from zzpers.rep_updates import PersistenceState

from conftest import filtration, simplex


class TestReduceToEmpty:
    def test_triangle_script_empties(self, tri):
        script = reduce_to_empty(tri)
        sim = tri.copy()
        for sop in script:
            apply_to_filtration(sim, sop)
        assert sim.steps == []

    def test_updown_with_last_in_first_out_deletions_empties_by_ic_alone(self):
        # no lifetimes cross: each deletion meets its own addition
        f = filtration("+0", "+1", "+0.1", "-0.1", "-1", "-0")
        script = reduce_to_empty(f)
        assert [s.op for s in script] == ["ic"] * 3
        sim = f.copy()
        for sop in script:
            apply_to_filtration(sim, sop)
        assert sim.steps == []

    def test_one_pass_contracts_each_bar_as_its_deletion_arrives(self):
        # one ic per bar, one os per pair of crossing lifetimes, and nothing
        # else; the script is read off f, which it empties
        for f in _lifetime_filtrations():
            before = f.moves()
            script = reduce_to_empty(f)
            assert f.moves() == before
            ops = [s.op for s in script]
            assert set(ops) <= {"os", "ic"}
            assert ops.count("ic") == len(f.steps) // 2
            assert ops.count("os") == _crossing_lifetimes(f)
            sim = f.copy()
            for sop in script:
                apply_to_filtration(sim, sop)
            assert sim.steps == []

    def test_empty_script_for_empty(self):
        assert reduce_to_empty(ZigzagFiltration()) == []

    def test_certified_throughout(self, rng):
        for trial in range(8):
            f = random_filtration(rng, [0, 1, 2, 3], dim_cap=2,
                                  max_simplices=8, max_length=20)
            state = state_from_filtration(f)
            for sop in reduce_to_empty(f):
                from zzpers.rep_updates import apply_op
                apply_op(state, sop.op, sop.pos, sop.simplex)
                assert not state.check_certificate()
            assert state.filtration.steps == [] and not state.intervals


class TestTransform:
    def test_round_trip_same_filtration(self, tri):
        script = transform(tri, tri)
        sim = tri.copy()
        for sop in script:
            apply_to_filtration(sim, sop)
        assert sim.moves() == tri.moves()

    def test_reaches_target_exactly(self, rng):
        for trial in range(10):
            f1 = random_filtration(rng, [0, 1, 2, 3], dim_cap=2,
                                   max_simplices=8, max_length=18)
            f2 = random_filtration(rng, [0, 1, 2, 3], dim_cap=2,
                                   max_simplices=8, max_length=18)
            sim = f1.copy()
            for sop in transform(f1, f2):
                apply_to_filtration(sim, sop)
            assert sim.moves() == f2.moves()

    def test_to_empty_target(self, tri):
        script = transform(tri, ZigzagFiltration())
        assert [s.op for s in script] == [s.op for s in reduce_to_empty(tri)]


class TestInversion:
    def test_each_op_inverts(self, rng):
        for trial in range(10):
            f = random_filtration(rng, [0, 1, 2, 3], dim_cap=2,
                                  max_simplices=8, max_length=20)
            try:
                script = random_script(f, 8, seed=trial, max_length=30)
            except Exhausted:
                continue
            sim = f.copy()
            for sop in script:
                apply_to_filtration(sim, sop)
            for sop in invert_script(script):
                apply_to_filtration(sim, sop)
            assert sim.moves() == f.moves()

    def test_contraction_without_simplex_fails(self):
        with pytest.raises(ContractViolation):
            invert_script([ScriptOp("oc", 3)])


class TestRandomScript:
    def test_zero_ops(self, tri):
        assert random_script(tri, 0, seed=1) == []

    def test_all_ops_apply(self, tri):
        script = random_script(tri, 25, seed=7, max_length=20)
        sim = tri.copy()
        for sop in script:
            apply_to_filtration(sim, sop)
        assert len(script) == 25

    def test_seed_reproducibility(self, tri):
        a = random_script(tri, 15, seed=42, max_length=20)
        b = random_script(tri, 15, seed=42, max_length=20)
        assert a == b

    def test_exhausted_at_empty_without_budget(self):
        with pytest.raises(Exhausted):
            random_script(ZigzagFiltration(), 1, seed=0, max_length=0)


class TestScriptText:
    def test_round_trip(self):
        script = [ScriptOp("fs", 3), ScriptOp("oe", 2, simplex(0, 1)),
                  ScriptOp("oc", 4), ScriptOp("ie", 0, simplex(5))]
        text = script_to_text(script)
        parsed = script_from_text(text)
        assert [(s.op, s.pos, s.simplex) for s in parsed] == \
            [("fs", 3, None), ("oe", 2, simplex(0, 1)), ("oc", 4, None),
             ("ie", 0, simplex(5))]

    def test_text_form_of_each_op(self):
        assert ScriptOp("oe", 2, simplex(0, 1)).text() == "oe 2 0 1"
        assert ScriptOp("ic", 4, simplex(0)).text() == "ic 4"

    def test_parse_errors(self):
        with pytest.raises(ContractViolation, match="line 1"):
            script_from_text("zz 3\n")
        with pytest.raises(ContractViolation, match="needs a simplex"):
            script_from_text("oe 3\n")
        with pytest.raises(ContractViolation, match="takes no simplex"):
            script_from_text("fs 3 0 1\n")


class TestStateFromFiltration:
    def test_reproduces_moves_and_certifies(self, rng):
        for trial in range(6):
            f = random_filtration(rng, [0, 1, 2, 3], dim_cap=2,
                                  max_simplices=8, max_length=20)
            state = state_from_filtration(f)
            assert state.filtration.moves() == f.moves()
            assert not state.check_certificate()
            assert state.barcode() == barcode_from_scratch(f)

    def test_construction_switches_only_crossing_lifetimes(self, monkeypatch):
        # the construction script holds one ie per bar and one is per pair
        # of crossing lifetimes, counted here from the steps alone
        replayed, sops = [], []
        real = planner.apply_op

        def recording(state, op, pos, simplex=None):
            replayed.append(op)
            sops.append(ScriptOp(op, pos, simplex))
            return real(state, op, pos, simplex)

        monkeypatch.setattr(planner, "apply_op", recording)
        switched = 0
        for f in _lifetime_filtrations():
            replayed.clear()
            sops.clear()
            state = state_from_filtration(f)
            assert sops == invert_script(reduce_to_empty(f))
            assert set(replayed) <= {"ie", "is"}
            assert replayed.count("ie") == len(f.steps) // 2
            assert replayed.count("is") == _crossing_lifetimes(f)
            switched += replayed.count("is")
            assert not state.check_certificate()
            assert state.barcode() == barcode_from_scratch(f)
        assert switched > 1000

    def test_invalid_filtration_is_refused_with_validate_wording(self):
        f = filtration("+0", "+0.1", "-0.1", "-0")
        with pytest.raises(ContractViolation,
                           match=re.escape("invalid filtration: " + "; ".join(f.validate()))):
            state_from_filtration(f)


def _lifetime_filtrations():
    """200 random filtrations, then 9 band filtrations of three clouds."""
    filtrations = [random_filtration(random.Random(seed), list(range(5)), dim_cap=2,
                                     max_simplices=16, max_length=60)
                   for seed in range(200)]
    rng = random.Random(7)
    for _ in range(3):
        tr = Trajectories({p: [tuple(rng.uniform(0.0, 10.0) for _ in range(2))
                               for _ in range(4)] for p in range(5)})
        filtrations += [filtration_at(tr, delta) for delta in (2.0, 4.0, 6.0)]
    return filtrations


def _crossing_lifetimes(f):
    """Pairs of lifetimes a1 < a2 < d1 < d2, by step index."""
    born, lives = {}, []
    for i, step in enumerate(f.steps):
        if step.is_add:
            born[step.simplex] = i
        else:
            lives.append((born.pop(step.simplex), i))
    return sum(1 for a1, d1 in lives for a2, d2 in lives if a1 < a2 < d1 < d2)
