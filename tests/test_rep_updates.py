from __future__ import annotations

import copy
import hashlib
import random
from collections import Counter
from itertools import combinations

import pytest

from zzpers import rep_updates, reps
from zzpers.chains import Simplex
from zzpers.errors import (ContractViolation, Exhausted, IllegalContraction,
                           IllegalExpansion, IllegalSwitch)
from zzpers.filtration import ZigzagFiltration
from zzpers.fzz import FzzEngine, barcode_from_scratch
from zzpers.ops import OPS, check, violation
from zzpers.planner import (ScriptOp, apply_to_filtration, legal_ops_at, random_filtration,
                            random_script, state_from_filtration)
from zzpers.rep_updates import BoundaryReduction, apply_op
from zzpers.results import CREATED, DESTROYED

from conftest import filtration, simplex


def certified(state):
    errs = state.check_certificate()
    assert not errs, errs
    assert state.barcode() == barcode_from_scratch(state.filtration)


class TestForwardSwitch:
    def test_triangle_switch_preserves_barcode(self, tri):
        state = state_from_filtration(tri)
        before = state.barcode()
        apply_op(state, "fs", 1)
        certified(state)
        assert state.barcode() == before == [(0, 1, 5), (0, 2, 2), (0, 4, 4)]

    def test_face_order_protected(self, tri):
        state = state_from_filtration(tri)
        with pytest.raises(IllegalSwitch):
            apply_op(state, "fs", 2)  # the edge may not precede its vertex

    def test_case_d_repairs_neighbours(self):
        # step 2 ends a bar at 2, step 3 starts one at 4; switching the two
        # additions must keep a certified pairing
        f = filtration("+0", "+1", "+0.1", "+2", "-2", "-0.1", "-1", "-0")
        state = state_from_filtration(f)
        assert state.barcode() == [(0, 1, 7), (0, 2, 2), (0, 4, 4), (0, 6, 6)]
        apply_op(state, "fs", 3)
        certified(state)

    def test_all_four_cases_hit(self, rng):
        seen = set()
        for trial in range(40):
            f = random_filtration(rng, [0, 1, 2, 3], dim_cap=2,
                                  max_simplices=8, max_length=20)
            base = state_from_filtration(f)
            for i in range(1, len(f.steps)):
                a, b = f.steps[i - 1], f.steps[i]
                if not (a.is_add and b.is_add) or set(a.simplex) <= set(b.simplex):
                    continue
                case = (base.births[i] is not None, base.births[i + 1] is not None)
                state = state_from_filtration(f)
                apply_op(state, "fs", i)
                certified(state)
                seen.add(case)
            if len(seen) == 4:
                break
        assert seen == {(True, True), (True, False), (False, True), (False, False)}


class TestBackwardSwitch:
    def test_mirrors_forward(self, tri):
        state = state_from_filtration(tri)
        before = state.barcode()
        apply_op(state, "bs", 5)  # -1,-0 commute
        certified(state)
        assert state.barcode() == before

    def test_face_order_protected(self, tri):
        state = state_from_filtration(tri)
        with pytest.raises(IllegalSwitch):
            apply_op(state, "bs", 4)  # vertex 1 may not go before its edge


class TestMixedSwitches:
    def test_outward_requires_distinct(self):
        f = filtration("+0", "-0")
        state = state_from_filtration(f)
        with pytest.raises(IllegalSwitch):
            apply_op(state, "os", 1)

    def test_point_bar_drops_dimension(self):
        # the 1-cycle lives only between +0.2 and -0.1: an outward switch
        # there turns the bar [6,6] into a 0-dimensional one
        f = filtration("+0", "+1", "+2", "+0.1", "+1.2", "+0.2",
                       "-0.1", "-0.2", "-1.2", "-2", "-1", "-0")
        state = state_from_filtration(f)
        assert (1, 6, 6) in state.barcode()
        apply_op(state, "os", 6)
        certified(state)
        assert (1, 6, 6) not in state.barcode()
        assert (0, 6, 6) in state.barcode()

    def test_inward_switch_rewires_neighbours(self):
        f = filtration("+0", "+1", "-1", "+2", "-2", "-0")
        state = state_from_filtration(f)
        assert state.barcode() == [(0, 1, 5), (0, 2, 2), (0, 4, 4)]
        apply_op(state, "is", 3)
        certified(state)
        assert state.barcode() == [(0, 1, 5), (0, 2, 3), (0, 3, 4)]


class TestOutwardExpansion:
    def test_injective_example(self):
        f = filtration("+0", "+1", "-1", "-0")
        state = state_from_filtration(f)
        res = apply_op(state, "oe", 2, simplex(0))
        certified(state)
        target = filtration("+0", "+1", "-0", "+0", "-1", "-0")
        assert state.filtration.moves() == target.moves()
        assert state.barcode() == barcode_from_scratch(target)
        assert res.stats["injective"] == 1

    def test_surjective_creates_boundary_bar(self):
        f = filtration("+0", "+1", "+2", "+0.1", "+1.2", "+0.2", "+0.1.2",
                       "-0.1.2", "-0.2", "-1.2", "-0.1", "-2", "-1", "-0")
        state = state_from_filtration(f)
        res = apply_op(state, "oe", 7, simplex(0, 1, 2))
        certified(state)
        assert res.stats["injective"] == 0
        assert (1, 8, 8) in state.barcode()

    def test_rejects_missing_or_covered(self, tri):
        state = state_from_filtration(tri)
        with pytest.raises(IllegalExpansion):
            apply_op(state, "oe", 3, simplex(2))
        with pytest.raises(IllegalExpansion):
            apply_op(state, "oe", 3, simplex(0))  # the edge covers it


class TestOutwardContraction:
    def test_inverse_of_expansion(self):
        f = filtration("+0", "+1", "-0", "+0", "-1", "-0")
        state = state_from_filtration(f)
        apply_op(state, "oc", 3)
        certified(state)
        assert state.filtration.moves() == filtration("+0", "+1", "-1", "-0").moves()

    def test_surjective_removes_point_bar(self):
        f = filtration("+0", "+1", "-1", "+1", "-1", "-0")
        state = state_from_filtration(f)
        before = len(state.intervals)
        res = apply_op(state, "oc", 3)
        certified(state)
        assert len(state.intervals) == before - 1
        assert [k for k, v in res.vines.items() if v == DESTROYED]

    def test_rejects_mismatched_pair(self, tri):
        state = state_from_filtration(tri)
        with pytest.raises(IllegalContraction):
            apply_op(state, "oc", 2)


class TestInwardExpansionContraction:
    def test_expansion_example(self, tri):
        f = filtration("+0", "+1", "-1", "-0")
        state = state_from_filtration(f)
        res = apply_op(state, "ie", 2, simplex(0, 1))
        certified(state)
        assert state.filtration.moves() == tri.moves()
        assert state.barcode() == [(0, 1, 5), (0, 2, 2), (0, 4, 4)]
        assert res.stats["injective"] == 0  # the edge boundary was no boundary

    def test_injective_adds_point_bar(self, rng):
        # fill the last face of a tetrahedron shell: its boundary bounds
        adds = ["+0", "+1", "+2", "+3", "+0.1", "+0.2", "+0.3", "+1.2",
                "+1.3", "+2.3", "+0.1.3", "+0.2.3", "+1.2.3"]
        dels = ["-" + a[1:] for a in reversed(adds)]
        f = filtration(*(adds + dels))
        state = state_from_filtration(f)
        res = apply_op(state, "ie", 13, simplex(0, 1, 2))
        certified(state)
        assert res.stats["injective"] == 1
        assert (2, 14, 14) in state.barcode()

    def test_contraction_of_triangle_edge(self, tri):
        state = state_from_filtration(tri)
        apply_op(state, "ic", 3)
        certified(state)
        assert state.barcode() == [(0, 1, 3), (0, 2, 2)]

    def test_rejects_present_simplex(self, tri):
        state = state_from_filtration(tri)
        with pytest.raises(IllegalExpansion):
            apply_op(state, "ie", 3, simplex(0, 1))

    def test_rejects_wrong_pair(self, tri):
        state = state_from_filtration(tri)
        with pytest.raises(IllegalContraction):
            apply_op(state, "ic", 2)


class TestAtomicity:
    def test_failed_op_leaves_state_intact(self, tri):
        state = state_from_filtration(tri)
        before_steps = state.filtration.moves()
        before_bars = state.barcode()
        for op, pos, sig in [("fs", 2, None), ("oc", 2, None), ("ic", 2, None),
                             ("oe", 3, simplex(2)), ("ie", 3, simplex(0, 1)),
                             ("os", 9, None)]:
            with pytest.raises(ContractViolation):
                apply_op(state, op, pos, sig)
            assert state.filtration.moves() == before_steps
            assert state.barcode() == before_bars
            certified(state)


def seeded_states(count: int, seed: int = 7):
    """count certified states on seeded random filtrations of 5 vertices."""
    rng = random.Random(seed)
    for _ in range(count):
        f = random_filtration(rng, list(range(5)), dim_cap=2,
                              max_simplices=12, max_length=30)
        if f.steps:
            yield state_from_filtration(f)


def legal_sites(state, op: str):
    """Each legal (op, position, simplex) of kind op on the state."""
    f = state.filtration
    for pos in range(len(f.steps) + 1):
        for sop in legal_ops_at(f, pos, list(range(5)), 2, allow_expand=True):
            if sop.op == op:
                yield sop


def bars_now(state):
    """Each bar's object, list objects, lists' contents and position, the
    births, deaths, birth_reps, over and rows indexes and the complex index."""
    bars = {iid: (rep, rep.cycles, rep.chains, tuple(rep.cycles), tuple(rep.chains),
                  rep.b, rep.d) for iid, rep in state.intervals.items()}
    return (bars, list(state.births), list(state.deaths), list(state.birth_reps),
            [set(ids) for ids in state.over], dict(state.rows),
            list(state.filtration.index().masks))


class TestCommitMovesBars:
    @pytest.mark.parametrize("op", ["oe", "ie", "oc", "ic"])
    def test_bars_after_the_site_move_in_place(self, op):
        # a bar wholly after an expansion at i (born after i) or a
        # contraction at i (born after i + 1) keeps its RepSeq object and
        # moves by two, and the vine map does not name it
        shift, after = (2, 0) if op in ("oe", "ie") else (-2, 1)
        moved = 0
        for state in seeded_states(30):
            sop = next(legal_sites(state, op), None)
            if sop is None:
                continue
            later = {iid: (rep, rep.cycles, rep.chains, rep.b, rep.d)
                     for iid, rep in state.intervals.items() if rep.b > sop.pos + after}
            vines = apply_op(state, sop.op, sop.pos, sop.simplex).vines
            certified(state)
            for iid, (rep, cycles, chains, b, d) in later.items():
                assert state.intervals[iid] is rep
                assert rep.cycles is cycles and rep.chains is chains
                assert (rep.b, rep.d) == (b + shift, d + shift)
                assert iid not in vines
            moved += len(later)
        assert moved > 20

    @pytest.mark.parametrize("op", ["oe", "ie", "oc", "ic"])
    def test_bars_across_the_site_are_carried_in_place(self, op):
        # the rule, run alone on the state, names the bars it carries: each
        # lies strictly over the site, and after the op its lists are the
        # copy-based result; a bar carried with its committed rep keeps its
        # RepSeq object and both list objects, and its vine maps it to itself
        expand = op in ("oe", "ie")
        carried = kept = 0
        for start in seeded_states(30):
            for state, sop in carry_sites(start, op):
                i, bars = sop.pos, state.intervals
                check(state.filtration, op, i, sop.simplex)
                dry = rep_updates._RULES[op](state, i, sop.simplex)[3]
                fix = None if state.births[i] is None else bars[state.births[i]].cycles[0]
                sigma = None if expand else state.store.index.flags[
                    state.filtration.steps[i].simplex]
                want = {}
                for iid, (rep, _) in dry.items():
                    assert rep.b < i < rep.d and (expand or rep.d > i + 1)
                    want[iid] = (rep if rep is bars[iid] else None, rep.cycles, rep.chains,
                                 copied_across(op, rep, i, state.store, sigma, fix))
                vines = apply_op(state, sop.op, i, sop.simplex).vines
                certified(state)
                for iid, (committed, cycles, chains, lists) in want.items():
                    rep = state.intervals[iid]
                    if committed is not None:
                        assert rep is committed
                        assert rep.cycles is cycles and rep.chains is chains
                        kept += 1
                    assert (rep.cycles, rep.chains) == lists
                    assert vines[iid] == iid
                carried += len(want)
        assert carried > 20 and kept > 20


def carry_sites(start, op):
    """Fresh states from start, each with a legal site of op: every third of
    start's own, and for a contraction also the one every third expansion
    of its side leaves (an expansion at i makes a contraction site at
    i + 1)."""
    for sop in list(legal_sites(start, op))[::3]:
        yield state_from_filtration(start.filtration), sop
    if op in ("oc", "ic"):
        for grow in list(legal_sites(start, "oe" if op == "oc" else "ie"))[::3]:
            state = state_from_filtration(start.filtration)
            apply_op(state, grow.op, grow.pos, grow.simplex)
            yield state, ScriptOp(op, grow.pos + 1)


def copied_across(op, rep, i, store, sigma, fix):
    """The lists of a copy of rep carried across an op at site i: z_i twice
    more and two empty chains after index i for an expansion, indices i-1,
    i and i+1 merged into one for a contraction (ic repairs a junction
    through sigma, its bit, by the fix cycle)."""
    k, cycles, chains, add = i - rep.b, rep.cycles, rep.chains, store.add
    if op in ("oe", "ie"):
        return (cycles[:k + 1] + [cycles[k]] * 2 + cycles[k + 1:],
                chains[:k + 1] + [0, 0] + chains[k + 1:])
    if op == "oc":
        before = None if chains[k - 1] is None else add(chains[k - 1], chains[k])
        return (cycles[:k - 1] + [cycles[k]] + cycles[k + 2:],
                chains[:k - 1] + [before, add(chains[k + 1], chains[k + 2])] + chains[k + 3:])
    junction = add(chains[k], chains[k + 1])
    if junction & sigma:
        junction = add(junction, fix)
    return (cycles[:k] + cycles[k + 2:],
            chains[:k] + [add(junction, chains[k + 2])] + chains[k + 3:])


class TestSplicesAtTheEnds:
    def test_expansions_at_0_and_m_then_contractions_at_1_and_m_minus_1(self):
        # an expansion at 0 moves every bar, one at m moves none, and
        # neither names a bar in its vine map; the contractions at 1 and
        # m - 1 take each back, every state certified
        ran = 0
        for state in seeded_states(30):
            moves, barcode = state.filtration.moves(), state.barcode()
            bars = {iid: (rep.b, rep.d) for iid, rep in state.intervals.items()}
            m = len(state.filtration.steps)
            vines = apply_op(state, "ie", 0, simplex(2)).vines
            certified(state)
            assert all(iid not in vines and (state.intervals[iid].b, state.intervals[iid].d)
                       == (b + 2, d + 2) for iid, (b, d) in bars.items())
            vines = apply_op(state, "ie", m + 2, simplex(3)).vines
            certified(state)
            assert all(iid not in vines for iid in bars)
            vines = apply_op(state, "ic", 1).vines
            certified(state)
            assert all(iid not in vines for iid in bars)
            vines = apply_op(state, "ic", m + 1).vines
            certified(state)
            assert all(iid not in vines for iid in bars)
            assert state.filtration.moves() == moves and state.barcode() == barcode
            assert {iid: (rep.b, rep.d) for iid, rep in state.intervals.items()} == bars
            ran += 1
        assert ran > 20


class TestVineMap:
    def test_vine_map_names_only_bars_the_op_touched(self, monkeypatch):
        # seeded scripts of all eight kinds: the vine map names exactly the
        # bars the rule rewrote, carried, created or destroyed, and a bar it
        # does not name keeps its RepSeq and its lists' contents, moved by
        # two when it lies wholly after an expansion's or contraction's site
        touched = {}
        commit = rep_updates._commit

        def recording(state, op, i, changed, destroyed, created, carried):
            touched["changed"], touched["carried"] = set(changed), set(carried)
            touched["destroyed"] = destroyed = list(destroyed)
            return commit(state, op, i, changed, destroyed, created, carried)

        monkeypatch.setattr(rep_updates, "_commit", recording)
        kinds, moved = set(), 0
        for seed in range(20):
            f = random_filtration(random.Random(seed), list(range(6)), dim_cap=2,
                                  max_simplices=24, max_length=80)
            try:
                script = random_script(f, 40, seed=seed, max_length=80)
            except Exhausted:
                continue
            state = state_from_filtration(f)
            for sop in script:
                before = {iid: (rep, rep.b, rep.d, tuple(rep.cycles), tuple(rep.chains))
                          for iid, rep in state.intervals.items()}
                vines = apply_op(state, sop.op, sop.pos, sop.simplex).vines
                kinds.add(sop.op)
                want = dict.fromkeys(touched["destroyed"], DESTROYED)
                want.update((iid, iid) for iid in touched["changed"] | touched["carried"])
                want.update(dict.fromkeys(state.intervals.keys() - before.keys(), CREATED))
                assert vines == want
                shift = {"oe": 2, "ie": 2, "oc": -2, "ic": -2}.get(sop.op, 0)
                site = sop.pos if shift > 0 else sop.pos + 1
                for iid, (rep, b, d, cycles, chains) in before.items():
                    if iid in vines:
                        continue
                    assert state.intervals[iid] is rep
                    assert (tuple(rep.cycles), tuple(rep.chains)) == (cycles, chains)
                    step = shift if shift and b > site else 0
                    assert (rep.b, rep.d) == (b + step, d + step)
                    moved += step != 0
        assert kinds == {"fs", "bs", "os", "is", "oe", "ie", "oc", "ic"}
        assert moved > 100


class Unwalkable(dict):
    """A bar map that raises when walked; lookups by id still work."""

    def _walk(self, *args):
        raise AssertionError("the bars were walked")
    __iter__ = items = values = keys = _walk


class TestNoRuleWalksTheBars:
    @pytest.mark.parametrize("op", OPS)
    def test_rule_reads_bars_only_through_the_indexes(self, op):
        # each update rule finds its bars through births, deaths and over,
        # on the state before the edit and the commit
        ran = 0
        for state in seeded_states(30):
            for sop in list(legal_sites(state, op))[:2]:
                check(state.filtration, op, sop.pos, sop.simplex)
                bars, state.intervals = state.intervals, Unwalkable(state.intervals)
                try:
                    rep_updates._RULES[op](state, sop.pos, sop.simplex)
                finally:
                    state.intervals = bars
                ran += 1
        assert ran > 10

    @pytest.mark.parametrize("op", ["fs", "bs", "os", "is"])
    def test_switch_never_walks_the_bars(self, op, monkeypatch):
        # a whole switch, commit included, reads no bar but those at its
        # site and those spanning it; is moves or builds reps only at its
        # site, counted as the (b, d) of each move's rep and of each rep built
        built = []
        post_init = reps.RepSeq.__post_init__

        def record(rep):
            built.append((rep.b, rep.d))
            post_init(rep)

        def counted(move):
            def make(rep, *args):
                built.append((rep.b, rep.d))
                return move(rep, *args)
            return make

        switched = 0
        for state in seeded_states(30):
            for sop in list(legal_sites(state, op))[:2]:
                # both sites run on one state, the second after the first
                # commits; only a backward switch can lose its second site
                i = sop.pos
                if i not in {s.pos for s in legal_sites(state, op)}:
                    assert op == "bs"
                    continue
                spanning = [state.intervals[j] for j in state.over[i]]
                if op == "is":
                    # the bars whose reps is must not move or build
                    spanning = [rep for rep in spanning
                                if rep.b < i - 1 and rep.d > i + 1]
                state.intervals = Unwalkable(state.intervals)
                built.clear()
                with monkeypatch.context() as m:
                    m.setattr(reps.RepSeq, "__post_init__", record)
                    for name in MOVES:
                        m.setattr(rep_updates, name, counted(getattr(rep_updates, name)))
                    vines = apply_op(state, op, i).vines
                state.intervals = dict(dict.items(state.intervals))
                certified(state)
                if op == "is":
                    assert built and len(built) == len(vines) <= 4
                    for b, d in built:
                        assert i - 1 <= b <= i + 1 or i - 1 <= d <= i + 1
                switched += bool(spanning)
        assert switched > 5


# the constructors of a switch rule's end moves
MOVES = ("_grow", "_drop", "_set_end", "_reroute")


class TestSwitchSiteWindow:
    def test_a_switch_touches_only_its_site(self):
        # seeded scripts of the four switch kinds: after a switch at i,
        # every over entry outside i-1..i+1 is unchanged, every bar outside
        # the vine map keeps its RepSeq and its lists' contents, and the
        # certificate is empty
        switches, rewired = Counter(), 0
        for seed in range(40):
            rng = random.Random(seed)
            f = random_filtration(rng, list(range(6)), dim_cap=2, max_simplices=24,
                                  max_length=60)
            state = state_from_filtration(f)
            for _ in range(25):
                steps = state.filtration.steps
                sites = [(op, i) for i in range(1, len(steps)) for op in ("fs", "bs", "os", "is")
                         if violation(state.filtration, op, i) is None]
                if not sites:
                    break
                op, i = rng.choice(sites)
                over = [set(ids) for ids in state.over]
                bars = {iid: (rep, rep.b, rep.d, tuple(rep.cycles), tuple(rep.chains))
                        for iid, rep in state.intervals.items()}
                vines = apply_op(state, op, i).vines
                for j, ids in enumerate(state.over):
                    if not i - 1 <= j <= i + 1:
                        assert ids == over[j], (op, i, j)
                rewired += any(state.over[j] != over[j] for j in (i - 1, i, i + 1))
                for iid, (rep, b, d, cycles, chains) in bars.items():
                    if iid not in vines:
                        assert state.intervals[iid] is rep
                        assert (rep.b, rep.d, tuple(rep.cycles), tuple(rep.chains)) == (
                            b, d, cycles, chains)
                assert not state.check_certificate()
                switches[op] += 1
        assert set(switches) == {"fs", "bs", "os", "is"} and min(switches.values()) > 100
        assert rewired > 300


class TestFailedRuleMovesNothing:
    @pytest.mark.parametrize("op, name", [("oe", "_stretch_window"), ("ic", "rep_sum"),
                                          ("fs", "_grow"), ("bs", "_grow"),
                                          ("os", "_grow"), ("is", "_grow")])
    def test_midway_failure_keeps_every_bar(self, op, name, monkeypatch):
        # the second call of a rebuilder or a move constructor raises: the
        # filtration, every bar's object, lists and positions, and every
        # index stay as they were; an expansion windows each bar it carries
        # before the edit, so a failure there comes after the first bar's
        # window, and a switch makes the moves of the bars at its site (two
        # grown ones, where the second fails) before any is applied
        real = getattr(rep_updates, name)
        calls = []

        def fails_second(*args):
            calls.append(name)
            if len(calls) == 2:
                raise ContractViolation(f"{name} refused")
            return real(*args)

        # 200 states give every case at least 16 failures (ic and bs fewest)
        failed = 0
        for start in seeded_states(200):
            for sop in legal_sites(start, op):
                state = state_from_filtration(start.filtration)
                moves, before = state.filtration.moves(), bars_now(state)
                calls.clear()
                with monkeypatch.context() as m:
                    m.setattr(rep_updates, name, fails_second)
                    try:
                        apply_op(state, sop.op, sop.pos, sop.simplex)
                    except ContractViolation:
                        failed += 1
                    else:
                        continue
                assert state.filtration.moves() == moves
                assert bars_now(state) == before
                assert all(state.intervals[iid] is rep and rep.cycles is cycles
                           and rep.chains is chains
                           for iid, (rep, cycles, chains, *_) in before[0].items())
                certified(state)
        assert failed >= 3


class TestCertificateIndex:
    # the bars of tri are [1,5], [2,2] and [4,4]

    def test_entry_at_the_wrong_position(self, tri):
        state = state_from_filtration(tri)
        births = state.births
        iid = births[1]
        births[1], births[3] = None, iid
        assert state.check_certificate() == [
            f"births[3] names bar {iid}, which does not sit there",
            f"bar {iid} missing from births"]

    def test_entries_naming_each_others_bars(self, tri):
        state = state_from_filtration(tri)
        deaths = state.deaths
        deaths[2], deaths[4] = deaths[4], deaths[2]
        errs = state.check_certificate()
        assert sum("does not sit there" in e for e in errs) == 2
        assert sum("missing from deaths" in e for e in errs) == 2

    def test_entry_for_no_bar(self, tri):
        state = state_from_filtration(tri)
        state.deaths[3] = 99
        assert state.check_certificate() == ["deaths[3] names bar 99, which does not sit there"]

    def test_over_entry_stray_and_missing(self, tri):
        state = state_from_filtration(tri)
        long, short = state.births[1], state.births[2]
        state.over[3].add(short)
        state.over[2].discard(long)
        assert state.check_certificate() == [
            f"bar {long} missing from over[2]",
            f"over[3] names bar {short}, which does not span it"]

    def test_bar_missing_from_either_index(self, tri):
        for name in ("births", "deaths"):
            state = state_from_filtration(tri)
            index = getattr(state, name)
            iid, index[4] = index[4], None
            assert state.check_certificate() == [f"bar {iid} missing from {name}"]

    def test_index_with_the_wrong_entry_count(self, tri):
        # tri has length 6, so each index has an entry per position 0..6;
        # no bar sits at position 6, so only the count is wrong
        for name in ("births", "deaths", "birth_reps"):
            state = state_from_filtration(tri)
            index = getattr(state, name)
            index.append(None)
            assert state.check_certificate() == [f"{name} has 8 entries, expected 7"]
            del index[-2:]
            assert state.check_certificate() == [f"{name} has 6 entries, expected 7"]

    def test_birth_reps_entry_for_the_wrong_bar_or_for_none(self, tri):
        # the bump moves a bar through its birth_reps entry, so an entry
        # holding another bar's rep, or a rep where no bar is born, is named
        state = state_from_filtration(tri)
        long, short = state.births[1], state.births[2]
        state.birth_reps[2] = state.intervals[long]
        assert state.check_certificate() == [
            f"birth_reps[2] is not the rep of bar {short}, born there"]
        state.birth_reps[2], state.birth_reps[3] = None, state.intervals[short]
        assert state.check_certificate() == [
            f"birth_reps[2] is not the rep of bar {short}, born there",
            "birth_reps[3] holds a rep, but no bar is born there"]

    def test_bar_past_the_last_entry(self, tri):
        state = state_from_filtration(tri)
        iid = state.deaths[5]
        del state.deaths[5:]
        assert state.check_certificate() == [
            "deaths has 5 entries, expected 7", f"bar {iid} missing from deaths"]

    def test_wrong_row(self, tri):
        state = state_from_filtration(tri)
        state.refresh_rows()  # so the certificate's refresh rewrites no row
        iid = state.births[1]
        state.rows[iid] = (0, 1, 3)
        assert state.check_certificate() == [f"rows[{iid}] is (0, 1, 3), expected (0, 1, 5)"]

    def test_row_for_a_dead_bar_and_a_missing_row(self, tri):
        state = state_from_filtration(tri)
        state.refresh_rows()
        iid = state.births[4]
        state.rows[99] = state.rows.pop(iid)
        assert state.check_certificate() == [
            "rows names bar 99, which is not live", f"bar {iid} missing from rows"]

    def test_bars_sharing_a_list(self, tri):
        # _commit splices a carried bar's lists in place, which would change
        # every bar holding them; [2,2] and [4,4] have equal cycle lists, so
        # sharing one is the only fault, and a shared chain list is named
        # beside the faults of the rep that took the other's chains
        state = state_from_filtration(tri)
        first, second = state.births[2], state.births[4]
        state.intervals[second].cycles = state.intervals[first].cycles
        assert state.check_certificate() == [f"bars {first} and {second} share a cycles list"]
        state = state_from_filtration(tri)
        state.intervals[second].chains = state.intervals[first].chains
        assert f"bars {first} and {second} share a chains list" in state.check_certificate()

    def test_a_partial_rep_is_reported(self, tri):
        # validate_rep waives the death check of a post-birth rep, so a
        # committed bar tagged post_birth would hide its missing death chain
        state = state_from_filtration(tri)
        rep = state.intervals[1]
        rep.chains[-1] = None
        assert state.check_certificate() == [
            "interval 1 [2,2] dim 0: death: chain required before an addition"]
        rep.kind = reps.POST_BIRTH
        assert state.check_certificate() == [
            "interval 1 [2,2] dim 0: a post_birth rep, not a full one"]

    def test_wrong_rank_and_wrong_column(self, tri):
        # a site basis reads the index's sorted tables, so a rank or a
        # column that differs from a rebuild is named by its simplex
        state = state_from_filtration(tri)
        index = state.filtration.index()
        ranks, ranked = index.tables()
        edges, _, columns = ranked[1]
        assert edges == [simplex(0, 1)] and columns == [3]
        at = index.flags[simplex(1)].bit_length() - 1
        ranks[at] = 1
        assert state.check_certificate() == ["complex index rank of 1 differs from a rebuild"]
        columns[0] = 1
        assert state.check_certificate() == ["complex index rank of 1 differs from a rebuild",
                                             "complex index column of 0 1 differs from a rebuild"]
        ranks[at] = 2
        assert state.check_certificate() == ["complex index column of 0 1 differs from a rebuild"]
        ranked.append(([simplex(0, 1, 2)], [8], [7]))
        assert state.check_certificate() == [
            "complex index column of 0 1 differs from a rebuild",
            "complex index table of dimension 2 differs from a rebuild"]

    def test_a_stale_row_is_refreshed_not_reported(self, tri):
        # a row lagging behind its bar from stale_from on is what an
        # expansion or contraction leaves; the certificate refreshes it
        state = state_from_filtration(tri)
        iid = state.births[4]
        state.rows[iid] = (0, 2, 2)
        state.stale_from = 3
        assert state.check_certificate() == []
        assert state.rows[iid] == (0, 4, 4) and state.stale_from == 7


def index_at(cx):
    """A complex index holding the complex cx at its position len(cx): cx
    added by rising dimension, then deleted."""
    up = sorted(cx, key=len)
    f = ZigzagFiltration.from_moves([("i", s) for s in up] + [("d", s) for s in reversed(up)])
    return f.index(), len(up)


def reduced_boundaries(cx, p):
    """The index holding cx, and the reduced boundary columns of cx in
    dimension p, each with its witness, as chains over that index."""
    index, j = index_at(cx)
    red = BoundaryReduction(index, j, p)
    tables = index.tables()[1]

    def chain(flags, mask):
        return sum(flag for k, flag in enumerate(flags) if mask >> k & 1)

    return index, [(chain(tables[p][1], col), chain(red.flags, wit))
                   for col, _, wit in red.pivots.values()]


def independent(chains):
    """No nonempty subset of the chains sums to zero."""
    basis = {}  # highest bit -> reduced chain
    for col in chains:
        while col and col.bit_length() in basis:
            col ^= basis[col.bit_length()]
        if not col:
            return False
        basis[col.bit_length()] = col
    return True


def expansion_verdict(f, op, pos, sigma):
    """The exception an expansion at pos must raise, or None when it is
    legal, from f.complexes() rather than the index: sigma must be present
    with no cofaces (oe), or absent with every face present (ie)."""
    cx = f.complexes()[pos]
    where = f"{sigma.text()} %s at position {pos}"
    if op == "oe":
        if sigma not in cx:
            return IllegalExpansion(where % "not present")
        if any(sigma in t.faces() for t in cx):
            return IllegalExpansion(where % "has cofaces")
    elif sigma in cx:
        return IllegalExpansion(where % "already present")
    elif not cx.issuperset(sigma.faces()):
        return IllegalExpansion(where % "has missing faces")
    return None


def raised(apply):
    """The type and text of what apply() raises."""
    with pytest.raises(ContractViolation) as info:
        apply()
    return type(info.value), str(info.value)


class TestComplexIndex:
    def test_wrong_entry_and_entry_count(self, tri):
        state = state_from_filtration(tri)
        index = state.filtration.index()
        index.masks[3] ^= index.flags[simplex(0)]
        assert state.check_certificate() == ["complex index at 3 differs from the filtration"]
        state = state_from_filtration(tri)
        index = state.filtration.index()
        index.masks[5] |= index.flags[simplex(0, 1)]
        assert state.check_certificate() == ["complex index at 5 differs from the filtration"]
        state = state_from_filtration(tri)
        del state.filtration.index().masks[6]
        assert state.check_certificate() == ["complex index has 6 entries, expected 7"]

    def test_index_and_verdicts_follow_the_filtration(self):
        # after every op of random scripts of all eight kinds the index
        # decodes to f.complexes(), and the engine's verdict on an attempted
        # expansion or contraction, legal or illegal, is the one the steps
        # give: an expansion's from f.complexes(), a contraction's from
        # ops.violation, which reads only the steps there; an illegal ie
        # gets the same words from the FZZ engine and the planner
        pool = [0, 1, 2, 3, 4]
        candidates = [simplex(*c) for n in (1, 2, 3) for c in combinations(pool, n)]
        reasons = ("already present", "has cofaces", "missing faces")
        seen, attempts = Counter(), 0
        for seed in range(20):
            rng = random.Random(seed)
            f = random_filtration(rng, pool[:4], dim_cap=2, max_simplices=10, max_length=24)
            state = state_from_filtration(f)
            for sop in random_script(f, 30, seed=seed, vertex_pool=pool, max_length=40):
                f = state.filtration
                m = len(f.steps)
                engine = FzzEngine(f)
                for op in ("oe", "ie", "oc", "ic") * 2:
                    pos = rng.randrange(0, m + 1)
                    # an expansion's simplex: half the time one present at pos
                    present = sorted(f.complexes()[pos]) if rng.random() < 0.5 else ()
                    sigma = rng.choice(present or candidates) if op in ("oe", "ie") else None
                    if sigma is None:
                        want = violation(f, op, pos, sigma)
                    else:
                        want = expansion_verdict(f, op, pos, sigma)
                    if want is None:
                        check(f, op, pos, sigma)
                        seen["legal"] += 1
                        continue
                    moves = f.moves()
                    got = raised(lambda: apply_op(state, op, pos, sigma))
                    assert got == (type(want), str(want))
                    assert f.moves() == moves
                    if op == "ie":
                        sim = f.copy()
                        assert raised(lambda: engine.apply(op, pos, sigma)) == got
                        assert raised(lambda: apply_to_filtration(
                            sim, ScriptOp(op, pos, sigma))) == got
                        assert engine.filtration.moves() == sim.moves() == moves
                        seen["ie"] += 1
                    seen.update(r for r in reasons if r in str(want))
                    attempts += 1
                assert violation(f, sop.op, sop.pos, sop.simplex) is None
                apply_op(state, sop.op, sop.pos, sop.simplex)
                want = state.filtration.complexes()
                index = state.filtration.index()
                assert [frozenset(index.simplices_at(j)) for j in range(len(want))] == want
                assert len(index.masks) == len(want)
        assert attempts > 1000 and seen["legal"] > 100 and seen["ie"] > 200
        assert all(seen[r] > 20 for r in reasons), seen


class TestBoundaryReduction:
    def test_no_two_simplices_means_no_one_boundaries(self):
        cx = {simplex(0), simplex(1), simplex(2),
              simplex(0, 1), simplex(1, 2), simplex(0, 2)}
        assert BoundaryReduction(*index_at(cx), 1).pivots == {}

    def test_full_triangle(self):
        cx = {simplex(0), simplex(1), simplex(2), simplex(0, 1), simplex(1, 2),
              simplex(0, 2), simplex(0, 1, 2)}
        index, basis = reduced_boundaries(cx, 1)
        assert len(basis) == 1
        bchain, witness = basis[0]
        assert witness == index.flags[simplex(0, 1, 2)]
        assert index.boundary(witness) == bchain

    def test_witnesses_bound_independent_columns(self, rng):
        for _ in range(20):
            verts = range(5)
            cx = {simplex(v) for v in verts}
            for size in (2, 3):
                for combo in combinations(verts, size):
                    if rng.random() < 0.55 and all(
                            simplex(*f) in cx for f in combinations(combo, size - 1)):
                        cx.add(simplex(*combo))
            for p in (0, 1):
                index, basis = reduced_boundaries(cx, p)
                for bchain, witness in basis:
                    assert bchain and index.boundary(witness) == bchain
                columns = [bchain for bchain, _ in basis]
                assert independent(columns)
                # and they span every boundary of the complex
                assert not any(independent(columns + [index.boundary(index.flags[t])])
                               for t in cx if t.dimension == p + 1)


class SortedReduction:
    """The reference for BoundaryReduction: the site basis built from the
    complex itself, its p- and (p+1)-simplices split, sorted and numbered
    locally and every boundary column built from faces()."""

    def __init__(self, cx, p):
        self.faces = sorted(s for s in cx if len(s) == p + 1)
        self.cofaces = sorted(s for s in cx if len(s) == p + 2)
        self.flags = {s: 1 << k for k, s in enumerate(self.faces)}
        self.pivots = {}
        for k, t in enumerate(self.cofaces):
            self.reduced(self.mask(t.faces()), 0, 1 << k)

    def mask(self, simplices):
        return sum(self.flags[s] for s in simplices)

    def reduced(self, col, keys, wit):
        while col:
            top = col.bit_length() - 1
            if top not in self.pivots:
                self.pivots[top] = (col, keys, wit)
                break
            pcol, pkeys, pwit = self.pivots[top]
            col, keys, wit = col ^ pcol, keys ^ pkeys, wit ^ pwit
        return col, keys, wit

    def express(self, target, cycle_gens, index):
        """As BoundaryReduction.express, for chains over index."""
        for r, (_, cyc) in enumerate(cycle_gens):
            assert self.reduced(self.mask(index.decoded(cyc)), 1 << r, 0)[0]
        col, keys, wit = self.reduced(self.mask(index.decoded(target)), 0, 0)
        if col:
            return None
        return ({key for r, (key, _) in enumerate(cycle_gens) if keys >> r & 1},
                sum(index.flags[t] for k, t in enumerate(self.cofaces) if wit >> k & 1))


def pivot_sets(pivots, faces, cofaces):
    """pivots read as simplices, in the order the reduction made them: each
    pivot's top simplex, column, generator keys and witness."""
    def decode(simplices, mask):
        return frozenset(s for k, s in enumerate(simplices) if mask >> k & 1)

    return [(faces[top], decode(faces, col), keys, decode(cofaces, wit))
            for top, (col, keys, wit) in pivots.items()]


class TestIndexBasis:
    def basis_matches_the_reference(self, state, rng):
        """At every position and every p, the index-based basis has the
        reference's pivots, and each target expresses with the same keys
        and witness chain, or not at all, in both."""
        store, f = state.store, state.filtration
        index = f.index()
        faces_of = index.tables()[1] + [([], [], [])] * 4
        expressed = 0
        for j, cx in enumerate(f.complexes()):
            for p in range(3):
                red, ref = BoundaryReduction(index, j, p), SortedReduction(cx, p)
                assert pivot_sets(red.pivots, faces_of[p][0], faces_of[p + 1][0]) == pivot_sets(
                    ref.pivots, ref.faces, ref.cofaces)
                # the cycles at j of the bars alive there are a homology basis
                alive = sorted(iid for iid, rep in state.intervals.items()
                               if rep.dim == p and rep.b <= j <= rep.d)
                gens = [(iid, state.intervals[iid].cycle_at(j)) for iid in alive]
                bounds = [index.boundary(index.flags[t]) for t in ref.cofaces]
                targets = [cyc for _, cyc in gens] + bounds
                if len(targets) > 1:
                    targets += [store.add(*rng.sample(targets, 2)) for _ in range(3)]
                for target in targets:
                    for used in (gens, gens[1:]):
                        got = BoundaryReduction(index, j, p).express(target, used)
                        assert got == SortedReduction(cx, p).express(target, used, index)
                        expressed += got is not None
        return expressed

    def test_index_basis_equals_the_sorted_reduction(self):
        rng = random.Random(28)
        expressed = rebuilt = 0
        for state in seeded_states(30, seed=28):
            expressed += self.basis_matches_the_reference(state, rng)
            # an ie of a simplex the filtration never held numbers it, so
            # the tables are rebuilt before the next basis reads them
            index = state.filtration.index()
            fresh = [sop for sop in legal_sites(state, "ie")
                     if sop.simplex.dimension > 0 and sop.simplex not in index.flags]
            if fresh:
                sop = rng.choice(fresh)
                before = index.tables()
                apply_op(state, sop.op, sop.pos, sop.simplex)
                assert index.tables() is not before
                assert len(index.tables()[0]) == len(index.flags) > len(before[0])
                expressed += self.basis_matches_the_reference(state, rng)
                rebuilt += 1
        assert expressed > 4000 and rebuilt > 20


class TestRandomizedCertificates:
    def test_every_op_certified_and_oracle_equal(self, rng):
        ops = 0
        for trial in range(25):
            f = random_filtration(rng, [0, 1, 2, 3, 4], dim_cap=2,
                                  max_simplices=10, max_length=24)
            state = state_from_filtration(f)
            try:
                script = random_script(f, 12, seed=trial, max_length=36)
            except Exhausted:
                continue
            for sop in script:
                apply_op(state, sop.op, sop.pos, sop.simplex)
                certified(state)
                ops += 1
        assert ops > 150

    def test_length_and_count_deltas(self, rng):
        for trial in range(10):
            f = random_filtration(rng, [0, 1, 2, 3], dim_cap=2,
                                  max_simplices=8, max_length=20)
            state = state_from_filtration(f)
            try:
                script = random_script(f, 10, seed=trial + 100, max_length=30)
            except Exhausted:
                continue
            for sop in script:
                m0, bars0 = len(state.filtration.steps), len(state.intervals)
                apply_op(state, sop.op, sop.pos, sop.simplex)
                m1, bars1 = len(state.filtration.steps), len(state.intervals)
                if sop.op in ("fs", "bs", "os", "is"):
                    assert (m1, bars1) == (m0, bars0)
                elif sop.op in ("oe", "ie"):
                    assert m1 == m0 + 2 and bars1 == bars0 + 1
                else:
                    assert m1 == m0 - 2 and bars1 == bars0 - 1


class TestOpStats:
    def test_merges_sum_to_the_stores_change_and_carried_is_counted(self):
        # every op reports its chain merges, which over a script add up to
        # the store's change; expansions and contractions alone report the
        # bars they carried, at most the bars over their site
        kinds, carried = set(), 0
        for seed in range(10):
            f = random_filtration(random.Random(seed), list(range(6)), dim_cap=2,
                                  max_simplices=24, max_length=80)
            try:
                script = random_script(f, 40, seed=seed, max_length=80)
            except Exhausted:
                continue
            state = state_from_filtration(f)
            start, merges = state.store.merge_count, 0
            for sop in script:
                over = len(state.over[sop.pos]) if sop.pos < len(state.over) else 0
                stats = apply_op(state, sop.op, sop.pos, sop.simplex).stats
                merges += stats["merges"]
                kinds.add(sop.op)
                if sop.op in ("oe", "ie", "oc", "ic"):
                    assert 0 <= stats["carried"] <= over
                    carried += stats["carried"]
                else:
                    assert "carried" not in stats
            assert merges == state.store.merge_count - start
        assert kinds == {"fs", "bs", "os", "is", "oe", "ie", "oc", "ic"}
        assert carried > 20


class TestRowsRefresh:
    def test_refreshed_rows_match_the_reps_after_every_op(self):
        # seeded scripts of all eight op kinds; barcode() is read after every
        # seventh op only, so the rows of the bars an expansion or
        # contraction moves lag across several stacked ones, and a refresh
        # from stale_from on (here, of a copy) must bring every row back
        kinds, lagging, stacked = set(), 0, 0
        for seed in range(30):
            f = random_filtration(random.Random(seed), list(range(6)), dim_cap=2,
                                  max_simplices=24, max_length=80)
            try:
                script = random_script(f, 40, seed=seed, max_length=80)
            except Exhausted:
                continue
            state = state_from_filtration(f)
            unread = 0  # expansions and contractions since the last read
            for n, sop in enumerate(script, 1):
                apply_op(state, sop.op, sop.pos, sop.simplex)
                kinds.add(sop.op)
                unread += sop.op in ("oe", "ie", "oc", "ic")
                want = {iid: (rep.dim, rep.b, rep.d) for iid, rep in state.intervals.items()}
                if state.rows != want:
                    lagging += 1
                    stacked = max(stacked, unread)
                view = copy.copy(state)
                view.rows = dict(state.rows)
                assert view.refresh_rows() == want
                if n % 7 == 0:
                    assert state.barcode() == sorted(want.values())
                    assert state.rows == want and state.stale_from == len(state.births)
                    unread = 0
        assert kinds == {"fs", "bs", "os", "is", "oe", "ie", "oc", "ic"}
        assert lagging > 50 and stacked >= 3


def replay_digest(seeds: int, ops: int) -> tuple[str, str, int, set[str]]:
    """Replay seeded random scripts on random filtrations (6 vertices, at most
    24 simplices, length at most 80) through apply_op.  After every op, each
    bar's id, dim, b, d and representative, and the op's vine map, go into
    one sha256, and the barcode alone into a second one.  Returns both hex
    digests, the states' total merge_count and the op kinds replayed."""
    digest, bars = hashlib.sha256(), hashlib.sha256()
    merges, kinds = 0, set()
    for seed in range(seeds):
        f = random_filtration(random.Random(seed), list(range(6)), dim_cap=2,
                              max_simplices=24, max_length=80)
        try:
            script = random_script(f, ops, seed=seed, max_length=80)
        except Exhausted:
            continue
        state = state_from_filtration(f)
        for sop in script:
            vines = apply_op(state, sop.op, sop.pos, sop.simplex).vines
            kinds.add(sop.op)
            for iid in sorted(state.intervals):
                iv = state.intervals[iid]
                digest.update(f"{iid} {iv.dim} {iv.b} {iv.d}\n"
                              f"{iv.dump(state.store.index)}\n".encode())
            digest.update(f"{sorted(vines.items())}\n".encode())
            bars.update(f"{state.barcode()}\n".encode())
        merges += state.store.merge_count
    return digest.hexdigest(), bars.hexdigest(), merges, kinds


def fzz_replay_digest(seeds: int, ops: int) -> tuple[str, str]:
    """Replay replay_digest's scripts through FzzEngine.apply, starting over
    with a fresh engine after each oe or oc.  After every op, the op, its
    stats, phi and the engine's barcode go into one sha256; the second
    sha256 takes the same with the stats of ie and ic left out."""
    digest, outputs = hashlib.sha256(), hashlib.sha256()
    for seed in range(seeds):
        f = random_filtration(random.Random(seed), list(range(6)), dim_cap=2,
                              max_simplices=24, max_length=80)
        try:
            script = random_script(f, ops, seed=seed, max_length=80)
        except Exhausted:
            continue
        engine = FzzEngine(f)
        for sop in script:
            if sop.op in ("oe", "oc"):  # not on the FZZ path
                f = engine.filtration.copy()
                apply_to_filtration(f, sop)
                engine, stats = FzzEngine(f), None
            else:
                stats = sorted(engine.apply(sop.op, sop.pos, sop.simplex).stats.items())
            tail = f"{engine.phi} {engine.barcode()}\n"
            digest.update(f"{sop.text()} {stats} {tail}".encode())
            kept = None if sop.op in ("ie", "ic") else stats
            outputs.update(f"{sop.text()} {kept} {tail}".encode())
    return digest.hexdigest(), outputs.hexdigest()


class TestPinnedOutput:
    def test_replayed_reps_and_vines_are_unchanged(self):
        # the rep engine's output is pinned: a change to any bar, rep or vine
        # changes the digest; the chain merges may only get fewer.  The
        # barcode after every op is pinned on its own, so a change of ids or
        # reps (a new construction script) cannot hide a change of bars
        digest, bars, merges, kinds = replay_digest(40, 60)
        assert kinds == {"fs", "bs", "os", "is", "oe", "ie", "oc", "ic"}
        assert bars == "e808369ae60a80326172ce859f5bc2d6ae96706d79144fe4902d87917b133785"
        assert digest == "68d74d19205721fa624baa15e4f92f2783329909131b19aaea3c5bcd14f37d00"
        assert merges <= 10551

    def test_fzz_replay_is_unchanged(self):
        # the FZZ engine's phi, stats and barcode on the same scripts; the
        # second digest leaves out the ie and ic stats, which count the
        # engine's column additions, so it pins phi and the barcode alone
        assert fzz_replay_digest(40, 60) == (
            "afc47a7a5827cfdffe92a0afc1d99cc048afcebe4644fc2ba58ffd386d971264",
            "0c1d0e42d3fdb62324b2383dbda8eb0aebaf83575e3a135b784ae809079faab4")
