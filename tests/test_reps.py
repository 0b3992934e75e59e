from __future__ import annotations

import random

import pytest

from zzpers.chains import Simplex
from zzpers.errors import ContractViolation
from zzpers.planner import random_filtration, state_from_filtration
from zzpers.reps import (ChainStore, RepSeq, _summed, end_sum, joined, prefix, rep_sum,
                         suffix, validate_rep)

from conftest import chain


@pytest.fixture
def store(tri):
    return ChainStore(tri.index())


def rep_22(tri, *cycle):
    """A candidate representative for the bar [2,2] of the triangle."""
    return RepSeq(2, 2, 0, [chain(tri, *cycle)], [None, chain(tri, (0, 1))])


class TestValidator:
    def test_hand_checked_bar(self, tri, store):
        rep = rep_22(tri, (0,), (1,))
        assert validate_rep(tri, rep, store=store) is None

    def test_birth_condition_violated(self, tri, store):
        rep = rep_22(tri, (0,))
        msg = validate_rep(tri, rep, store=store)
        assert msg is not None and "birth" in msg

    def test_containment_violated(self, tri, store):
        rep = rep_22(tri, (1,), (7,))
        msg = validate_rep(tri, rep, store=store)
        assert msg is not None and "contained" in msg

    def test_long_bar(self, tri, store):
        rep = RepSeq(1, 5, 0, [chain(tri, (0,))] * 5, [None] + [0] * 4 + [None])
        assert validate_rep(tri, rep, store=store) is None

    def test_undefined_chain_distinguished(self, tri, store):
        # an explicit empty chain is not the same as an undefined one
        rep = RepSeq(2, 2, 0, [chain(tri, (0,), (1,))], [0, chain(tri, (0, 1))])
        msg = validate_rep(tri, rep, store=store)
        assert msg is not None and "undefined" in msg


def certified_state(rng, seed_extra=0, **kwargs):
    f = random_filtration(rng, [0, 1, 2, 3], **kwargs)
    return state_from_filtration(f)


class TestTruncations:
    def test_prefix_drops_death_chain(self, rng):
        state = certified_state(rng, max_simplices=8, max_length=18)
        for iv in state.intervals.values():
            head = prefix(iv, iv.d)
            assert head.cycles == iv.cycles
            assert head.chains[-1] is None
            tail = suffix(iv, iv.b)
            assert tail.cycles == iv.cycles
            assert tail.chains[0] is None

    def test_out_of_interval(self, rng):
        state = certified_state(rng, max_simplices=8, max_length=18)
        iv = next(iter(state.intervals.values()))
        with pytest.raises(ContractViolation):
            prefix(iv, iv.d + 1)


def comparable_pairs(state):
    f = state.filtration
    ivs = list(state.intervals.values())
    for a in ivs:
        for b in ivs:
            if a is b or a.b == b.b or a.d == b.d:
                continue
            if a.b > b.d or b.b > a.d:
                continue
            yield a, b


class TestSums:
    def test_post_birth_sum_validates(self, rng):
        checked = 0
        for _ in range(40):
            state = certified_state(rng, max_simplices=10, max_length=24)
            f = state.filtration
            for a, b in comparable_pairs(state):
                overlap = range(max(a.b, b.b), min(a.d, b.d) + 1)
                for i in overlap:
                    pa, pb = prefix(a, i), prefix(b, i)
                    if f.birth_order_less(b.b, a.b):
                        pa, pb = pb, pa
                    out = end_sum(f, pa, pb, -1, state.store)
                    assert validate_rep(f, out, store=state.store) is None
                    checked += 1
                    break
            if checked >= 25:
                return
        assert checked > 0

    def test_pre_death_sum_validates(self, rng):
        checked = 0
        for _ in range(40):
            state = certified_state(rng, max_simplices=10, max_length=24)
            f = state.filtration
            for a, b in comparable_pairs(state):
                i = max(a.b, b.b)
                sa, sb = suffix(a, i), suffix(b, i)
                if f.death_order_less(b.d, a.d):
                    sa, sb = sb, sa
                out = end_sum(f, sa, sb, 1, state.store)
                assert validate_rep(f, out, store=state.store) is None
                checked += 1
                break
            if checked >= 25:
                return
        assert checked > 0

    def test_wrong_order_rejected(self, rng):
        for _ in range(30):
            state = certified_state(rng, max_simplices=10, max_length=24)
            f = state.filtration
            for a, b in comparable_pairs(state):
                i = max(a.b, b.b)
                pa, pb = prefix(a, i), prefix(b, i)
                if f.birth_order_less(b.b, a.b):
                    pa, pb = pb, pa
                with pytest.raises(ContractViolation):
                    end_sum(f, pb, pa, -1, state.store)
                return

    def test_rep_sum_validates_and_flags(self, rng):
        checked = 0
        for _ in range(60):
            state = certified_state(rng, max_simplices=10, max_length=24)
            f = state.filtration
            for a, b in comparable_pairs(state):
                i = max(a.b, b.b)
                out = rep_sum(f, a, b, i, state.store)
                assert validate_rep(f, out, store=state.store) is None
                checked += 1
            if checked >= 20:
                return
        assert checked > 0

    def test_rep_sum_choice_of_index_irrelevant(self, rng):
        checked = 0
        for _ in range(80):
            state = certified_state(rng, max_simplices=10, max_length=24)
            f = state.filtration
            for a, b in comparable_pairs(state):
                lo, hi = max(a.b, b.b), min(a.d, b.d)
                if hi <= lo:
                    continue
                out1 = rep_sum(f, a, b, lo, state.store)
                out2 = rep_sum(f, a, b, hi, state.store)
                assert out1.interval == out2.interval
                assert out1.cycles == out2.cycles
                assert out1.chains == out2.chains
                checked += 1
            if checked >= 10:
                return
        assert checked > 0

    def test_self_sum_rejected(self, rng):
        state = certified_state(rng, max_simplices=8, max_length=18)
        iv = next(iter(state.intervals.values()))
        with pytest.raises(ContractViolation):
            rep_sum(state.filtration, iv, iv, iv.b, state.store)

    def test_sum_merge_budget(self, rng):
        # summing touches no more than one merge per index of the result
        for _ in range(40):
            state = certified_state(rng, max_simplices=10, max_length=24)
            f = state.filtration
            for a, b in comparable_pairs(state):
                i = max(a.b, b.b)
                before = state.store.merge_count
                out = rep_sum(f, a, b, i, state.store)
                merges = state.store.merge_count - before
                budget = 2 * (out.d - out.b + 2) + 2
                assert merges <= budget, (merges, budget)
                return


    def test_summed_adds_once_per_run(self, tri, store):
        a, b, c = (chain(tri, (v,)) for v in range(3))
        e = chain(tri, (0,), (3,))
        xs, ys = [a, a, a, b, b, c, c], [e, e, c, c, c, c, e]
        want = [store.add(x, y) for x, y in zip(xs, ys)]
        before = store.merge_count
        got = _summed(store, xs, ys)
        # the runs (a, e), (a, c), (b, c), (c, c), (c, e)
        assert store.merge_count - before == 5
        assert got == want

    def test_summed_runs_are_equal_values(self, store):
        # two equal ints that are distinct objects make one run: one add
        x, y = 1 << 70, 1 << 3
        x2 = int(str(x))
        assert x == x2 and x is not x2
        before = store.merge_count
        assert _summed(store, [x, x2], [y, y]) == [x | y] * 2
        assert store.merge_count - before == 1

    def test_summed_matches_per_index_sums_of_reps(self, rng):
        # over real reps: the same values as one add per index, one add
        # per run of equal pairs
        checked = 0
        for _ in range(20):
            state = certified_state(rng, max_simplices=10, max_length=24)
            st = state.store
            for a, b in comparable_pairs(state):
                if a.dim != b.dim:
                    continue
                for xs, ys in ((a.cycles, b.cycles), (a.chains[1:-1], b.chains[1:-1])):
                    n = min(len(xs), len(ys))
                    xs, ys = xs[:n], ys[:n]
                    want = [st.add(x, y) for x, y in zip(xs, ys)]
                    runs = sum(1 for k in range(n)
                               if k == 0 or xs[k] != xs[k - 1] or ys[k] != ys[k - 1])
                    before = st.merge_count
                    got = _summed(st, xs, ys)
                    assert st.merge_count - before == runs
                    assert got == want
                    checked += 1
        assert checked > 20


class TestEndSumRefusals:
    """end_sum's refusals on either side, on hand-built reps over the
    triangle, each raised before any sum.  Its steps give the orders: birth
    1 precedes birth 2 (step 1 adds) and birth 4 precedes birth 1 (step 3
    deletes); death 2 precedes death 4 (step 2 adds)."""

    @staticmethod
    def rep(tri, b, d, dim=0, end_chain=None):
        """A rep over [b, d] whose chains at both ends are end_chain."""
        cycle = chain(tri, tuple(range(dim + 1)))
        return RepSeq(b, d, dim, [cycle] * (d - b + 1), [end_chain, *[0] * (d - b), end_chain])

    @pytest.mark.parametrize("side, one, two, words", [
        (-1, (1, 4, 0), (2, 4, 1), "dimension mismatch"),
        (-1, (1, 3, 0), (2, 4, 0), "post-birth sums need a common final index"),
        (-1, (2, 4, 0), (2, 4, 0), "first birth must strictly precede the second"),
        (-1, (2, 4, 0), (1, 4, 0), "first birth must strictly precede the second"),
        (-1, (4, 4, 0), (1, 4, 0), "backward-born summand is missing its birth chain"),
        (1, (1, 2, 0), (1, 4, 1), "dimension mismatch"),
        (1, (1, 2, 0), (2, 4, 0), "pre-death sums need a common starting index"),
        (1, (1, 4, 0), (1, 4, 0), "first death must strictly precede the second"),
        (1, (1, 4, 0), (1, 2, 0), "first death must strictly precede the second"),
        (1, (1, 2, 0), (1, 4, 0), "forward-dying summand is missing its death chain"),
    ])
    def test_refused(self, tri, store, side, one, two, words):
        r1, r2 = self.rep(tri, *one), self.rep(tri, *two)
        with pytest.raises(ContractViolation, match=words):
            end_sum(tri, r1, r2, side, store)

    @pytest.mark.parametrize("side, one, two", [
        (-1, (4, 4, 0), (1, 4, 0)), (1, (1, 2, 0), (1, 4, 0))])
    def test_shorter_summand_with_its_far_chain_is_summed(self, tri, store, side, one, two):
        r1 = self.rep(tri, *one, end_chain=chain(tri, (0, 1)))
        out = end_sum(tri, r1, self.rep(tri, *two), side, store)
        assert out.interval == two[:2]


def _other_dimension(state, rep):
    index = state.filtration.index()
    others = sum(m for q, m in enumerate(index.dims) if q != rep.dim)
    if others:
        rep.cycles[0] ^= others & -others
        return f"index {rep.b}: cycle holds a simplex not of dimension {rep.dim}"


def _outside(state, rep):
    rep.cycles[-1] ^= state.filtration.index().number(Simplex(range(90, 91 + rep.dim)))
    return f"index {rep.d}: cycle not contained in the complex"


def _not_a_cycle(state, rep):
    index = state.filtration.index()
    present = index.masks[rep.b] & index.dims[rep.dim]
    if rep.dim:
        rep.cycles[0] ^= present & -present
        return f"index {rep.b}: not a cycle"


def _not_bounding(state, rep):
    index, b, p = state.filtration.index(), rep.b, rep.dim
    home = index.masks[b + 1] if state.filtration.steps[b].is_add else index.masks[b]
    present = home & (index.dims[p + 1] if p + 1 < len(index.dims) else 0)
    if b < rep.d and present:
        rep.chains[1] ^= present & -present
        return f"index {b}: chain does not bound the cycle difference"


def _missing_end_simplex(state, rep):
    steps, flags = state.filtration.steps, state.filtration.index().flags
    birth, death = steps[rep.b - 1], steps[rep.d]
    if not birth.is_add:
        rep.chains[0] ^= flags[birth.simplex]
        return f"birth: {birth.simplex.text()} missing from the birth chain"
    if death.is_add:
        rep.chains[-1] ^= flags[death.simplex]
        return f"death: {death.simplex.text()} missing from the death chain"
    if rep.dim == 0 and rep.b == rep.d:
        rep.cycles[0] ^= flags[birth.simplex]
        return f"birth: {birth.simplex.text()} missing from the birth cycle"


class TestCertificateNamesCorruption:
    """One rep of a certified random state corrupted one way: the
    certificate names that fault, and only it."""

    @pytest.mark.parametrize("corrupt", [_other_dimension, _outside, _not_a_cycle,
                                         _not_bounding, _missing_end_simplex])
    def test_named(self, corrupt):
        named = 0
        for seed in range(60):
            state = state_from_filtration(random_filtration(
                random.Random(seed), [0, 1, 2, 3, 4], dim_cap=2, max_simplices=16,
                max_length=40))
            assert state.check_certificate() == []
            for iid in sorted(state.intervals):
                rep = state.intervals[iid]
                want = corrupt(state, rep)
                if want is not None:
                    assert state.check_certificate() == [
                        f"interval {iid} [{rep.b},{rep.d}] dim {rep.dim}: {want}"]
                    named += 1
                    break
        assert named >= 10


class TestConcat:
    def test_plain_splice_with_empty_witness(self, rng):
        state = certified_state(rng, max_simplices=8, max_length=18)
        f = state.filtration
        for iv in state.intervals.values():
            if iv.b == iv.d:
                continue
            mid = (iv.b + iv.d) // 2
            out = joined(prefix(iv, mid), suffix(iv, mid), 0, state.store)
            assert validate_rep(f, out, store=state.store) is None
            return

    def test_bad_witness_rejected(self, tri, store):
        left = RepSeq(1, 2, 0, [chain(tri, (0,))] * 2, [None, 0, None], kind="post_birth")
        right = RepSeq(2, 2, 0, [chain(tri, (0,), (1,))], [None, chain(tri, (0, 1))],
                       kind="pre_death")
        with pytest.raises(ContractViolation, match="witness does not bound"):
            joined(left, right, 0, store)


class TestStore:
    def test_sums_are_values(self, tri, store):
        a = chain(tri, (0,))
        assert chain(tri, (0,)) == a
        # the sum of a chain with itself is the empty chain, 0
        e = chain(tri, (0, 1))
        assert store.add(e, e) == 0
        assert store.add(e, chain(tri, (0, 1), (0, 2))) == chain(tri, (0, 2))

    def test_an_empty_operand_gives_the_other_and_counts(self, tri, store):
        a = chain(tri, (0,))
        before = store.merge_count
        assert store.add(0, a) == store.add(a, 0) == a
        assert store.add(None, a) == a and store.add(a, None) == a
        assert store.add(None, None) is None
        assert store.merge_count - before == 5

    def test_boundary_and_size_read_the_index(self, tri, store):
        c = chain(tri, (0, 1, 2))
        assert store.boundary(c) == chain(tri, (0, 1), (0, 2), (1, 2))
        assert len(store) == len(tri.index().flags) == 7

    def test_copy_on_write_between_reps(self, rng):
        # records are shared between reps, but rewriting one never leaks
        state = certified_state(rng, max_simplices=8, max_length=18)
        iv = next(iter(state.intervals.values()))
        head = prefix(iv, iv.d)
        assert all(x is y for x, y in zip(head.cycles, iv.cycles))
        snapshot = list(iv.cycles)
        head.cycles.reverse()  # local mutation of the truncation's own list
        assert iv.cycles == snapshot
