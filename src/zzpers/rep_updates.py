"""The eight atomic update operations, maintaining interval representatives.

Each operation edits the filtration inside a PersistenceState and rewrites
the affected representatives so the pairing-with-representatives certificate
keeps holding.  Operations validate their preconditions before touching
anything and leave the state unchanged on error.
"""

from __future__ import annotations

from functools import cmp_to_key
from typing import Iterable, Optional

from .chains import Chain, Simplex
from .errors import ContractViolation
from .filtration import ZigzagFiltration
from .ops import SWITCH, check, edit, spec
from .reps import (FULL, POST_BIRTH, PRE_DEATH, ChainStore, RepSeq, prefix,
                   rep_sum, suffix, sum_post_birth, sum_pre_death,
                   validate_rep)
from .results import CREATED, DESTROYED, OpResult


class Interval:
    """One bar of the barcode together with its certificate."""

    __slots__ = ("id", "rep", "b", "d", "dim")

    def __init__(self, id: int, rep: RepSeq):
        self.id = id
        self.set_rep(rep)

    def set_rep(self, rep: RepSeq) -> None:
        self.rep = rep
        self.b = rep.b
        self.d = rep.d
        self.dim = rep.dim


class PersistenceState:
    """A filtration, its barcode as a pairing, and one representative per bar."""

    def __init__(self, filtration: Optional[ZigzagFiltration] = None):
        self.filtration = filtration.copy() if filtration else ZigzagFiltration()
        self.store = ChainStore()
        self.intervals: dict[int, Interval] = {}
        self.births: dict[int, int] = {}
        self.deaths: dict[int, int] = {}
        self._next_id = 0

    def fresh_id(self) -> int:
        self._next_id += 1
        return self._next_id - 1

    def add_interval(self, rep: RepSeq, id: Optional[int] = None) -> Interval:
        itv = Interval(self.fresh_id() if id is None else id, rep)
        self.intervals[itv.id] = itv
        self.births[itv.b] = itv.id
        self.deaths[itv.d] = itv.id
        return itv

    def barcode(self) -> list[tuple[int, int, int]]:
        return sorted((iv.dim, iv.b, iv.d) for iv in self.intervals.values())

    def pairing(self) -> dict[int, int]:
        return {iv.b: iv.d for iv in self.intervals.values()}

    def interval_at_birth(self, b: int) -> Optional[Interval]:
        iid = self.births.get(b)
        return None if iid is None else self.intervals[iid]

    def interval_at_death(self, d: int) -> Optional[Interval]:
        iid = self.deaths.get(d)
        return None if iid is None else self.intervals[iid]

    def check_certificate(self) -> list[str]:
        """Empty iff the pairing plus representatives certify the barcode."""
        errs: list[str] = []
        m = len(self.filtration.steps)
        if len(self.intervals) != m // 2:
            errs.append(f"{len(self.intervals)} intervals, expected {m // 2}")
        births = [iv.b for iv in self.intervals.values()]
        deaths = [iv.d for iv in self.intervals.values()]
        if len(set(births)) != len(births):
            errs.append("duplicate birth positions")
        if len(set(deaths)) != len(deaths):
            errs.append("duplicate death positions")
        complexes = self.filtration.complexes()
        for iv in sorted(self.intervals.values(), key=lambda v: v.id):
            bad = validate_rep(self.filtration, iv.rep, complexes, self.store)
            if bad is not None:
                errs.append(f"interval {iv.id} [{iv.b},{iv.d}] dim {iv.dim}: {bad}")
        return errs


# ----------------------------------------------------------------------
# representative rebuilders shared by the operations


def _shifted(rep: RepSeq, delta: int) -> RepSeq:
    if delta == 0:
        return rep
    return RepSeq(rep.b + delta, rep.d + delta, rep.dim, rep.cycles, rep.chains,
                  kind=rep.kind)


def _stretched(rep: RepSeq, i: int, store: ChainStore) -> RepSeq:
    """Insert two indices at site i (both new cycles copy z_i); for [b,d] with
    b <= i <= d after an expansion at i."""
    k = i - rep.b
    z = rep.cycles[k]
    empty = store.chain(rep.dim + 1)
    cycles = rep.cycles[:k + 1] + [z, z] + rep.cycles[k + 1:]
    chains = rep.chains[:k + 1] + [empty, empty] + rep.chains[k + 1:]
    return RepSeq(rep.b, rep.d + 2, rep.dim, cycles, chains, kind=rep.kind)


def _merged_inward(rep: RepSeq, i: int, sigma: Simplex,
                   fix_cycle: Optional[Chain], store: ChainStore) -> RepSeq:
    """Collapse indices i-1,i,i+1 after an inward contraction at i, keeping
    the cycle at i-1.  fix_cycle (a cycle containing sigma) repairs the
    junction chain when it is sigma-relevant."""
    k = i - rep.b
    cbar = store.add(rep.chains[k], rep.chains[k + 1])
    if sigma in cbar:
        if fix_cycle is None:
            raise AssertionError("sigma-relevant junction without a repair cycle")
        cbar = store.add(cbar, fix_cycle)
    after = rep.chains[k + 2]
    combined = None if after is None else store.add(cbar, after)
    cycles = rep.cycles[:k] + rep.cycles[k + 2:]
    chains = rep.chains[:k] + [combined] + rep.chains[k + 3:]
    return RepSeq(rep.b, rep.d - 2, rep.dim, cycles, chains, kind=rep.kind)


def _merged_outward(rep: RepSeq, i: int, store: ChainStore) -> RepSeq:
    """Collapse indices i-1,i,i+1 after an outward contraction at i, keeping
    the cycle at i (which lives in the smaller middle complex)."""
    k = i - rep.b
    before = rep.chains[k - 1]
    comb1 = None if before is None else store.add(before, rep.chains[k])
    after = rep.chains[k + 2]
    comb2 = None if after is None else store.add(rep.chains[k + 1], after)
    cycles = rep.cycles[:k - 1] + [rep.cycles[k]] + rep.cycles[k + 2:]
    chains = rep.chains[:k - 1] + [comb1, comb2] + rep.chains[k + 3:]
    return RepSeq(rep.b, rep.d - 2, rep.dim, cycles, chains, kind=rep.kind)


def _extended_right(rep: RepSeq, new_cycle: Chain, new_death: Optional[Chain],
                    store: ChainStore) -> RepSeq:
    """Append a copy-index at d+1 with an empty junction chain."""
    cycles = rep.cycles + [new_cycle]
    chains = rep.chains[:-1] + [store.chain(rep.dim + 1), new_death]
    return RepSeq(rep.b, rep.d + 1, rep.dim, cycles, chains, kind=rep.kind)


def _prepended_left(rep: RepSeq, new_cycle: Chain, new_birth: Optional[Chain],
                    store: ChainStore) -> RepSeq:
    """Prepend a copy-index at b-1 with an empty junction chain."""
    cycles = [new_cycle] + rep.cycles
    chains = [new_birth, store.chain(rep.dim + 1)] + rep.chains[1:]
    return RepSeq(rep.b - 1, rep.d, rep.dim, cycles, chains, kind=rep.kind)


def _dropped_left(rep: RepSeq, new_birth: Optional[Chain]) -> RepSeq:
    """Remove the first index; new_birth becomes the birth chain at b."""
    return RepSeq(rep.b + 1, rep.d, rep.dim, rep.cycles[1:],
                  [new_birth] + rep.chains[2:], kind=rep.kind)


def _dropped_right(rep: RepSeq, new_death: Optional[Chain]) -> RepSeq:
    """Remove the last index; new_death becomes the death chain at d."""
    return RepSeq(rep.b, rep.d - 1, rep.dim, rep.cycles[:-1],
                  rep.chains[:-2] + [new_death], kind=rep.kind)


def _splice_at_site(left: RepSeq, right: RepSeq, witness: Chain, site: int,
                    store: ChainStore) -> RepSeq:
    """Concatenate a post-birth rep ending at site-1 (old coords) with a
    pre-death rep starting at site+1, across a contraction at `site`.

    boundary(witness) must equal the sum of left's last and right's first
    cycles; the result lives in post-contraction coordinates."""
    if left.d != site - 1 or right.b != site + 1:
        raise ContractViolation("splice parts do not flank the contraction site")
    if store.boundary(witness) != store.add(left.cycles[-1], right.cycles[0]):
        raise ContractViolation("witness does not bound the junction difference")
    # an addition-born single-index part keeps its undefined birth chain
    joint = left.chains[-2]
    joint = None if joint is None else store.add(joint, witness)
    cycles = left.cycles[:-1] + right.cycles
    chains = left.chains[:-2] + [joint] + right.chains[1:]
    return RepSeq(left.b, right.d - 2, left.dim, cycles, chains, kind=FULL)


# ----------------------------------------------------------------------
# linear algebra: boundary bases and expressing cycles over them


def boundary_basis(cx: Iterable[Simplex], p: int,
                   store: Optional[ChainStore] = None) -> list[tuple[Chain, Chain]]:
    """Independent p-boundaries of the complex, each with a bounding witness.

    Columns are processed in sorted simplex order; pivots are the largest
    simplex of the reduced column, so reruns are identical.
    """
    if store is None:
        store = ChainStore()
    gens: list[tuple[Chain, Chain]] = []
    pivots: dict[Simplex, int] = {}
    for t in sorted(s for s in cx if s.dimension == p + 1):
        wit = store.chain(p + 1, [t])
        col = store.boundary(wit)
        col, wit = _reduce_pair(col, wit, pivots, gens, store)
        if col:
            pivots[max(col.simplices)] = len(gens)
            gens.append((col, wit))
    return gens


def _reduce_pair(col, wit, pivots, gens, store):
    while col:
        top = max(col.simplices)
        g = pivots.get(top)
        if g is None:
            break
        gcol, gwit = gens[g]
        col = store.add(col, gcol)
        wit = store.add(wit, gwit)
    return col, wit


def _express(target: Chain, bgens: list[tuple[Chain, Chain]],
             cycle_gens: list[tuple[int, Chain]], store: ChainStore,
             ) -> Optional[tuple[frozenset[int], Chain]]:
    """Write target as a sum of some cycle generators plus a boundary.

    Returns (keys of the cycle generators used, witness chain bounding the
    boundary part) or None when target is not expressible.
    """
    entries: list[tuple[Chain, frozenset[int], Chain]] = []
    pivots: dict[Simplex, int] = {}
    empty_keys: frozenset[int] = frozenset()
    for col, wit in bgens:
        if col:
            pivots[max(col.simplices)] = len(entries)
            entries.append((col, empty_keys, wit))
    empty_wit = store.chain(target.dimension + 1)
    for key, cyc in cycle_gens:
        col, keys, wit = cyc, frozenset([key]), empty_wit
        while col:
            top = max(col.simplices)
            g = pivots.get(top)
            if g is None:
                break
            gcol, gkeys, gwit = entries[g]
            col = store.add(col, gcol)
            keys = keys ^ gkeys
            wit = store.add(wit, gwit)
        if not col:
            raise AssertionError("representative cycles must be independent mod boundaries")
        pivots[max(col.simplices)] = len(entries)
        entries.append((col, keys, wit))
    col, keys, wit = target, empty_keys, empty_wit
    while col:
        top = max(col.simplices)
        g = pivots.get(top)
        if g is None:
            return None
        gcol, gkeys, gwit = entries[g]
        col = store.add(col, gcol)
        keys = keys ^ gkeys
        wit = store.add(wit, gwit)
    return keys, wit


# ----------------------------------------------------------------------
# switches


def _commit(state: PersistenceState, changed: dict[int, RepSeq],
            destroyed: Iterable[int] = (), created: Iterable[RepSeq] = ()) -> dict[int, object]:
    """Apply rewritten representatives in place.

    Returns the vine map; ids absent from it are unchanged (identity vines).
    """
    vines: dict[int, object] = {}
    intervals = state.intervals
    births, deaths = state.births, state.deaths
    for iid in changed:
        iv = intervals[iid]
        births.pop(iv.b, None)
        deaths.pop(iv.d, None)
    for iid in destroyed:
        iv = intervals.pop(iid)
        births.pop(iv.b, None)
        deaths.pop(iv.d, None)
        vines[iid] = DESTROYED
    for iid, rep in changed.items():
        iv = intervals[iid]
        iv.set_rep(rep)
        births[iv.b] = iid
        deaths[iv.d] = iid
        vines[iid] = iid
    for rep in created:
        iid = state.fresh_id()
        iv = Interval(iid, rep)
        intervals[iid] = iv
        births[iv.b] = iid
        deaths[iv.d] = iid
        vines[iid] = CREATED
    return vines


def forward_switch(state: PersistenceState, i: int) -> OpResult:
    """Swap two consecutive additions at steps i-1, i."""
    f = state.filtration
    check(f, "fs", i)
    sigma = f.steps[i - 1].simplex
    st = state.store
    born_i = state.interval_at_birth(i)
    born_i1 = state.interval_at_birth(i + 1)
    died_im1 = state.interval_at_death(i - 1)
    died_i = state.interval_at_death(i)

    new_reps: dict[int, RepSeq] = {}
    touched: set[int] = set()

    def rewire_spanning(iv: Interval) -> RepSeq:
        rep = iv.rep
        k = i - rep.b
        if sigma in rep.chains[k].simplices or sigma in rep.cycles[k].simplices:
            cycles = rep.cycles[:k] + [rep.cycles[k - 1]] + rep.cycles[k + 1:]
            cji = _add_defined(st, rep.chains[k], rep.chains[k + 1])
            chains = rep.chains[:k] + [st.chain(rep.dim + 1), cji] + rep.chains[k + 2:]
            return RepSeq(rep.b, rep.d, rep.dim, cycles, chains, kind=rep.kind)
        return rep

    if born_i is not None and born_i1 is not None:
        # two births
        z1, z2 = born_i.rep, born_i1.rep
        touched = {born_i.id, born_i1.id}
        if sigma in z2.cycle_at(i + 1):
            if f.death_order_less(z1.d, z2.d):
                z2 = rep_sum(f, z1, z2, i + 1, st)
            else:
                summed = rep_sum(f, z1, z2, i + 1, st)
                new_reps[born_i.id] = _prepended_left(summed, summed.cycle_at(i + 1), None, st)
                new_reps[born_i1.id] = z2
                z1 = None
        if z1 is not None:
            # ids follow the deaths: d1 stays with born_i, d2 with born_i1
            new_reps[born_i.id] = _dropped_left(z1, None)
            new_reps[born_i1.id] = _prepended_left(z2, z2.cycle_at(i + 1), None, st)
    elif died_im1 is not None and died_i is not None:
        # two deaths
        z1, z2 = died_im1.rep, died_i.rep
        touched = {died_im1.id, died_i.id}
        csum = st.add(z2.chain_at(i - 1), z2.chains[-1])
        if sigma not in csum:
            new_reps[died_im1.id] = _extended_right(z1, z1.cycle_at(i - 1), z1.chains[-1], st)
            new_reps[died_i.id] = _dropped_right(z2, csum)
        elif f.birth_order_less(z1.b, z2.b):
            new_reps[died_im1.id] = _extended_right(z1, z1.cycle_at(i - 1), z1.chains[-1], st)
            head = sum_post_birth(f, prefix(z1, i - 1), prefix(z2, i - 1), st)
            death = st.add(z1.chains[-1], csum)
            new_reps[died_i.id] = RepSeq(head.b, i - 1, head.dim, head.cycles,
                                         head.chains[:-1] + [death], kind=FULL)
        else:
            cycles = z2.cycles[:-1] + [z2.cycle_at(i - 1)]
            chains = z2.chains[:-2] + [st.chain(z2.dim + 1), csum]
            new_reps[died_i.id] = RepSeq(z2.b, i, z2.dim, cycles, chains, kind=FULL)
            head = sum_post_birth(f, prefix(z2, i - 1), prefix(z1, i - 1), st)
            death = st.add(z1.chains[-1], csum)
            new_reps[died_im1.id] = RepSeq(head.b, i - 1, head.dim, head.cycles,
                                           head.chains[:-1] + [death], kind=FULL)
    elif born_i is not None and died_i is not None:
        # birth then death: [b,i] and [i,d] split apart
        z1, z2 = died_i.rep, born_i.rep
        if died_i.id == born_i.id:
            raise AssertionError("[i,i] cannot occur when sigma is not a face of tau")
        touched = {died_i.id, born_i.id}
        cpair = st.add(z1.chain_at(i - 1), z1.chains[-1])
        if sigma in cpair:
            cpair = st.add(cpair, z2.cycle_at(i))
        new_reps[died_i.id] = _dropped_right(z1, cpair)
        new_reps[born_i.id] = _dropped_left(z2, None)
    else:
        # death then birth
        assert died_im1 is not None and born_i1 is not None
        z1, z2 = died_im1.rep, born_i1.rep
        touched = {died_im1.id, born_i1.id}
        if sigma in z2.cycle_at(i + 1):
            death = st.add(z1.chains[-1], z2.cycle_at(i + 1))
            new_reps[died_im1.id] = RepSeq(z1.b, z1.d, z1.dim, z1.cycles,
                                           z1.chains[:-1] + [death], kind=FULL)
            new_reps[born_i1.id] = z2
        else:
            new_reps[died_im1.id] = _extended_right(z1, z1.cycle_at(i - 1),
                                                    z1.chains[-1], st)
            new_reps[born_i1.id] = _prepended_left(z2, z2.cycle_at(i + 1), None, st)

    for iv in state.intervals.values():
        if iv.b < i and iv.d > i and iv.id not in touched:
            rewired = rewire_spanning(iv)
            if rewired is not iv.rep:
                new_reps[iv.id] = rewired
    edit(f, "fs", i)
    vines = _commit(state, new_reps)
    return OpResult("fs", i, vines=vines, stats={})


def _add_defined(store: ChainStore, a: Optional[Chain], b: Optional[Chain]) -> Chain:
    if a is None or b is None:
        raise AssertionError("expected both chains to be defined here")
    return store.add(a, b)


def backward_switch(state: PersistenceState, i: int) -> OpResult:
    """Swap two consecutive deletions at steps i-1, i (mirror of forward)."""
    f = state.filtration
    check(f, "bs", i)
    tau = f.steps[i].simplex
    st = state.store
    born_i = state.interval_at_birth(i)
    born_i1 = state.interval_at_birth(i + 1)
    died_im1 = state.interval_at_death(i - 1)
    died_i = state.interval_at_death(i)

    new_reps: dict[int, RepSeq] = {}
    touched: set[int] = set()

    def rewire_spanning(iv: Interval) -> RepSeq:
        rep = iv.rep
        k = i - rep.b
        if tau in rep.chains[k + 1].simplices or tau in rep.cycles[k].simplices:
            cycles = rep.cycles[:k] + [rep.cycles[k + 1]] + rep.cycles[k + 1:]
            cjm = _add_defined(st, rep.chains[k], rep.chains[k + 1])
            chains = rep.chains[:k] + [cjm, st.chain(rep.dim + 1)] + rep.chains[k + 2:]
            return RepSeq(rep.b, rep.d, rep.dim, cycles, chains, kind=rep.kind)
        return rep

    if died_im1 is not None and died_i is not None:
        # two deaths (mirror of two births)
        z2, z1 = died_im1.rep, died_i.rep
        touched = {died_im1.id, died_i.id}
        if tau in z2.cycle_at(i - 1):
            if f.birth_order_less(z1.b, z2.b):
                z2 = rep_sum(f, z1, z2, i - 1, st)
            else:
                summed = rep_sum(f, z1, z2, i - 1, st)
                new_reps[died_i.id] = _extended_right(summed, summed.cycle_at(i - 1), None, st)
                new_reps[died_im1.id] = z2
                z1 = None
        if z1 is not None:
            new_reps[died_i.id] = _dropped_right(z1, None)
            new_reps[died_im1.id] = _extended_right(z2, z2.cycle_at(i - 1), None, st)
    elif born_i is not None and born_i1 is not None:
        # two births (mirror of two deaths)
        g1, g2 = born_i.rep, born_i1.rep
        touched = {born_i.id, born_i1.id}
        bsum = st.add(g1.chains[0], g1.chain_at(i))
        # ids follow the deaths: dG1 stays with born_i, dG2 with born_i1
        if tau not in bsum:
            new_reps[born_i1.id] = _prepended_left(g2, g2.cycle_at(i + 1), g2.chains[0], st)
            new_reps[born_i.id] = _dropped_left(g1, bsum)
        elif f.death_order_less(g2.d, g1.d):
            new_reps[born_i1.id] = _prepended_left(g2, g2.cycle_at(i + 1), g2.chains[0], st)
            tail = sum_pre_death(f, suffix(g2, i + 1), suffix(g1, i + 1), st)
            birth = st.add(g2.chains[0], bsum)
            new_reps[born_i.id] = RepSeq(i + 1, tail.d, tail.dim, tail.cycles,
                                         [birth] + tail.chains[1:], kind=FULL)
        else:
            cycles = [g1.cycle_at(i + 1)] + g1.cycles[1:]
            chains = [bsum, st.chain(g1.dim + 1)] + g1.chains[2:]
            new_reps[born_i.id] = RepSeq(i, g1.d, g1.dim, cycles, chains, kind=FULL)
            tail = sum_pre_death(f, suffix(g1, i + 1), suffix(g2, i + 1), st)
            birth = st.add(g2.chains[0], bsum)
            new_reps[born_i1.id] = RepSeq(i + 1, tail.d, tail.dim, tail.cycles,
                                          [birth] + tail.chains[1:], kind=FULL)
    elif born_i is not None and died_i is not None:
        # birth then death at i (mirror of forward case C)
        z1, z2 = died_i.rep, born_i.rep
        if died_i.id == born_i.id:
            raise AssertionError("[i,i] cannot occur when tau is not a face of sigma")
        touched = {died_i.id, born_i.id}
        new_reps[died_i.id] = _dropped_right(z1, None)
        bpair = st.add(z2.chains[0], z2.chain_at(i))
        if tau in bpair:
            bpair = st.add(bpair, z1.cycle_at(i))
        new_reps[born_i.id] = _dropped_left(z2, bpair)
    else:
        # death at i-1, birth at i+1 (mirror of forward case D)
        assert died_im1 is not None and born_i1 is not None
        z1, z2 = died_im1.rep, born_i1.rep
        touched = {died_im1.id, born_i1.id}
        if tau in z1.cycle_at(i - 1):
            new_reps[died_im1.id] = z1
            birth = st.add(z2.chains[0], z1.cycle_at(i - 1))
            new_reps[born_i1.id] = RepSeq(z2.b, z2.d, z2.dim, z2.cycles,
                                          [birth] + z2.chains[1:], kind=FULL)
        else:
            new_reps[born_i1.id] = _prepended_left(z2, z2.cycle_at(i + 1), z2.chains[0], st)
            new_reps[died_im1.id] = _extended_right(z1, z1.cycle_at(i - 1), None, st)

    for iv in state.intervals.values():
        if iv.b < i and iv.d > i and iv.id not in touched:
            rewired = rewire_spanning(iv)
            if rewired is not iv.rep:
                new_reps[iv.id] = rewired
    edit(f, "bs", i)
    vines = _commit(state, new_reps)
    return OpResult("bs", i, vines=vines, stats={})


def outward_switch(state: PersistenceState, i: int) -> OpResult:
    """Turn an addition followed by a deletion into deletion-then-addition."""
    check(state.filtration, "os", i)
    steps = state.filtration.steps
    sigma, tau = steps[i - 1].simplex, steps[i].simplex
    st = state.store
    new_reps: dict[int, RepSeq] = {}
    for iv in state.intervals.values():
        b, d = iv.b, iv.d
        if b > i + 1 or d < i - 1:
            continue
        rep = iv.rep
        if b == i and d == i:
            if rep.dim < 1:
                raise AssertionError("a [i,i] bar at an outward site has dimension >= 1")
            tau_chain = st.chain(rep.dim, [tau])
            cyc = st.boundary(tau_chain)
            cprime = st.add(rep.cycles[0], tau_chain)
            new_reps[iv.id] = RepSeq(i, i, rep.dim - 1, [cyc], [tau_chain, cprime],
                                     kind=FULL)
        elif b < i and d == i:
            new_reps[iv.id] = _dropped_right(rep, None)
        elif b == i and d > i:
            new_reps[iv.id] = _dropped_left(rep, None)
        elif b < i < d:
            c1, c2 = rep.chain_at(i - 1), rep.chain_at(i)
            if sigma not in c1 and tau not in c2:
                continue
            s = st.add(c1, c2)
            k = i - rep.b
            if sigma not in s:
                cycles = rep.cycles[:k] + [rep.cycles[k + 1]] + rep.cycles[k + 1:]
                chains = rep.chains[:k] + [s, st.chain(rep.dim + 1)] + rep.chains[k + 2:]
            elif tau not in s:
                cycles = rep.cycles[:k] + [rep.cycles[k - 1]] + rep.cycles[k + 1:]
                chains = rep.chains[:k] + [st.chain(rep.dim + 1), s] + rep.chains[k + 2:]
            else:
                sig_chain = st.chain(rep.dim + 1, [sigma])
                z = st.add(rep.cycles[k + 1], st.boundary(sig_chain))
                cycles = rep.cycles[:k] + [z] + rep.cycles[k + 1:]
                chains = rep.chains[:k] + [st.add(s, sig_chain), sig_chain] + rep.chains[k + 2:]
            new_reps[iv.id] = RepSeq(b, d, rep.dim, cycles, chains, kind=rep.kind)
        elif b == i + 1:
            birth = rep.chains[0]
            if sigma not in birth:
                new_reps[iv.id] = _prepended_left(rep, rep.cycles[0], birth, st)
            else:
                sig_chain = st.chain(rep.dim + 1, [sigma])
                z = st.add(rep.cycles[0], st.boundary(sig_chain))
                cycles = [z] + rep.cycles
                chains = [st.add(birth, sig_chain), sig_chain] + rep.chains[1:]
                new_reps[iv.id] = RepSeq(i, d, rep.dim, cycles, chains, kind=rep.kind)
        elif d == i - 1:
            death = rep.chains[-1]
            if tau not in death:
                new_reps[iv.id] = _extended_right(rep, rep.cycles[-1], death, st)
            else:
                tau_chain = st.chain(rep.dim + 1, [tau])
                z = st.add(rep.cycles[-1], st.boundary(tau_chain))
                cycles = rep.cycles + [z]
                chains = rep.chains[:-1] + [tau_chain, st.add(death, tau_chain)]
                new_reps[iv.id] = RepSeq(b, i, rep.dim, cycles, chains, kind=rep.kind)
    edit(state.filtration, "os", i)
    vines = _commit(state, new_reps)
    return OpResult("os", i, vines=vines, stats={})


def inward_switch(state: PersistenceState, i: int) -> OpResult:
    """Turn a deletion followed by an addition into addition-then-deletion."""
    check(state.filtration, "is", i)
    st = state.store
    new_reps: dict[int, RepSeq] = {}
    for iv in state.intervals.values():
        b, d = iv.b, iv.d
        if b > i + 1 or d < i - 1 or (b < i < d):
            continue
        rep = iv.rep
        if b == i and d == i:
            cyc = _add_defined(st, rep.chains[0], rep.chains[-1])
            new_reps[iv.id] = RepSeq(i, i, rep.dim + 1, [cyc], [None, None], kind=FULL)
        elif b < i and d == i:
            death = _add_defined(st, rep.chain_at(i - 1), rep.chains[-1])
            new_reps[iv.id] = _dropped_right(rep, death)
        elif b == i and d > i:
            birth = _add_defined(st, rep.chains[0], rep.chain_at(i))
            new_reps[iv.id] = _dropped_left(rep, birth)
        elif b == i + 1:
            new_reps[iv.id] = _prepended_left(rep, rep.cycles[0], None, st)
        elif d == i - 1:
            new_reps[iv.id] = _extended_right(rep, rep.cycles[-1], None, st)
    edit(state.filtration, "is", i)
    vines = _commit(state, new_reps)
    return OpResult("is", i, vines=vines, stats={})


# ----------------------------------------------------------------------
# expansions and contractions


def _classify_disposition(rep: RepSeq, i: int) -> str:
    """How an untouched interval relates to an edit site at position i."""
    if rep.b <= i <= rep.d:
        return "contains"
    if rep.b > i:
        return "above"
    return "below"


def outward_expansion(state: PersistenceState, i: int, sigma: Simplex) -> OpResult:
    """Insert delete(sigma), add(sigma) at step positions i, i+1."""
    f = state.filtration
    check(f, "oe", i, sigma)
    st = state.store
    p = sigma.dimension

    members = [iv for iv in state.intervals.values()
               if iv.dim == p and iv.b <= i <= iv.d]
    lam = {iv.id for iv in members if sigma in iv.rep.cycle_at(i)}
    new_reps: dict[int, RepSeq] = {}
    created: list[RepSeq] = []
    reps_now = {iv.id: iv.rep for iv in state.intervals.values()}

    if not lam:
        # the deletion kills the boundary class of sigma: one new bar
        if p < 1:
            raise AssertionError("a vertex always lies in a 0-cycle")
        sig_chain = st.chain(p, [sigma])
        created.append(RepSeq(i + 1, i + 1, p - 1, [st.boundary(sig_chain)],
                              [sig_chain, sig_chain], kind=FULL))
        consumed: set[int] = set()
    else:
        # merge comparable sigma-carrying bars, then re-pair around the site
        _make_incomparable(f, lam, reps_now, i, st, drop_smaller=False)
        chain_ids = _by_birth(f, reps_now, lam)
        zetas = [reps_now[j] for j in chain_ids]
        ell = len(zetas)
        for r in range(ell - 1):
            summed = rep_sum(f, zetas[r], zetas[r + 1], i, st)
            new_reps[chain_ids[r + 1]] = _stretched(summed, i, st)
        first = prefix(zetas[0], i)
        new_reps[chain_ids[0]] = RepSeq(first.b, i, p, first.cycles,
                                        first.chains[:-1] + [None], kind=FULL)
        last = suffix(zetas[-1], i)
        created.append(RepSeq(i + 2, zetas[-1].d + 2, p, last.cycles,
                              [None] + last.chains[1:], kind=FULL))
        consumed = set(chain_ids)

    for iv in state.intervals.values():
        if iv.id in consumed:
            continue
        rep = reps_now[iv.id]
        where = _classify_disposition(rep, i)
        if where == "contains":
            new_reps[iv.id] = _stretched(rep, i, st)
        elif where == "above":
            new_reps[iv.id] = _shifted(rep, 2)

    edit(f, "oe", i, sigma)
    vines = _commit(state, new_reps, created=created)
    return OpResult("oe", i, vines=vines,
                    stats={"injective": int(bool(lam)), "repaired": len(consumed)})


def outward_contraction(state: PersistenceState, i: int,
                        sigma: Optional[Simplex] = None) -> OpResult:
    """Remove a delete(sigma), add(sigma) pair at steps i-1, i."""
    f = state.filtration
    check(f, "oc", i, sigma)
    sigma = f.steps[i].simplex
    p = sigma.dimension
    st = state.store
    born_i = state.interval_at_birth(i)
    new_reps: dict[int, RepSeq] = {}
    created: list[RepSeq] = []
    destroyed: list[int] = []
    consumed: set[int] = set()
    reps_now = {iv.id: iv.rep for iv in state.intervals.values()}

    if born_i is not None:
        # surjective: the [i,i] bar disappears, everything else merges through
        if born_i.d != i:
            raise AssertionError("the bar born at the site must die there")
        destroyed.append(born_i.id)
        consumed.add(born_i.id)
    else:
        # injective: re-pair the bars around the vanishing death/birth pair
        star = state.interval_at_death(i - 1)
        circ = state.interval_at_birth(i + 1)
        assert star is not None and circ is not None
        members = [iv for iv in state.intervals.values()
                   if iv.dim == p and iv.b <= i + 1 <= iv.d and iv.id != circ.id]
        bgens = boundary_basis(f.complex_at(i + 1), p, st)
        cycle_gens = [(circ.id, circ.rep.cycle_at(i + 1))]
        cycle_gens += [(iv.id, iv.rep.cycle_at(i + 1))
                       for iv in sorted(members, key=lambda v: v.b)]
        expressed = _express(star.rep.cycle_at(i - 1), bgens, cycle_gens, st)
        if expressed is None:
            raise AssertionError("the dying cycle must be expressible over the basis")
        keys, witness = expressed
        if circ.id not in keys:
            raise AssertionError("the expression must involve the bar born at i+1")
        lam = set(keys) - {circ.id}
        zeta_star, zeta_circ = star.rep, circ.rep

        # enforce pairwise incomparability inside lam, keeping the witness exact
        _make_incomparable(f, lam, reps_now, i + 1, st, drop_smaller=True)
        # absorb lam members that precede the special bars; one pass does it,
        # since rep_sum keeps the later birth and the later death, so
        # zeta_star.b and zeta_circ.d never change
        for j in _by_birth(f, reps_now, lam):
            rj = reps_now[j]
            if f.birth_order_less(rj.b, zeta_star.b):
                zeta_star = rep_sum(f, zeta_star, rj, i - 1, st)
                witness = st.add(witness, st.add(rj.chain_at(i - 1), rj.chain_at(i)))
                lam.discard(j)
            elif f.death_order_less(rj.d, zeta_circ.d):
                zeta_circ = rep_sum(f, zeta_circ, rj, i + 1, st)
                lam.discard(j)

        chain_ids = _by_birth(f, reps_now, lam)
        zetas = [reps_now[j] for j in chain_ids]
        consumed = set(chain_ids) | {star.id, circ.id}
        destroyed.append(star.id)
        head = prefix(zeta_star, i - 1)
        acc_witness = witness
        tails: list[RepSeq] = [suffix(zeta_circ, i + 1)]
        for z in reversed(zetas):
            tails.append(sum_pre_death(f, tails[-1], suffix(z, i + 1), st))
        tails.reverse()  # tails[r] = circ summed with suffixes of zetas[r:]
        if not zetas:
            new_reps[circ.id] = _splice_at_site(head, tails[0], acc_witness, i, st)
        else:
            new_reps[chain_ids[0]] = _splice_at_site(head, tails[0], acc_witness, i, st)
            for r in range(len(zetas) - 1):
                head = sum_post_birth(f, head, prefix(zetas[r], i - 1), st)
                acc_witness = st.add(acc_witness,
                                     st.add(zetas[r].chain_at(i - 1), zetas[r].chain_at(i)))
                new_reps[chain_ids[r + 1]] = _splice_at_site(head, tails[r + 1],
                                                             acc_witness, i, st)
            head = sum_post_birth(f, head, prefix(zetas[-1], i - 1), st)
            acc_witness = st.add(acc_witness,
                                 st.add(zetas[-1].chain_at(i - 1), zetas[-1].chain_at(i)))
            new_reps[circ.id] = _splice_at_site(head, suffix(zeta_circ, i + 1),
                                                acc_witness, i, st)

    for iv in state.intervals.values():
        if iv.id in consumed:
            continue
        rep = reps_now[iv.id]
        if rep.b <= i - 1 and rep.d >= i + 1:
            new_reps[iv.id] = _merged_outward(rep, i, st)
        elif rep.b >= i + 1:
            new_reps[iv.id] = _shifted(rep, -2)

    edit(f, "oc", i)
    vines = _commit(state, new_reps, destroyed=destroyed)
    return OpResult("oc", i, vines=vines,
                    stats={"injective": int(born_i is None), "repaired": len(consumed)})


def inward_expansion(state: PersistenceState, i: int, sigma: Simplex) -> OpResult:
    """Insert add(sigma), delete(sigma) at step positions i, i+1."""
    f = state.filtration
    cx = check(f, "ie", i, sigma)
    st = state.store
    p = sigma.dimension
    new_reps: dict[int, RepSeq] = {}
    created: list[RepSeq] = []
    consumed: set[int] = set()
    reps_now = {iv.id: iv.rep for iv in state.intervals.values()}

    sig_chain = st.chain(p, [sigma])
    if p == 0:
        expressed = (frozenset(), st.chain(0))
    else:
        members = [iv for iv in state.intervals.values()
                   if iv.dim == p - 1 and iv.b <= i <= iv.d]
        bgens = boundary_basis(cx.simplices, p - 1, st)
        cycle_gens = [(iv.id, iv.rep.cycle_at(i))
                      for iv in sorted(members, key=lambda v: v.b)]
        expressed = _express(st.boundary(sig_chain), bgens, cycle_gens, st)
        if expressed is None:
            raise AssertionError("a simplex boundary is always a cycle of its faces")
    keys, witness = expressed

    if not keys:
        # injective: one new bar carried by a cycle through sigma
        z = st.add(sig_chain, witness) if p > 0 else sig_chain
        created.append(RepSeq(i + 1, i + 1, p, [z], [None, None], kind=FULL))
    else:
        chain_ids = _by_birth(f, reps_now, keys)
        zetas = [reps_now[j] for j in chain_ids]
        ell = len(zetas)
        consumed = set(chain_ids)
        death_chain = st.add(sig_chain, witness)

        head = prefix(zetas[0], i)
        for z in zetas[1:]:
            head = sum_post_birth(f, head, prefix(z, i), st)
        new_reps[chain_ids[-1]] = RepSeq(head.b, i, p - 1, head.cycles,
                                         head.chains[:-1] + [death_chain], kind=FULL)
        death = cmp_to_key(f.death_cmp)
        by_death = sorted(range(ell), key=lambda r: death(zetas[r].d))
        tail = suffix(zetas[by_death[0]], i)
        for r in by_death[1:]:
            tail = sum_pre_death(f, tail, suffix(zetas[r], i), st)
        created.append(RepSeq(i + 2, tail.d + 2, p - 1, tail.cycles,
                              [death_chain] + tail.chains[1:], kind=FULL))

        paired_deaths = {zetas[by_death[-1]].d}
        run_head = prefix(zetas[0], i)
        for r in range(ell - 1):
            zr = zetas[r]
            if r > 0:
                run_head = sum_post_birth(f, run_head, prefix(zr, i), st)
            if zr.d not in paired_deaths:
                paired_deaths.add(zr.d)
                new_reps[chain_ids[r]] = _stretched(zr, i, st)
                continue
            rest = [t for t in range(r + 1, ell) if zetas[t].d not in paired_deaths]
            delta = max((zetas[t].d for t in rest), key=death)
            paired_deaths.add(delta)
            by_d = sorted(rest, key=lambda t: death(zetas[t].d))
            tail_r = suffix(zetas[by_d[0]], i)
            for t in by_d[1:]:
                tail_r = sum_pre_death(f, tail_r, suffix(zetas[t], i), st)
            joined = _concat_after_insert(_extend_prefix_copy(run_head, st),
                                          _prepend_suffix_copy(tail_r, st),
                                          death_chain, i, st)
            new_reps[chain_ids[r]] = joined

    for iv in state.intervals.values():
        if iv.id in consumed:
            continue
        rep = reps_now[iv.id]
        where = _classify_disposition(rep, i)
        if where == "contains":
            new_reps[iv.id] = _stretched(rep, i, st)
        elif where == "above":
            new_reps[iv.id] = _shifted(rep, 2)

    edit(f, "ie", i, sigma)
    vines = _commit(state, new_reps, created=created)
    return OpResult("ie", i, vines=vines,
                    stats={"injective": int(not keys), "repaired": len(consumed)})


def inward_contraction(state: PersistenceState, i: int,
                       sigma: Optional[Simplex] = None) -> OpResult:
    """Remove an add(sigma), delete(sigma) pair at steps i-1, i."""
    f = state.filtration
    check(f, "ic", i, sigma)
    sigma = f.steps[i].simplex
    st = state.store
    born_i = state.interval_at_birth(i)
    new_reps: dict[int, RepSeq] = {}
    destroyed: list[int] = []
    consumed: set[int] = set()
    reps_now = {iv.id: iv.rep for iv in state.intervals.values()}
    fix_cycle: Optional[Chain] = None

    if born_i is not None:
        # injective: the [i,i] bar disappears; its cycle repairs junctions
        if born_i.d != i:
            raise AssertionError("the bar born at the site must die there")
        fix_cycle = born_i.rep.cycles[0]
        destroyed.append(born_i.id)
        consumed.add(born_i.id)
    else:
        # surjective: re-pair around the vanishing death i-1 / birth i+1
        star = state.interval_at_death(i - 1)
        circ = state.interval_at_birth(i + 1)
        assert star is not None and circ is not None
        lam = {iv.id for iv in state.intervals.values()
               if iv.b <= i - 1 and iv.d >= i + 1
               and sigma in st.add(iv.rep.chain_at(i - 1), iv.rep.chain_at(i))}
        zeta_star, zeta_circ = star.rep, circ.rep

        _make_incomparable(f, lam, reps_now, i - 1, st, drop_smaller=False)
        # absorb the special bars into lam members born after or dying after
        # them; one pass does it, since the special bars never change
        for j in _by_birth(f, reps_now, lam):
            rj = reps_now[j]
            if f.birth_order_less(zeta_star.b, rj.b):
                reps_now[j] = rep_sum(f, zeta_star, rj, i - 1, st)
                lam.discard(j)
            elif f.death_order_less(zeta_circ.d, rj.d):
                reps_now[j] = rep_sum(f, zeta_circ, rj, i + 1, st)
                lam.discard(j)

        chain_ids = _by_birth(f, reps_now, lam)
        zetas = [reps_now[j] for j in chain_ids]
        consumed = set(chain_ids) | {star.id, circ.id}
        destroyed.append(star.id)
        if not zetas:
            witness = st.add(zeta_star.chains[-1], zeta_circ.chains[0])
            new_reps[circ.id] = _splice_at_site(prefix(zeta_star, i - 1),
                                                suffix(zeta_circ, i + 1), witness, i, st)
        else:
            for r in range(len(zetas) - 1):
                summed = rep_sum(f, zetas[r], zetas[r + 1], i - 1, st)
                new_reps[chain_ids[r]] = _merged_inward(summed, i, sigma, None, st)
            summed = rep_sum(f, zeta_star, zetas[-1], i - 1, st)
            new_reps[chain_ids[-1]] = _merged_inward(summed, i, sigma, None, st)
            summed = rep_sum(f, zeta_circ, zetas[0], i + 1, st)
            new_reps[circ.id] = _merged_inward(summed, i, sigma, None, st)

    for iv in state.intervals.values():
        if iv.id in consumed:
            continue
        rep = reps_now[iv.id]
        if rep.b <= i - 1 and rep.d >= i + 1:
            new_reps[iv.id] = _merged_inward(rep, i, sigma, fix_cycle, st)
        elif rep.b >= i + 1:
            new_reps[iv.id] = _shifted(rep, -2)

    edit(f, "ic", i)
    vines = _commit(state, new_reps, destroyed=destroyed)
    return OpResult("ic", i, vines=vines,
                    stats={"injective": int(born_i is not None), "repaired": len(consumed)})


# ----------------------------------------------------------------------
# small helpers for the surjective inward expansion


def _extend_prefix_copy(head: RepSeq, store: ChainStore) -> RepSeq:
    """Post-birth rep for [b, i] extended by one copied index at i+1."""
    cycles = head.cycles + [head.cycles[-1]]
    chains = head.chains[:-1] + [store.chain(head.dim + 1), None]
    return RepSeq(head.b, head.d + 1, head.dim, cycles, chains, kind=POST_BIRTH)


def _prepend_suffix_copy(tail: RepSeq, store: ChainStore) -> RepSeq:
    """Pre-death rep for [i, d] with a copied index prepended (indices shift +2
    beyond the insertion site, so the copy lands at the new i+1)."""
    cycles = [tail.cycles[0]] + tail.cycles
    chains = [None, store.chain(tail.dim + 1)] + tail.chains[1:]
    return RepSeq(tail.b + 1, tail.d + 2, tail.dim, cycles, chains, kind=PRE_DEATH)


def _concat_after_insert(head: RepSeq, tail: RepSeq, witness: Chain, i: int,
                         store: ChainStore) -> RepSeq:
    """Concatenate at the new index i+1 across an inward expansion at i."""
    if store.boundary(witness) != store.add(head.cycles[-1], tail.cycles[0]):
        raise ContractViolation("witness does not bound the junction difference")
    joint = head.chains[-2]
    joint = None if joint is None else store.add(joint, witness)
    cycles = head.cycles[:-1] + tail.cycles
    chains = head.chains[:-2] + [joint] + tail.chains[1:]
    return RepSeq(head.b, tail.d, head.dim, cycles, chains, kind=FULL)


def _by_birth(f: ZigzagFiltration, reps: dict[int, RepSeq], ids: Iterable[int]) -> list[int]:
    """The interval ids sorted by the birth order of their reps."""
    birth = cmp_to_key(f.birth_cmp)
    return sorted(ids, key=lambda iid: birth(reps[iid].b))


def _make_incomparable(f: ZigzagFiltration, lam: set[int], reps: dict[int, RepSeq],
                       site: int, store: ChainStore, drop_smaller: bool) -> None:
    """Make the reps of lam pairwise incomparable: while some rj precedes rk
    in both orders, rk becomes rj + rk summed at site and one of the two
    leaves lam (rj when drop_smaller, else rk)."""
    while True:
        ordered = _by_birth(f, reps, lam)
        found = next(((j, k) for j in ordered for k in ordered
                      if j != k and _comparable_less(f, reps[j], reps[k])), None)
        if found is None:
            return
        j, k = found
        reps[k] = rep_sum(f, reps[j], reps[k], site, store)
        lam.discard(j if drop_smaller else k)


def _comparable_less(f: ZigzagFiltration, r1: RepSeq, r2: RepSeq) -> bool:
    """The intervals meet and r1 precedes r2 in both orders."""
    return (r1.b <= r2.d and r2.b <= r1.d
            and f.birth_cmp(r1.b, r2.b) < 0 and f.death_cmp(r1.d, r2.d) < 0)


_APPLY = {"fs": forward_switch, "bs": backward_switch, "os": outward_switch,
          "is": inward_switch, "oe": outward_expansion, "ie": inward_expansion,
          "oc": outward_contraction, "ic": inward_contraction}


def apply_op(state: PersistenceState, op: str, position: int,
             sigma: Optional[Simplex] = None) -> OpResult:
    """Run one of the eight operations by its script name."""
    if spec(op).shape == SWITCH:
        return _APPLY[op](state, position)
    return _APPLY[op](state, position, sigma)
