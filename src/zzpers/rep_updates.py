"""The eight atomic update operations, maintaining interval representatives.

Each operation edits the filtration inside a PersistenceState and rewrites
the affected representatives so the pairing-with-representatives certificate
keeps holding.  apply_op holds the contract: it checks the op, runs the op's
update rule on the unedited state, then edits and commits, so an op that
raises leaves the state unchanged.  A zigzag module read backwards in time
has the same intervals, mirrored, and a backward switch is a forward one
read that way, so one rule serves fs and bs (_same_direction_switch).
"""

from __future__ import annotations

from functools import cmp_to_key
from itertools import chain, zip_longest
from operator import itemgetter
from typing import Callable, Iterable, Optional

from .chains import Simplex
from .errors import ContractViolation
from .filtration import ComplexIndex, ZigzagFiltration, as_ranks
from .ops import CONTRACT, EXPAND, SWITCH, TABLE, check, edit
from .reps import (FULL, ChainStore, RepSeq, end_sum, joined, precedes, prefix, rep_sum,
                   suffix, validate_rep)
from .results import CREATED, DESTROYED, OpResult


class PersistenceState:
    """A filtration, its barcode as a pairing, and one representative per bar.

    intervals maps each bar's id to its RepSeq, which carries the bar's b, d
    and dim.  Five indexes spare the engine walks of the bars, and the
    filtration's complex index (ZigzagFiltration.index) spares it replays of
    the steps.  Four are position lists, with one entry per position 0..m:
    births[j] and deaths[j] hold the id of the bar born or dying at j, or
    None, birth_reps[j] holds the RepSeq of the bar born at j, or None, and
    over[j] holds the ids of the bars with b < j < d, so the bars at or over
    j are over[j] plus births[j] and deaths[j].  The fifth, rows, maps each
    bar's id to its (dim, b, d) tuple, which consecutive barcodes share
    while the bar does not change.  A row may lag behind its bar's b and d
    for a bar born at stale_from or later, which an expansion or
    contraction moved; refresh_rows() brings those rows up to date.  Only
    _commit changes a committed bar or one of these indexes, and only
    ops.edit the complex index.  _commit edits a bar a switch rewrites in
    place, touching over only at i-1..i+1 for a switch at i.  It moves a
    bar after an expansion's or contraction's site in place, through
    birth_reps, without naming it in the op's vine map, and splices the
    site into the lists of a bar across it.  So no two bars may share a
    cycles or chains list."""

    def __init__(self, filtration: Optional[ZigzagFiltration] = None):
        self.filtration = filtration.copy() if filtration else ZigzagFiltration()
        self.store = ChainStore(self.filtration.index())
        self.intervals: dict[int, RepSeq] = {}
        positions = len(self.filtration.steps) + 1
        self.births: list[Optional[int]] = [None] * positions
        self.deaths: list[Optional[int]] = [None] * positions
        self.birth_reps: list[Optional[RepSeq]] = [None] * positions
        self.over: list[set[int]] = [set() for _ in range(positions)]
        self.rows: dict[int, tuple[int, int, int]] = {}
        self.stale_from = positions
        self._next_id = 0

    def add_interval(self, rep: RepSeq) -> int:
        iid = self._next_id
        self._next_id += 1
        self.intervals[iid] = rep
        self.rows[iid] = (rep.dim, rep.b, rep.d)
        self.births[rep.b] = iid
        self.deaths[rep.d] = iid
        self.birth_reps[rep.b] = rep
        for j in range(rep.b + 1, rep.d):
            self.over[j].add(iid)
        return iid

    def refresh_rows(self) -> dict[int, tuple[int, int, int]]:
        """rows, with the row of each bar born at stale_from or later read
        again from its rep (an id that names no bar, which only a corrupted
        births index holds, is passed over)."""
        births = self.births
        if self.stale_from < len(births):
            bars, rows = self.intervals, self.rows
            for iid in births[self.stale_from:]:
                rep = bars.get(iid)
                if rep is not None:
                    rows[iid] = (rep.dim, rep.b, rep.d)
            self.stale_from = len(births)
        return self.rows

    def barcode(self) -> list[tuple[int, int, int]]:
        """The rows sorted: read in birth order, then stably by dim."""
        rows = self.refresh_rows()
        bars = [rows[iid] for iid in self.births if iid is not None]
        bars.sort(key=itemgetter(0))
        return bars

    def check_certificate(self) -> list[str]:
        """Empty iff the pairing plus representatives certify the barcode,
        births, deaths, birth_reps and over index every bar at its
        positions, the filtration's complex index holds the complex at every
        position and its rank and column tables are a rebuild's, rows, once
        refreshed, holds every live bar's (dim, b, d) and no other, no two
        bars share a list, and every rep is full."""
        errs: list[str] = []
        m = len(self.filtration.steps)
        bars = self.intervals
        if len(bars) != m // 2:
            errs.append(f"{len(bars)} intervals, expected {m // 2}")
        births = [rep.b for rep in bars.values()]
        deaths = [rep.d for rep in bars.values()]
        if len(set(births)) != len(births):
            errs.append("duplicate birth positions")
        if len(set(deaths)) != len(deaths):
            errs.append("duplicate death positions")
        for name, index, end in (("births", self.births, 0), ("deaths", self.deaths, 1)):
            if len(index) != m + 1:
                errs.append(f"{name} has {len(index)} entries, expected {m + 1}")
            for at, iid in enumerate(index):
                if iid is not None and (iid not in bars or bars[iid].interval[end] != at):
                    errs.append(f"{name}[{at}] names bar {iid}, which does not sit there")
            for iid, rep in bars.items():
                at = rep.interval[end]
                if not 0 <= at < len(index) or index[at] != iid:
                    errs.append(f"bar {iid} missing from {name}")
        # birth_reps is read against the bars' own births, so a fault of the
        # births index is not named twice
        born = {rep.b: iid for iid, rep in bars.items()}
        if len(self.birth_reps) != m + 1:
            errs.append(f"birth_reps has {len(self.birth_reps)} entries, expected {m + 1}")
        for j, rep in enumerate(self.birth_reps):
            iid = born.get(j)
            if iid is None and rep is not None:
                errs.append(f"birth_reps[{j}] holds a rep, but no bar is born there")
            elif iid is not None and rep is not bars[iid]:
                errs.append(f"birth_reps[{j}] is not the rep of bar {iid}, born there")
        spans: list[set[int]] = [set() for _ in range(m + 1)]
        for iid, rep in bars.items():
            for j in range(max(rep.b + 1, 0), min(rep.d, m + 1)):
                spans[j].add(iid)
        if len(self.over) != m + 1:
            errs.append(f"over has {len(self.over)} entries, expected {m + 1}")
        for j, (ids, want) in enumerate(zip(self.over, spans)):
            errs.extend(f"over[{j}] names bar {iid}, which does not span it"
                        for iid in sorted(ids - want))
            errs.extend(f"bar {iid} missing from over[{j}]" for iid in sorted(want - ids))
        rows = self.refresh_rows()
        errs.extend(f"rows names bar {iid}, which is not live"
                    for iid in sorted(rows.keys() - bars.keys()))
        for iid in sorted(bars):
            rep, row = bars[iid], rows.get(iid)
            want = (rep.dim, rep.b, rep.d)
            if row is None:
                errs.append(f"bar {iid} missing from rows")
            elif row != want:
                errs.append(f"rows[{iid}] is {row}, expected {want}")
        # _commit splices a carried bar's lists in place, which would
        # corrupt every other bar holding the same list
        owners: dict[int, int] = {}
        for iid in sorted(bars):
            rep = bars[iid]
            for name, values in (("cycles", rep.cycles), ("chains", rep.chains)):
                owner = owners.setdefault(id(values), iid)
                if owner != iid:
                    errs.append(f"bars {owner} and {iid} share a {name} list")
        complexes = self.filtration.complexes()
        index = self.filtration.index()
        if len(index.masks) != m + 1:
            errs.append(f"complex index has {len(index.masks)} entries, expected {m + 1}")
        flags = index.flags
        for j, (mask, want) in enumerate(zip(index.masks, complexes)):
            if mask.bit_count() != len(want) or any(not mask & flags.get(s, 0) for s in want):
                errs.append(f"complex index at {j} differs from the filtration")
        ranks, ranked = index.tables()
        want_ranks, want_ranked = index.rebuilt_tables()
        errs.extend(f"complex index rank of {s.text()} differs from a rebuild"
                    for k, s in enumerate(index.simplices)
                    if k >= len(ranks) or ranks[k] != want_ranks[k])
        for d, (got, want) in enumerate(zip_longest(ranked, want_ranked, fillvalue=([], [], []))):
            if got[:2] != want[:2] or len(got[2]) != len(want[2]):
                errs.append(f"complex index table of dimension {d} differs from a rebuild")
            else:
                errs.extend(f"complex index column of {s.text()} differs from a rebuild"
                            for s, col, want_col in zip(want[0], got[2], want[2]) if col != want_col)
        # validate_rep waives the end check that a partial rep's kind names,
        # so a committed bar's rep must be full; it reads the complexes from
        # a replay of the steps, so a fault of the index is named once
        masks = index.replay(self.filtration.steps)
        for iid in sorted(bars):
            rep = bars[iid]
            bad = (validate_rep(self.filtration, rep, masks, self.store)
                   if rep.kind == FULL else f"a {rep.kind} rep, not a full one")
            if bad is not None:
                errs.append(f"interval {iid} [{rep.b},{rep.d}] dim {rep.dim}: {bad}")
        return errs


# ----------------------------------------------------------------------
# windows and splices: how an expansion or contraction edits the reps
# across its site


# A window is what an expansion or contraction at i puts in a rep's lists
# at the site: the cycles and the chains that _spliced splices in.
_Window = tuple[list[int], list[Optional[int]]]


def _stretch_window(rep: RepSeq, i: int, store: ChainStore) -> _Window:
    """The two indices an expansion at i inserts after index i: both cycles
    copy z_i and both chains are empty; for [b,d] with b <= i <= d."""
    z = rep.cycles[i - rep.b]
    return [z, z], [0, 0]


def _inward_window(rep: RepSeq, i: int, store: ChainStore, sigma: int,
                   fix_cycle: Optional[int]) -> _Window:
    """Indices i-1,i,i+1 collapsed by an inward contraction at i: the cycle
    at i-1, after c_{i-2} the chain c_{i-1} + c_i + c_{i+1}.  fix_cycle (a
    cycle containing sigma) repairs the junction chain when it is
    sigma-relevant (sigma is its bit)."""
    k = i - rep.b
    chains = rep.chains
    cbar = store.add(chains[k], chains[k + 1])
    if cbar & sigma:
        if fix_cycle is None:
            raise AssertionError("sigma-relevant junction without a repair cycle")
        cbar = store.add(cbar, fix_cycle)
    after = chains[k + 2]
    combined = None if after is None else store.add(cbar, after)
    return [rep.cycles[k - 1]], [chains[k - 1], combined]


def _outward_window(rep: RepSeq, i: int, store: ChainStore) -> _Window:
    """Indices i-1,i,i+1 collapsed by an outward contraction at i: the
    cycle at i (which lives in the smaller middle complex), with the chains
    c_{i-2} + c_{i-1} and c_i + c_{i+1}."""
    k = i - rep.b
    chains = rep.chains
    before, after = chains[k - 1], chains[k + 2]
    comb1 = None if before is None else store.add(before, chains[k])
    comb2 = None if after is None else store.add(chains[k + 1], after)
    return [rep.cycles[k]], [comb1, comb2]


def _spliced(rep: RepSeq, i: int, shift: int, window: _Window) -> RepSeq:
    """rep with window spliced into its own lists and its d moved by shift:
    an expansion's window (shift 2) goes in after index i, and a
    contraction's (shift -2) replaces indices i-1, i and i+1.  Nothing here
    raises, so _commit can splice a committed bar after the edit."""
    cycles, chains = window
    k = i - rep.b
    if shift > 0:
        rep.cycles[k + 1:k + 1] = cycles
        rep.chains[k + 1:k + 1] = chains
    else:
        rep.cycles[k - 1:k + 2] = cycles
        rep.chains[k - 1:k + 3] = chains
    rep.d += shift
    return rep


def _copied(rep: RepSeq) -> RepSeq:
    """rep with lists of its own, for a splice that must leave rep alone."""
    return RepSeq(rep.b, rep.d, rep.dim, rep.cycles[:], rep.chains[:], kind=rep.kind)


def _splice_at_site(left: RepSeq, right: RepSeq, witness: int, site: int,
                    store: ChainStore) -> RepSeq:
    """Concatenate a post-birth rep ending at site-1 (old coords) with a
    pre-death rep starting at site+1, across a contraction at `site`.

    boundary(witness) must equal the sum of left's last and right's first
    cycles; the result lives in post-contraction coordinates, since a join
    reads no position of its tail."""
    if left.d != site - 1 or right.b != site + 1:
        raise ContractViolation("splice parts do not flank the contraction site")
    return joined(left, right, witness, store)


def _at_or_over(state: PersistenceState, i: int) -> set[int]:
    """The ids of the bars with b <= i <= d."""
    return state.over[i] | ({state.births[i], state.deaths[i]} - {None})


# the bars an expansion or contraction carries across its site, by id: the
# rep to splice (the committed one, or one the rule summed) and its window
_Carried = dict[int, tuple[RepSeq, _Window]]


def _carried(state: PersistenceState, i: int, shift: int, around: set[int],
             reps: dict[int, RepSeq], consumed: set[int], new_reps: dict[int, RepSeq],
             window: Callable[..., _Window], *args) -> _Carried:
    """Window each bar at or over the site of an expansion or contraction
    at i (around) that the rule did not consume, by window(rep, i, store,
    *args) on its summed rep in reps when it has one, else its committed
    one.  A bar whose index entries the splice of the indexes moves with it
    (b < i < d, and d > i + 1 for a contraction) is returned for _commit to
    splice in place; a bar born or dying at the site goes to new_reps,
    spliced on a copy.  A bar before the site stays, and _commit moves a
    bar after it."""
    bars, store = state.intervals, state.store
    at_site = {state.births[i], state.deaths[i], state.deaths[i + 1] if shift < 0 else None}
    carried: _Carried = {}
    for iid in around - consumed:
        rep = reps.get(iid, bars[iid])
        site = window(rep, i, store, *args)
        if iid in at_site:
            new_reps[iid] = _spliced(_copied(rep), i, shift, site)
        else:
            carried[iid] = (rep, site)
    return carried


# ----------------------------------------------------------------------
# end moves: how a switch edits the reps it rewrites


# A move is one in-place edit of one rep, (kind, rep, at, cycle, chain,
# joint): a switch rule makes it before the switch, reading no state, and
# _commit applies it after the switch (_applied), where nothing raises, so
# a rule that raises has changed nothing.  at is the side of a grow, drop
# or end swap (-1: the rep's birth end, +1: its death end), and for a
# reroute the list index of the cycle it replaces.
_Move = tuple[str, RepSeq, int, Optional[int], Optional[int], Optional[int]]
_GROW, _DROP, _SET_END, _REROUTE = "grow", "drop", "set_end", "reroute"


def _grow(rep: RepSeq, side: int, cycle: int, chain: Optional[int], joint: int) -> _Move:
    """A copy-index past rep's end on side (-1: at b-1, +1: at d+1) holding
    cycle, joined to the old end by joint, with chain as the end chain
    there."""
    return _GROW, rep, side, cycle, chain, joint


def _drop(rep: RepSeq, side: int, chain: Optional[int]) -> _Move:
    """rep's index at its end on side (-1: b, +1: d) removed, with chain as
    the end chain there; refused when it is rep's only index."""
    if rep.b == rep.d:
        b, d = (rep.b + 1, rep.d) if side < 0 else (rep.b, rep.d - 1)
        raise ContractViolation(f"interval [{b},{d}] is empty")
    return _DROP, rep, side, None, chain, None


def _set_end(rep: RepSeq, side: int, chain: Optional[int]) -> _Move:
    """chain as rep's end chain on side, which makes rep full."""
    return _SET_END, rep, side, None, chain, None


def _reroute(rep: RepSeq, k: int, cycle: int, before: int, after: int) -> _Move:
    """cycle as rep's cycle at index b + k, with before and after as the
    chains c_{b+k-1} and c_{b+k} on its two sides."""
    return _REROUTE, rep, k, cycle, before, after


def _applied(move: _Move) -> RepSeq:
    """The move's rep, with the move applied to its own lists, b and d."""
    kind, rep, at, cycle, chain, joint = move
    cycles, chains = rep.cycles, rep.chains
    if kind is _GROW:
        if at < 0:
            cycles.insert(0, cycle)
            chains[:1] = chain, joint
            rep.b -= 1
        else:
            cycles.append(cycle)
            chains[-1:] = joint, chain
            rep.d += 1
    elif kind is _DROP:
        if at < 0:
            del cycles[0], chains[0]
            chains[0] = chain
            rep.b += 1
        else:
            cycles.pop()
            chains.pop()
            chains[-1] = chain
            rep.d -= 1
    elif kind is _SET_END:
        chains[0 if at < 0 else -1] = chain
        rep.kind = FULL
    else:
        cycles[at] = cycle
        chains[at:at + 2] = chain, joint
    return rep


# ----------------------------------------------------------------------
# linear algebra: boundary bases and expressing cycles over them


class BoundaryReduction:
    """The boundaries of the (p+1)-simplices of the complex at position j
    of a complex index over its p-simplices, column-reduced over int
    bitmasks, for writing p-cycles over them.

    The index's tables give the columns: bit k of a column stands for the
    numbered p-simplex of rank k, so a column's highest bit is its largest
    simplex, and bit k of a witness for the numbered (p+1)-simplex of rank
    k, whose bit in the index is flags[k].  The boundary of each
    (p+1)-simplex at j is reduced in sorted order, and pivots maps the
    highest bit of each nonzero reduced column to the column, the mask of
    the cycle generators summed into it (none here) and its witness, whose
    boundary the column is.
    """

    def __init__(self, index: ComplexIndex, j: int, p: int):
        # _reduced inlined: a site complex is small, so the calls would cost
        # more than the reduction
        self.ranks, tables = index.tables()
        at = index.masks[j]
        pivots: dict[int, tuple[int, int, int]] = {}
        self.pivots = pivots
        _, self.flags, columns = tables[p + 1] if p + 1 < len(tables) else ([], [], [])
        wit = 1
        for flag, col in zip(self.flags, columns):
            if at & flag:
                w = wit
                while col:
                    top = col.bit_length() - 1
                    pivot = pivots.get(top)
                    if pivot is None:
                        pivots[top] = (col, 0, w)
                        break
                    col ^= pivot[0]
                    w ^= pivot[2]
            wit <<= 1

    def _reduced(self, col: int, keys: int, wit: int) -> tuple[int, int, int]:
        """Add pivots to the triple until its column is zero or its highest
        bit has no pivot; a nonzero result becomes that bit's pivot."""
        pivots = self.pivots
        while col:
            top = col.bit_length() - 1
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = (col, keys, wit)
                break
            col ^= pivot[0]
            keys ^= pivot[1]
            wit ^= pivot[2]
        return col, keys, wit

    def express(self, target: int, cycle_gens: list[tuple[int, int]]
                ) -> Optional[tuple[set[int], int]]:
        """Write the p-chain target as a sum of some cycle generators (key,
        cycle) plus a boundary: the generators are reduced in turn after the
        boundaries, which extends pivots, then target.  Returns the keys of
        the generators used and the witness chain bounding the boundary
        part, or None when target is not expressible."""
        ranks = self.ranks
        for r, (_, cyc) in enumerate(cycle_gens):
            if not self._reduced(as_ranks(ranks, cyc), 1 << r, 0)[0]:
                raise AssertionError("representative cycles must be independent mod boundaries")
        col, keys, wit = self._reduced(as_ranks(ranks, target), 0, 0)
        if col:
            return None
        flags, witness = self.flags, 0
        while wit:
            low = wit & -wit
            witness |= flags[low.bit_length() - 1]
            wit ^= low
        return {key for r, (key, _) in enumerate(cycle_gens) if keys >> r & 1}, witness


# ----------------------------------------------------------------------
# committing an update


# An update rule reads the state before its op's edit and returns the bars
# it rewrites (by id: a switch's as the _Move that edits the bar, or a new
# RepSeq, any other op's as a new RepSeq), the ids it destroys, the reps it
# creates, the bars it carries across the site of an expansion or
# contraction and the op's stats, for apply_op to commit.
_Update = tuple[dict[int, "RepSeq | _Move"], Iterable[int], Iterable[RepSeq], _Carried,
                dict[str, int]]

# how far an op moves the bars after its site
_SHIFT = {SWITCH: 0, EXPAND: 2, CONTRACT: -2}


def _commit(state: PersistenceState, op: str, i: int, changed: dict[int, "RepSeq | _Move"],
            destroyed: Iterable[int], created: Iterable[RepSeq],
            carried: _Carried) -> dict[int, object]:
    """Commit an update rule's rewritten, destroyed, created and carried
    bars after op's edit at i.  Returns the vine map, which names only the
    bars the rule touched: a rewritten or carried bar maps to itself, and
    ids absent from it are unchanged, though an expansion or contraction
    moves a bar after its site.

    A switch only rewrites bars: each by a move, which _applied applies
    to the bar's own rep in place, or by a new RepSeq.  The bar's births,
    deaths and birth_reps entries and its row are set, and its old entries
    cleared unless a bar committed before it has taken them.  A switch
    moves ends only among i - 1, i and i + 1, so a bar's interior changes
    at most there, and no other over entry is touched.

    An expansion or contraction splices the four position indexes in one
    place, where ops.edit splices the complex index: an expansion inserts
    at i + 1 two empty births, deaths and birth_reps entries and two
    copies of the over entry of the bars with b <= i < d, and a
    contraction deletes entries i and i + 1.  So every other bar keeps its
    entries.  A bar after the site, which the splice moved by two, only has
    its b and d moved in place; the splice left those bars' reps in
    birth_reps[i + 3:] after an expansion and birth_reps[i:] after a
    contraction, so no id is looked up.  Their rows are not rewritten:
    stale_from drops to where they start, and the next read of the rows
    refreshes them.  A carried bar, whose entries the splice moved with it,
    has its window spliced into its own lists, its d moved and its row
    rewritten, and a summed rep it is carried with takes its birth_reps
    entry; nothing on these in-place paths raises.  A rewritten or
    destroyed bar costs only its births, deaths and birth_reps entries, its
    row, and the over entries where its old and new interiors differ."""
    bars, births, deaths, over = state.intervals, state.births, state.deaths, state.over
    born, rows = state.birth_reps, state.rows
    shift = _SHIFT[TABLE[op].shape]
    if not shift:
        vines: dict[int, object] = {}
        for iid, new in changed.items():
            old = bars[iid]
            b, d = old.b, old.d
            rep = new if type(new) is RepSeq else _applied(new)
            nb, nd = rep.b, rep.d
            bars[iid] = rep
            rows[iid] = (rep.dim, nb, nd)
            vines[iid] = iid
            if nb != b or nd != d:
                if births[b] == iid:
                    births[b] = born[b] = None
                if deaths[d] == iid:
                    deaths[d] = None
                for j in (i - 1, i, i + 1):
                    if b < j < d:
                        if not nb < j < nd:
                            over[j].discard(iid)
                    elif nb < j < nd:
                        over[j].add(iid)
            births[nb] = deaths[nd] = iid
            born[nb] = rep
        return vines
    vines = dict.fromkeys(destroyed, DESTROYED)
    if shift > 0:
        spans = _at_or_over(state, i) - {deaths[i]}
    for iid in chain(vines, changed):
        rep = bars[iid]
        births[rep.b] = deaths[rep.d] = born[rep.b] = None
    if shift > 0:
        births[i + 1:i + 1] = deaths[i + 1:i + 1] = born[i + 1:i + 1] = (None, None)
        over[i + 1:i + 1] = [spans, spans.copy()]
    else:
        del births[i:i + 2], deaths[i:i + 2], born[i:i + 2], over[i:i + 2]
    # a bar's old interior as a range of entries after the splice: an entry
    # after i moves by shift (a deleted one onto i), and the two entries an
    # expansion inserts join every range that reaches them
    reach = i + 1 if shift > 0 else i
    for iid in chain(vines, changed):
        rep = bars[iid]
        b, d = rep.b, rep.d
        lo = b + 1 if b < reach else max(i, b + 1 + shift)
        hi = d if d <= i else max(i, d + shift)
        new = changed.get(iid)
        nlo, nhi = (new.b + 1, new.d) if new is not None else (lo, lo)
        # trim or extend each end of the range to the new interior's
        if lo < nlo:
            for j in range(lo, nlo if nlo < hi else hi):
                over[j].discard(iid)
        elif nlo < lo:
            for j in range(nlo, lo if lo < nhi else nhi):
                over[j].add(iid)
        if nhi < hi:
            for j in range(nhi if nhi > lo else lo, hi):
                over[j].discard(iid)
        elif hi < nhi:
            for j in range(hi if hi > nlo else nlo, nhi):
                over[j].add(iid)
    for iid in vines:
        del bars[iid], rows[iid]
    moved = i + 3 if shift > 0 else i
    for rep in born[moved:]:
        if rep is not None:
            rep.b += shift
            rep.d += shift
    state.stale_from = min(state.stale_from, moved)
    for iid, (rep, window) in carried.items():
        bars[iid] = born[rep.b] = _spliced(rep, i, shift, window)
        rows[iid] = (rep.dim, rep.b, rep.d)
        vines[iid] = iid
    bars.update(changed)
    for iid, rep in changed.items():
        births[rep.b] = deaths[rep.d] = iid
        born[rep.b] = rep
        rows[iid] = (rep.dim, rep.b, rep.d)
        vines[iid] = iid
    for rep in created:
        vines[state.add_interval(rep)] = CREATED
    return vines


# ----------------------------------------------------------------------
# switches


def _site_bars(state: PersistenceState, i: int) -> tuple[Optional[int], ...]:
    """The ids of the bars born at i and at i+1 and of those dying at i-1
    and at i, each None when there is no such bar."""
    births, deaths = state.births, state.deaths
    return births[i], births[i + 1], deaths[i - 1], deaths[i]


def _same_direction_switch(state: PersistenceState, i: int, sigma) -> _Update:
    """Swap two consecutive additions (fs) or deletions (bs) at steps i-1, i.

    Read backwards in time, a zigzag module has the same intervals
    (Carlsson & de Silva, "Zigzag Persistence", 2010): reversing the m steps
    and swapping additions with deletions maps the bar [b, d] to [m-d, m-b]
    and a backward switch at i to a forward one at m-i.  So one rule serves
    both, written for the side e of a bar that the moving steps make: -1,
    its birth, for fs and +1, its death, for bs.  A bar's near end is its
    end on side e, its far end the other; cycles mirror about i and chains
    about i - 1/2, so the chain at c (i-1 for fs, i for bs) is the one the
    simplex x of step c can enter, and the order compared flips with e."""
    f, st, bars = state.filtration, state.store, state.intervals
    # near and far index the bars by their near and far ends, and chains[fc]
    # is a rep's far end chain
    if f.steps[i].is_add:
        e, c, near, far, fc = -1, i - 1, state.births, state.deaths, -1
    else:
        e, c, near, far, fc = 1, i, state.deaths, state.births, 0
    x = st.index.flags[f.steps[c].simplex]
    site = near_i, near_n, far_n, far_i = near[i], near[i - e], far[i + e], far[i]
    new_reps: dict[int, RepSeq | _Move] = {}

    if near_i is not None and near_n is not None:
        # two near ends; the ids follow the far ends
        z1, z2 = bars[near_i], bars[near_n]
        if z2.cycle_at(i - e) & x:
            summed = rep_sum(f, z1, z2, i - e, st)
            if precedes(f, z1, z2, -e):
                z2 = summed
            else:
                new_reps[near_i] = _grow(summed, e, summed.cycle_at(i - e), None, 0)
                new_reps[near_n] = z2
                z1 = None
        if z1 is not None:
            new_reps[near_i] = _drop(z1, e, None)
            new_reps[near_n] = _grow(z2, e, z2.cycle_at(i - e), None, 0)
    elif far_n is not None and far_i is not None:
        # two far ends
        z1, z2 = bars[far_n], bars[far_i]
        s = st.add(z2.chain_at(c), z2.chains[fc])
        if not s & x:
            new_reps[far_n] = _grow(z1, -e, z1.cycle_at(i + e), z1.chains[fc], 0)
            new_reps[far_i] = _drop(z2, -e, s)
        elif precedes(f, z1, z2, e):
            new_reps[far_n] = _grow(z1, -e, z1.cycle_at(i + e), z1.chains[fc], 0)
            new_reps[far_i] = _set_end(_near_sum(f, z1, z2, e, i + e, st), -e,
                                      st.add(z1.chains[fc], s))
        else:
            k = i - z2.b
            new_reps[far_i] = _reroute(z2, k, z2.cycles[k + e], *((0, s) if e < 0 else (s, 0)))
            new_reps[far_n] = _set_end(_near_sum(f, z2, z1, e, i + e, st), -e,
                                      st.add(z1.chains[fc], s))
    elif near_i is not None and far_i is not None:
        # a near and a far end at i: the two bars split apart
        if near_i == far_i:
            raise AssertionError("[i,i] cannot occur when neither simplex is a face of the other")
        z1, z2 = bars[far_i], bars[near_i]
        s = st.add(z1.chain_at(c), z1.chains[fc])
        if s & x:
            s = st.add(s, z2.cycle_at(i))
        new_reps[far_i] = _drop(z1, -e, s)
        new_reps[near_i] = _drop(z2, e, None)
    else:
        # a far end at i + e and a near end at i - e
        assert far_n is not None and near_n is not None
        z1, z2 = bars[far_n], bars[near_n]
        if z2.cycle_at(i - e) & x:
            new_reps[far_n] = _set_end(z1, -e, st.add(z1.chains[fc], z2.cycle_at(i - e)))
            new_reps[near_n] = z2
        else:
            new_reps[far_n] = _grow(z1, -e, z1.cycle_at(i + e), z1.chains[fc], 0)
            new_reps[near_n] = _grow(z2, e, z2.cycle_at(i - e), None, 0)

    # the four bars above sit at the site; these span it, and one whose
    # chain at c or cycle at i holds x is rerouted (chains[k + dc] is the
    # chain at c, cycles[k] the cycle at i)
    spanning = state.over[i]
    dc = c - i + 1
    for iid in spanning:
        rep = bars[iid]
        k = i - rep.b
        chains = rep.chains
        if (chains[k + dc] | rep.cycles[k]) & x:
            s = _add_defined(st, chains[k], chains[k + 1])
            new_reps[iid] = _reroute(rep, k, rep.cycles[k + e], *((0, s) if e < 0 else (s, 0)))
    return new_reps, (), (), {}, _visited(site, spanning)


def _near_sum(f: ZigzagFiltration, r1: RepSeq, r2: RepSeq, side: int, at: int,
              store: ChainStore) -> RepSeq:
    """r1 and r2 cut at `at` and summed on side: their prefixes summed to a
    post-birth rep (side -1) or suffixes to a pre-death one (+1), for r2's
    interval; r1's end on side must come first."""
    cut = prefix if side < 0 else suffix
    return end_sum(f, cut(r1, at), cut(r2, at), side, store)


def _visited(site: tuple[Optional[int], ...], spanning) -> dict[str, int]:
    """A switch's stats: the bars it read, at its site (the ids of the bars
    born at i and i+1 and dying at i-1 and i, in some order where only the
    first and the last can be one bar, [i,i]) and spanning it."""
    first, second, third, last = site
    return {"visited": ((first is not None) + (second is not None) + (third is not None)
                        + (last is not None and last != first) + len(spanning))}


def _add_defined(store: ChainStore, a: Optional[int], b: Optional[int]) -> int:
    if a is None or b is None:
        raise AssertionError("expected both chains to be defined here")
    return store.add(a, b)


def _outward_switch(state: PersistenceState, i: int, sigma) -> _Update:
    """Turn an addition followed by a deletion into deletion-then-addition."""
    steps, st = state.filtration.steps, state.store
    sigma, tau = st.index.flags[steps[i - 1].simplex], st.index.flags[steps[i].simplex]
    bars = state.intervals
    site = born_i, born_i1, died_im1, died_i = _site_bars(state, i)
    new_reps: dict[int, RepSeq | _Move] = {}
    if born_i is not None:
        rep = bars[born_i]
        if rep.d == i:
            if rep.dim < 1:
                raise AssertionError("a [i,i] bar at an outward site has dimension >= 1")
            new_reps[born_i] = RepSeq(i, i, rep.dim - 1, [st.boundary(tau)],
                                      [tau, st.add(rep.cycles[0], tau)], kind=FULL)
        else:
            new_reps[born_i] = _drop(rep, -1, None)
    if died_i is not None and died_i != born_i:
        new_reps[died_i] = _drop(bars[died_i], 1, None)
    if born_i1 is not None:
        rep = bars[born_i1]
        birth = rep.chains[0]
        if not birth & sigma:
            new_reps[born_i1] = _grow(rep, -1, rep.cycles[0], birth, 0)
        else:
            z = st.add(rep.cycles[0], st.boundary(sigma))
            new_reps[born_i1] = _grow(rep, -1, z, st.add(birth, sigma), sigma)
    if died_im1 is not None:
        rep = bars[died_im1]
        death = rep.chains[-1]
        if not death & tau:
            new_reps[died_im1] = _grow(rep, 1, rep.cycles[-1], death, 0)
        else:
            z = st.add(rep.cycles[-1], st.boundary(tau))
            new_reps[died_im1] = _grow(rep, 1, z, st.add(death, tau), tau)
    # a spanning bar's chains at i-1 and i are chains[k] and chains[k + 1]
    spanning = state.over[i]
    for iid in spanning:
        rep = bars[iid]
        k = i - rep.b
        c1, c2 = rep.chains[k], rep.chains[k + 1]
        if not (c1 & sigma or c2 & tau):
            continue
        s = st.add(c1, c2)
        if not s & sigma:
            new_reps[iid] = _reroute(rep, k, rep.cycles[k + 1], s, 0)
        elif not s & tau:
            new_reps[iid] = _reroute(rep, k, rep.cycles[k - 1], 0, s)
        else:
            z = st.add(rep.cycles[k + 1], st.boundary(sigma))
            new_reps[iid] = _reroute(rep, k, z, st.add(s, sigma), sigma)
    return new_reps, (), (), {}, _visited(site, spanning)


def _inward_switch(state: PersistenceState, i: int, sigma) -> _Update:
    """Turn a deletion followed by an addition into addition-then-deletion.
    Only the bars at the site change, so no other bar is read."""
    st = state.store
    bars = state.intervals
    site = born_i, born_i1, died_im1, died_i = _site_bars(state, i)
    new_reps: dict[int, RepSeq | _Move] = {}
    if born_i is not None:
        rep = bars[born_i]
        if rep.d == i:
            cyc = _add_defined(st, rep.chains[0], rep.chains[-1])
            new_reps[born_i] = RepSeq(i, i, rep.dim + 1, [cyc], [None, None], kind=FULL)
        else:
            birth = _add_defined(st, rep.chains[0], rep.chain_at(i))
            new_reps[born_i] = _drop(rep, -1, birth)
    if died_i is not None and died_i != born_i:
        rep = bars[died_i]
        death = _add_defined(st, rep.chain_at(i - 1), rep.chains[-1])
        new_reps[died_i] = _drop(rep, 1, death)
    if born_i1 is not None:
        rep = bars[born_i1]
        new_reps[born_i1] = _grow(rep, -1, rep.cycles[0], None, 0)
    if died_im1 is not None:
        rep = bars[died_im1]
        new_reps[died_im1] = _grow(rep, 1, rep.cycles[-1], None, 0)
    return new_reps, (), (), {}, _visited(site, ())


# ----------------------------------------------------------------------
# expansions and contractions


def _outward_expansion(state: PersistenceState, i: int, sigma: Simplex) -> _Update:
    """Insert delete(sigma), add(sigma) at step positions i, i+1."""
    f = state.filtration
    st = state.store
    p = sigma.dimension

    bars = state.intervals
    around = _at_or_over(state, i)
    bit = st.index.flags[sigma]
    lam = {iid for iid in around if bars[iid].dim == p and bars[iid].cycle_at(i) & bit}
    reps = {j: bars[j] for j in lam}
    new_reps: dict[int, RepSeq] = {}
    created: list[RepSeq] = []

    if not lam:
        # the deletion kills the boundary class of sigma: one new bar
        if p < 1:
            raise AssertionError("a vertex always lies in a 0-cycle")
        created.append(RepSeq(i + 1, i + 1, p - 1, [st.boundary(bit)], [bit, bit], kind=FULL))
        consumed: set[int] = set()
    else:
        # merge comparable sigma-carrying bars, then re-pair around the site
        _make_incomparable(f, lam, reps, i, st, drop_smaller=False)
        chain_ids = _by_birth(f, reps, lam)
        zetas = [reps[j] for j in chain_ids]
        ell = len(zetas)
        for r in range(ell - 1):
            summed = rep_sum(f, zetas[r], zetas[r + 1], i, st)
            # the sum is the rule's own, so it is stretched in place
            new_reps[chain_ids[r + 1]] = _spliced(summed, i, 2, _stretch_window(summed, i, st))
        first = prefix(zetas[0], i)
        new_reps[chain_ids[0]] = RepSeq(first.b, i, p, first.cycles,
                                        first.chains[:-1] + [None], kind=FULL)
        last = suffix(zetas[-1], i)
        created.append(RepSeq(i + 2, zetas[-1].d + 2, p, last.cycles,
                              [None] + last.chains[1:], kind=FULL))
        consumed = set(chain_ids)

    carried = _carried(state, i, 2, around, reps, consumed, new_reps, _stretch_window)
    return new_reps, (), created, carried, {
        "injective": int(bool(lam)), "repaired": len(consumed), "visited": len(around),
        "carried": len(carried)}


def _outward_contraction(state: PersistenceState, i: int, sigma) -> _Update:
    """Remove a delete(sigma), add(sigma) pair at steps i-1, i."""
    f = state.filtration
    sigma = f.steps[i].simplex
    p = sigma.dimension
    st = state.store
    bars = state.intervals
    born_i = state.births[i]
    new_reps: dict[int, RepSeq] = {}
    reps: dict[int, RepSeq] = {}
    destroyed: list[int] = []
    consumed: set[int] = set()
    around = read = _at_or_over(state, i)

    if born_i is not None:
        # surjective: the [i,i] bar disappears, everything else merges through
        if bars[born_i].d != i:
            raise AssertionError("the bar born at the site must die there")
        destroyed.append(born_i)
        consumed.add(born_i)
    else:
        # injective: re-pair the bars around the vanishing death/birth pair
        star, circ = state.deaths[i - 1], state.births[i + 1]
        assert star is not None and circ is not None
        around_next = _at_or_over(state, i + 1)
        read = around | around_next | {star}
        members = [iid for iid in around_next if bars[iid].dim == p and iid != circ]
        cycle_gens = [(circ, bars[circ].cycle_at(i + 1))]
        cycle_gens += [(iid, bars[iid].cycle_at(i + 1))
                       for iid in sorted(members, key=lambda j: bars[j].b)]
        expressed = BoundaryReduction(f.index(), i + 1, p).express(
            bars[star].cycle_at(i - 1), cycle_gens)
        if expressed is None:
            raise AssertionError("the dying cycle must be expressible over the basis")
        keys, witness = expressed
        if circ not in keys:
            raise AssertionError("the expression must involve the bar born at i+1")
        lam = set(keys) - {circ}
        reps = {j: bars[j] for j in lam}
        zeta_star, zeta_circ = bars[star], bars[circ]

        # enforce pairwise incomparability inside lam, keeping the witness exact
        _make_incomparable(f, lam, reps, i + 1, st, drop_smaller=True)
        # absorb lam members that precede the special bars; one pass does it,
        # since rep_sum keeps the later birth and the later death, so
        # zeta_star.b and zeta_circ.d never change
        for j in _by_birth(f, reps, lam):
            rj = reps[j]
            if f.birth_order_less(rj.b, zeta_star.b):
                zeta_star = rep_sum(f, zeta_star, rj, i - 1, st)
                witness = st.add(witness, st.add(rj.chain_at(i - 1), rj.chain_at(i)))
                lam.discard(j)
            elif f.death_order_less(rj.d, zeta_circ.d):
                zeta_circ = rep_sum(f, zeta_circ, rj, i + 1, st)
                lam.discard(j)

        chain_ids = _by_birth(f, reps, lam)
        zetas = [reps[j] for j in chain_ids]
        consumed = set(chain_ids) | {star, circ}
        destroyed.append(star)
        head = prefix(zeta_star, i - 1)
        tails: list[RepSeq] = [suffix(zeta_circ, i + 1)]
        for z in reversed(zetas):
            tails.append(end_sum(f, tails[-1], suffix(z, i + 1), 1, st))
        tails.reverse()  # tails[r] = circ summed with suffixes of zetas[r:]
        # bar r gets the star's prefix summed with those of zetas[:r], and
        # tails[r]; circ comes last
        for owner, tail, z in zip(chain_ids + [circ], tails, zetas + [None]):
            new_reps[owner] = _splice_at_site(head, tail, witness, i, st)
            if z is not None:
                head = end_sum(f, head, prefix(z, i - 1), -1, st)
                witness = st.add(witness, st.add(z.chain_at(i - 1), z.chain_at(i)))

    carried = _carried(state, i, -2, around, reps, consumed, new_reps, _outward_window)
    return new_reps, destroyed, (), carried, {
        "injective": int(born_i is None), "repaired": len(consumed), "visited": len(read),
        "carried": len(carried)}


def _inward_expansion(state: PersistenceState, i: int, sigma: Simplex) -> _Update:
    """Insert add(sigma), delete(sigma) at step positions i, i+1."""
    f = state.filtration
    st = state.store
    p = sigma.dimension
    bars = state.intervals
    new_reps: dict[int, RepSeq] = {}
    created: list[RepSeq] = []
    consumed: set[int] = set()

    around = _at_or_over(state, i)
    # numbered before the edit, which sets its bits, so the rule can sum it
    sig = f.index().number(sigma)
    if p == 0:
        expressed = (set(), 0)
    else:
        members = [iid for iid in around if bars[iid].dim == p - 1]
        cycle_gens = [(iid, bars[iid].cycle_at(i))
                      for iid in sorted(members, key=lambda j: bars[j].b)]
        expressed = BoundaryReduction(f.index(), i, p - 1).express(st.boundary(sig), cycle_gens)
        if expressed is None:
            raise AssertionError("a simplex boundary is always a cycle of its faces")
    keys, witness = expressed

    if not keys:
        # injective: one new bar carried by a cycle through sigma
        z = st.add(sig, witness) if p > 0 else sig
        created.append(RepSeq(i + 1, i + 1, p, [z], [None, None], kind=FULL))
    else:
        chain_ids = _by_birth(f, bars, keys)
        zetas = [bars[j] for j in chain_ids]
        ell = len(zetas)
        consumed = set(chain_ids)
        death_chain = st.add(sig, witness)

        heads = [prefix(zetas[0], i)]  # heads[r]: the prefixes of zetas[:r + 1] summed
        for z in zetas[1:]:
            heads.append(end_sum(f, heads[-1], prefix(z, i), -1, st))
        head = heads[-1]
        new_reps[chain_ids[-1]] = RepSeq(head.b, i, p - 1, head.cycles,
                                         head.chains[:-1] + [death_chain], kind=FULL)
        death = cmp_to_key(f.death_cmp)
        by_death = sorted(range(ell), key=lambda r: death(zetas[r].d))
        tail = suffix(zetas[by_death[0]], i)
        for r in by_death[1:]:
            tail = end_sum(f, tail, suffix(zetas[r], i), 1, st)
        created.append(RepSeq(i + 2, tail.d + 2, p - 1, tail.cycles,
                              [death_chain] + tail.chains[1:], kind=FULL))

        paired_deaths = {zetas[by_death[-1]].d}
        for r in range(ell - 1):
            zr = zetas[r]
            if zr.d not in paired_deaths:
                paired_deaths.add(zr.d)
                new_reps[chain_ids[r]] = _spliced(_copied(zr), i, 2,
                                                  _stretch_window(zr, i, st))
                continue
            rest = [t for t in range(r + 1, ell) if zetas[t].d not in paired_deaths]
            delta = max((zetas[t].d for t in rest), key=death)
            paired_deaths.add(delta)
            by_d = sorted(rest, key=lambda t: death(zetas[t].d))
            tail_r = suffix(zetas[by_d[0]], i)
            for t in by_d[1:]:
                tail_r = end_sum(f, tail_r, suffix(zetas[t], i), 1, st)
            # both parts, the rule's own reps, grow in place a copied index
            # at the new i + 1 and join there; the join reads no position of
            # the tail, which starts at the old i - 1
            head = _applied(_grow(heads[r], 1, heads[r].cycles[-1], None, 0))
            tail = _applied(_grow(tail_r, -1, tail_r.cycles[0], None, 0))
            new_reps[chain_ids[r]] = joined(head, tail, death_chain, st)

    carried = _carried(state, i, 2, around, {}, consumed, new_reps, _stretch_window)
    return new_reps, (), created, carried, {
        "injective": int(not keys), "repaired": len(consumed), "visited": len(around),
        "carried": len(carried)}


def _inward_contraction(state: PersistenceState, i: int, sigma) -> _Update:
    """Remove an add(sigma), delete(sigma) pair at steps i-1, i."""
    f = state.filtration
    st = state.store
    sigma = st.index.flags[f.steps[i].simplex]
    bars = state.intervals
    born_i = state.births[i]
    new_reps: dict[int, RepSeq] = {}
    reps: dict[int, RepSeq] = {}
    destroyed: list[int] = []
    consumed: set[int] = set()
    fix_cycle: Optional[int] = None
    around = read = _at_or_over(state, i)

    if born_i is not None:
        # injective: the [i,i] bar disappears; its cycle repairs junctions
        if bars[born_i].d != i:
            raise AssertionError("the bar born at the site must die there")
        fix_cycle = bars[born_i].cycles[0]
        destroyed.append(born_i)
        consumed.add(born_i)
    else:
        # surjective: re-pair around the vanishing death i-1 / birth i+1
        star, circ = state.deaths[i - 1], state.births[i + 1]
        assert star is not None and circ is not None
        read = around | {star, circ}
        lam = {iid for iid in state.over[i]
               if st.add(bars[iid].chain_at(i - 1), bars[iid].chain_at(i)) & sigma}
        reps = {j: bars[j] for j in lam}
        zeta_star, zeta_circ = bars[star], bars[circ]

        _make_incomparable(f, lam, reps, i - 1, st, drop_smaller=False)
        # absorb the special bars into lam members born after or dying after
        # them; one pass does it, since the special bars never change
        for j in _by_birth(f, reps, lam):
            rj = reps[j]
            if f.birth_order_less(zeta_star.b, rj.b):
                reps[j] = rep_sum(f, zeta_star, rj, i - 1, st)
                lam.discard(j)
            elif f.death_order_less(zeta_circ.d, rj.d):
                reps[j] = rep_sum(f, zeta_circ, rj, i + 1, st)
                lam.discard(j)

        chain_ids = _by_birth(f, reps, lam)
        zetas = [reps[j] for j in chain_ids]
        consumed = set(chain_ids) | {star, circ}
        destroyed.append(star)
        if not zetas:
            witness = st.add(zeta_star.chains[-1], zeta_circ.chains[0])
            new_reps[circ] = _splice_at_site(prefix(zeta_star, i - 1),
                                             suffix(zeta_circ, i + 1), witness, i, st)
        else:
            def merged(r1: RepSeq, r2: RepSeq, at: int) -> RepSeq:
                # the sum is the rule's own, so it is merged in place
                summed = rep_sum(f, r1, r2, at, st)
                return _spliced(summed, i, -2, _inward_window(summed, i, st, sigma, None))

            for r in range(len(zetas) - 1):
                new_reps[chain_ids[r]] = merged(zetas[r], zetas[r + 1], i - 1)
            new_reps[chain_ids[-1]] = merged(zeta_star, zetas[-1], i - 1)
            new_reps[circ] = merged(zeta_circ, zetas[0], i + 1)

    carried = _carried(state, i, -2, around, reps, consumed, new_reps, _inward_window,
                       sigma, fix_cycle)
    return new_reps, destroyed, (), carried, {
        "injective": int(born_i is not None), "repaired": len(consumed), "visited": len(read),
        "carried": len(carried)}


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


_RULES: dict[str, Callable[..., _Update]] = {
    "fs": _same_direction_switch, "bs": _same_direction_switch, "os": _outward_switch,
    "is": _inward_switch, "oe": _outward_expansion, "ie": _inward_expansion,
    "oc": _outward_contraction, "ic": _inward_contraction}


def apply_op(state: PersistenceState, op: str, position: int,
             sigma: Optional[Simplex] = None) -> OpResult:
    """Run one of the eight operations by its script name: check, update
    rule, edit, commit.  Only the last two change the state.  The stats add
    merges, the chain additions the op made (ChainStore.merge_count)."""
    f = state.filtration
    merged = state.store.merge_count
    check(f, op, position, sigma)
    changed, destroyed, created, carried, stats = _RULES[op](state, position, sigma)
    edit(f, op, position, sigma)
    vines = _commit(state, op, position, changed, destroyed, created, carried)
    stats["merges"] = state.store.merge_count - merged
    return OpResult(op, position, vines=vines, stats=stats)
