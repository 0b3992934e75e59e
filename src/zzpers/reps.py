"""Representative sequences: per-interval certificates of cycles and chains.

A representative for an interval [b,d] is a cycle z_i at every index of the
interval plus bounding chains c_i connecting consecutive cycles, subject to
birth and death conditions at the ends.  A pairing in which every interval
carries a valid representative is automatically the barcode, which is what
makes the validator here a correctness certificate.

A chain is an int over the state's complex index (ComplexIndex): bit k
stands for the index's simplices[k], and that numbering only appends, so a
chain keeps its meaning for the life of the state.  Chains are values: a
sum is an XOR, equal chains compare equal, and 0 is the empty chain of
every dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import ContractViolation
from .filtration import ComplexIndex, ZigzagFiltration

FULL = "full"
POST_BIRTH = "post_birth"
PRE_DEATH = "pre_death"


class ChainStore:
    """Sums and boundaries of chains over one complex index, with a count
    of the sums for cost assertions."""

    def __init__(self, index: ComplexIndex) -> None:
        self.index = index
        self.merge_count = 0  # chain additions performed, for cost assertions

    def add(self, a: Optional[int], b: Optional[int]) -> Optional[int]:
        """a + b; a None or 0 operand gives the other operand."""
        self.merge_count += 1
        if not a:
            return b
        if not b:
            return a
        return a ^ b

    def boundary(self, chain: int) -> int:
        return self.index.boundary(chain)

    def __len__(self) -> int:
        """The count of numbered simplices."""
        return len(self.index.flags)


@dataclass(slots=True)
class RepSeq:
    """Cycles over [b,d] and chains over [b-1,d]; None marks an undefined chain.

    cycles[k] is the cycle at index b+k; chains[k] is the chain at index
    b-1+k, so chains[0] is the birth chain and chains[-1] the death chain.
    Each is an int over the state's complex index.  Consecutive indices
    mostly hold equal chains, so a sum adds each run of equal pairs once
    (_summed).  A sum builds a new instance, but an operation's commit
    mostly edits a committed bar's rep in place.  A switch grows, drops or
    reroutes the rep's lists at one end or at its site, or swaps an end
    chain, and moves b or d by one.  An expansion or contraction moves b
    and d by two when the bar lies after the site, reaching the rep through
    the state's birth_reps and leaving it out of the vine map, and when the
    bar spans the site it splices the site's indices into the rep's own
    lists and moves d by two.  So no two committed bars may share a list.
    """
    b: int
    d: int
    dim: int
    cycles: list[int]
    chains: list[Optional[int]]
    kind: str = FULL

    def __post_init__(self):
        if self.b > self.d:
            raise ContractViolation(f"interval [{self.b},{self.d}] is empty")
        if len(self.cycles) != self.d - self.b + 1:
            raise ContractViolation("cycle list length mismatch")
        if len(self.chains) != self.d - self.b + 2:
            raise ContractViolation("chain list length mismatch")

    def cycle_at(self, i: int) -> int:
        return self.cycles[i - self.b]

    def chain_at(self, i: int) -> Optional[int]:
        """The chain c_i, for b-1 <= i <= d."""
        return self.chains[i - (self.b - 1)]

    @property
    def interval(self) -> tuple[int, int]:
        return (self.b, self.d)

    def dump(self, index: ComplexIndex) -> str:
        """One line per index: its cycle and chain as sorted simplices,
        decoded through index."""
        def text(chain: int) -> str:
            return " ".join(sorted(s.text() for s in index.decoded(chain))) or "0"

        lines = []
        for i in range(self.b, self.d + 1):
            c = self.chain_at(i)
            lines.append(f"{i} : z = {text(self.cycle_at(i))} ; "
                         f"c = {'UNDEF' if c is None else text(c)}")
        return "\n".join(lines)


def validate_rep(filtration: ZigzagFiltration, rep: RepSeq,
                 masks: Optional[Sequence[int]] = None,
                 store: Optional[ChainStore] = None) -> Optional[str]:
    """Return None if rep satisfies every condition, else the first
    violation.  rep's chains are read over store's index, by default the
    filtration's, and masks holds the complex at every position under that
    numbering, by default a replay of the steps."""
    steps = filtration.steps
    if store is None:
        store = ChainStore(filtration.index())
    index = store.index
    if masks is None:
        masks = index.replay(steps)
    m = len(steps)
    b, d, p = rep.b, rep.d, rep.dim
    if not (1 <= b <= d <= m - 1):
        return f"interval [{b},{d}] out of range 1..{m - 1}"
    dims = index.dims
    other_p = ~(dims[p] if p < len(dims) else 0)
    other_q = ~(dims[p + 1] if p + 1 < len(dims) else 0)

    cycles, chains = rep.cycles, rep.chains
    last = None
    for i, z in enumerate(cycles, b):
        if z & other_p:
            return f"index {i}: cycle holds a simplex not of dimension {p}"
        if z & ~masks[i]:
            return f"index {i}: cycle not contained in the complex"
        # a run of equal cycles is one cycle, so its boundary is read once
        if z != last and store.boundary(z):
            return f"index {i}: not a cycle"
        last = z

    for i in range(b, d):
        c = chains[i - b + 1]
        if c is None:
            return f"index {i}: missing connecting chain"
        if c & other_q:
            return f"index {i}: chain holds a simplex not of dimension {p + 1}"
        if c & ~(masks[i + 1] if steps[i].is_add else masks[i]):
            return f"index {i}: chain not contained in its complex"
        if store.boundary(c) != store.add(cycles[i - b], cycles[i - b + 1]):
            return f"index {i}: chain does not bound the cycle difference"

    if rep.kind != PRE_DEATH:
        step = steps[b - 1]
        bit = index.flags.get(step.simplex, 0)
        c = rep.chain_at(b - 1)
        z = rep.cycle_at(b)
        if step.is_add:
            if c is not None:
                return f"birth: chain must be undefined after an addition"
            if not z & bit:
                return f"birth: {step.simplex.text()} missing from the birth cycle"
        else:
            if c is None:
                return f"birth: chain required after a deletion"
            if c & other_q:
                return f"birth: chain holds a simplex not of dimension {p + 1}"
            if c & ~masks[b - 1]:
                return f"birth: chain not contained in the pre-deletion complex"
            if not c & bit:
                return f"birth: {step.simplex.text()} missing from the birth chain"
            if store.boundary(c) != z:
                return f"birth: chain does not bound the birth cycle"

    if rep.kind != POST_BIRTH:
        step = steps[d]
        bit = index.flags.get(step.simplex, 0)
        c = rep.chain_at(d)
        z = rep.cycle_at(d)
        if step.is_add:
            if c is None:
                return f"death: chain required before an addition"
            if c & other_q:
                return f"death: chain holds a simplex not of dimension {p + 1}"
            if c & ~masks[d + 1]:
                return f"death: chain not contained in the post-addition complex"
            if not c & bit:
                return f"death: {step.simplex.text()} missing from the death chain"
            if store.boundary(c) != z:
                return f"death: chain does not bound the death cycle"
        else:
            if c is not None:
                return f"death: chain must be undefined before a deletion"
            if not z & bit:
                return f"death: {step.simplex.text()} missing from the death cycle"
    return None


def prefix(rep: RepSeq, i: int) -> RepSeq:
    """Truncate to a post-birth representative for [b, i]."""
    if not rep.b <= i <= rep.d:
        raise ContractViolation(f"{i} outside [{rep.b},{rep.d}]")
    k = i - rep.b
    return RepSeq(rep.b, i, rep.dim, rep.cycles[:k + 1],
                  rep.chains[:k + 1] + [None], kind=POST_BIRTH)


def suffix(rep: RepSeq, i: int) -> RepSeq:
    """Truncate to a pre-death representative for [i, d]."""
    if not rep.b <= i <= rep.d:
        raise ContractViolation(f"{i} outside [{rep.b},{rep.d}]")
    k = i - rep.b
    return RepSeq(i, rep.d, rep.dim, rep.cycles[k:],
                  [None] + rep.chains[k + 1:], kind=PRE_DEATH)


def precedes(f: ZigzagFiltration, r1: RepSeq, r2: RepSeq, side: int) -> bool:
    """r1's end on side (-1: birth, +1: death) comes before r2's in that
    end's order; the two ends must differ."""
    if side < 0:
        return f.birth_order_less(r1.b, r2.b)
    return f.death_order_less(r1.d, r2.d)


def end_sum(f: ZigzagFiltration, r1: RepSeq, r2: RepSeq, side: int,
            store: ChainStore) -> RepSeq:
    """Sum two representatives that share one end and differ at the other,
    on side: post-birth reps ending at one index (side -1) or pre-death reps
    starting at one index (+1).  r1's end on side must strictly precede
    r2's in that end's order, and the result is r2's kind over r2's
    interval.  A post-birth sum is a pre-death one read backwards in time:
    its lists are reversed, summed as pre-death ones and reversed back."""
    back = side < 0
    end = "birth" if back else "death"
    if (r1.d != r2.d) if back else (r1.b != r2.b):
        raise ContractViolation("post-birth sums need a common final index" if back
                                else "pre-death sums need a common starting index")
    if r1.dim != r2.dim:
        raise ContractViolation("dimension mismatch")
    # with one end in common, equal ends on side are equal intervals
    if r1.interval == r2.interval or not precedes(f, r1, r2, side):
        raise ContractViolation(f"first {end} must strictly precede the second")
    lists = r1.cycles, r1.chains, r2.cycles, r2.chains
    cycles1, chains1, cycles2, chains2 = [x[::-1] for x in lists] if back else lists
    chains: list[Optional[int]] = [None]
    if len(cycles1) > len(cycles2):
        # r1 runs past r2's far end, where the order leaves r2 no chain
        k = len(cycles2)
        cycles = _summed(store, cycles1[:k], cycles2)
        chains += _summed(store, chains1[1:k], chains2[1:-1])
        chains.append(None)
    else:
        if chains1[-1] is None:
            who = "backward-born" if back else "forward-dying"
            raise ContractViolation(f"{who} summand is missing its {end} chain")
        k = len(cycles1)
        cycles = _summed(store, cycles1, cycles2[:k]) + cycles2[k:]
        # r1's far-end chain summed in, then r2's chains past r1's far end
        chains += _summed(store, chains1[1:], chains2[1:k + 1]) + chains2[k + 1:]
    if back:
        cycles.reverse()
        chains.reverse()
    return RepSeq(r2.b, r2.d, r1.dim, cycles, chains,
                  kind=POST_BIRTH if back else PRE_DEATH)


_UNSET = object()


def _summed(store: ChainStore, xs: Sequence[Optional[int]],
            ys: Sequence[Optional[int]]) -> list[Optional[int]]:
    """store.add over the pairs of xs and ys, called once per run of equal
    pairs: the sum of a repeated pair is the one the first pair gave."""
    out: list[Optional[int]] = []
    last_x = last_y = got = _UNSET
    for x, y in zip(xs, ys):
        if x != last_x or y != last_y:
            got = store.add(x, y)
            last_x, last_y = x, y
        out.append(got)
    return out


def joined(head: RepSeq, tail: RepSeq, witness: int, store: ChainStore) -> RepSeq:
    """head, which ends at index j, joined to tail, which starts there,
    after checking that boundary(witness) is the sum of the two cycles at
    j: tail's cycle at j, and head's chain at j-1 plus witness (an
    addition-born single-index head keeps its undefined birth chain).  The
    result is indexed from head.b on, so tail's own positions are not read."""
    if store.boundary(witness) != store.add(head.cycles[-1], tail.cycles[0]):
        raise ContractViolation("witness does not bound the junction difference")
    joint = head.chains[-2]
    joint = None if joint is None else store.add(joint, witness)
    cycles = head.cycles[:-1] + tail.cycles
    chains = head.chains[:-2] + [joint] + tail.chains[1:]
    return RepSeq(head.b, head.b + len(cycles) - 1, head.dim, cycles, chains, kind=FULL)


def rep_sum(f: ZigzagFiltration, r1: RepSeq, r2: RepSeq, i: int,
            store: ChainStore) -> RepSeq:
    """General sum of two full representatives sharing the index i."""
    for r in (r1, r2):
        if not r.b <= i <= r.d:
            raise ContractViolation(f"{i} not in [{r.b},{r.d}]")
    if r1.b == r2.b or r1.d == r2.d:
        raise ContractViolation("summands must have distinct births and deaths")
    p1, p2 = prefix(r1, i), prefix(r2, i)
    if precedes(f, r2, r1, -1):
        p1, p2 = p2, p1
    s1, s2 = suffix(r1, i), suffix(r2, i)
    if precedes(f, r2, r1, 1):
        s1, s2 = s2, s1
    head = end_sum(f, p1, p2, -1, store)
    tail = end_sum(f, s1, s2, 1, store)
    return joined(head, tail, 0, store)
