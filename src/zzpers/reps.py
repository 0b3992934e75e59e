"""Representative sequences: per-interval certificates of cycles and chains.

A representative for an interval [b,d] is a cycle z_i at every index of the
interval plus bounding chains c_i connecting consecutive cycles, subject to
birth and death conditions at the ends.  A pairing in which every interval
carries a valid representative is automatically the barcode, which is what
makes the validator here a correctness certificate.

Chains are interned per state so that equal chains are one object: identity
tests are O(1), boundaries memoize, and runs of equal cycles share storage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .chains import Chain, Simplex, chain_add, chain_boundary, is_cycle
from .errors import ContractViolation
from .filtration import Step, ZigzagFiltration

FULL = "full"
POST_BIRTH = "post_birth"
PRE_DEATH = "pre_death"


class ChainStore:
    """Interning pool for chains with a memoized boundary map."""

    def __init__(self) -> None:
        self._pool: dict[Chain, Chain] = {}
        self._boundaries: dict[Chain, Chain] = {}
        self._empty: dict[int, Chain] = {}  # the interned empty chain per dimension
        self.merge_count = 0  # chain additions performed, for cost assertions

    def intern(self, chain: Chain) -> Chain:
        got = self._pool.get(chain)
        if got is None:
            self._pool[chain] = chain
            return chain
        return got

    def chain(self, dimension: int, simplices=()) -> Chain:
        if not simplices:
            got = self._empty.get(dimension)
            if got is None:
                got = self._empty[dimension] = self.intern(Chain(dimension))
            return got
        return self.intern(Chain(dimension, simplices))

    def add(self, a: Chain, b: Chain) -> Chain:
        self.merge_count += 1
        if not a:
            return self.intern(b)
        if not b:
            return self.intern(a)
        return self.intern(chain_add(a, b))

    def boundary(self, chain: Chain) -> Chain:
        chain = self.intern(chain)
        got = self._boundaries.get(chain)
        if got is None:
            got = self.intern(chain_boundary(chain))
            self._boundaries[chain] = got
        return got

    def __len__(self) -> int:
        return len(self._pool)


@dataclass(slots=True)
class RepSeq:
    """Cycles over [b,d] and chains over [b-1,d]; None marks an undefined chain.

    cycles[k] is the cycle at index b+k; chains[k] is the chain at index
    b-1+k, so chains[0] is the birth chain and chains[-1] the death chain.
    Consecutive indices mostly hold the same interned chain objects, so a
    sum adds each run of equal pairs once (_summed).  A sum builds a new
    instance, but an operation's commit mostly edits a committed bar's rep
    in place.  A switch grows, drops or reroutes the rep's lists at one end
    or at its site, or swaps an end chain, and moves b or d by one.  An
    expansion or contraction moves b and d by two when the bar lies after
    the site, reaching the rep through the state's birth_reps and leaving
    it out of the vine map, and when the bar spans the site it splices the
    site's indices into the rep's own lists and moves d by two.  So no two
    committed bars may share a list.
    """
    b: int
    d: int
    dim: int
    cycles: list[Chain]
    chains: list[Optional[Chain]]
    kind: str = FULL

    def __post_init__(self):
        if self.b > self.d:
            raise ContractViolation(f"interval [{self.b},{self.d}] is empty")
        if len(self.cycles) != self.d - self.b + 1:
            raise ContractViolation("cycle list length mismatch")
        if len(self.chains) != self.d - self.b + 2:
            raise ContractViolation("chain list length mismatch")

    def cycle_at(self, i: int) -> Chain:
        return self.cycles[i - self.b]

    def chain_at(self, i: int) -> Optional[Chain]:
        """The chain c_i, for b-1 <= i <= d."""
        return self.chains[i - (self.b - 1)]

    @property
    def interval(self) -> tuple[int, int]:
        return (self.b, self.d)

    def dump(self) -> str:
        lines = []
        for i in range(self.b, self.d + 1):
            z = " ".join(sorted(s.text() for s in self.cycle_at(i))) or "0"
            c = self.chain_at(i)
            ctext = "UNDEF" if c is None else (" ".join(sorted(s.text() for s in c)) or "0")
            lines.append(f"{i} : z = {z} ; c = {ctext}")
        return "\n".join(lines)


def validate_rep(filtration: ZigzagFiltration, rep: RepSeq,
                 complexes: Optional[Sequence[frozenset[Simplex]]] = None,
                 store: Optional[ChainStore] = None) -> Optional[str]:
    """Return None if rep satisfies every condition, else the first violation."""
    if complexes is None:
        complexes = filtration.complexes()
    if store is None:
        store = ChainStore()
    steps = filtration.steps
    m = len(steps)
    b, d, p = rep.b, rep.d, rep.dim
    if not (1 <= b <= d <= m - 1):
        return f"interval [{b},{d}] out of range 1..{m - 1}"

    for i in range(b, d + 1):
        z = rep.cycle_at(i)
        if z.dimension != p:
            return f"index {i}: cycle has dimension {z.dimension}, expected {p}"
        if not z.simplices <= complexes[i]:
            return f"index {i}: cycle not contained in the complex"
        if not is_cycle(z):
            return f"index {i}: not a cycle"

    for i in range(b, d):
        c = rep.chain_at(i)
        if c is None:
            return f"index {i}: missing connecting chain"
        if c.dimension != p + 1:
            return f"index {i}: chain has dimension {c.dimension}, expected {p + 1}"
        home = complexes[i + 1] if steps[i].is_add else complexes[i]
        if not c.simplices <= home:
            return f"index {i}: chain not contained in its complex"
        if store.boundary(c) != store.add(rep.cycle_at(i), rep.cycle_at(i + 1)):
            return f"index {i}: chain does not bound the cycle difference"

    if rep.kind != PRE_DEATH:
        step = steps[b - 1]
        c = rep.chain_at(b - 1)
        z = rep.cycle_at(b)
        if step.is_add:
            if c is not None:
                return f"birth: chain must be undefined after an addition"
            if step.simplex not in z:
                return f"birth: {step.simplex.text()} missing from the birth cycle"
        else:
            if c is None:
                return f"birth: chain required after a deletion"
            if c.dimension != p + 1:
                return f"birth: chain has dimension {c.dimension}"
            if not c.simplices <= complexes[b - 1]:
                return f"birth: chain not contained in the pre-deletion complex"
            if step.simplex not in c:
                return f"birth: {step.simplex.text()} missing from the birth chain"
            if store.boundary(c) != z:
                return f"birth: chain does not bound the birth cycle"

    if rep.kind != POST_BIRTH:
        step = steps[d]
        c = rep.chain_at(d)
        z = rep.cycle_at(d)
        if step.is_add:
            if c is None:
                return f"death: chain required before an addition"
            if c.dimension != p + 1:
                return f"death: chain has dimension {c.dimension}"
            if not c.simplices <= complexes[d + 1]:
                return f"death: chain not contained in the post-addition complex"
            if step.simplex not in c:
                return f"death: {step.simplex.text()} missing from the death chain"
            if store.boundary(c) != z:
                return f"death: chain does not bound the death cycle"
        else:
            if c is not None:
                return f"death: chain must be undefined before a deletion"
            if step.simplex not in z:
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


def end_sum(f: ZigzagFiltration, r1: RepSeq, r2: RepSeq, side: int,
            store: ChainStore) -> RepSeq:
    """Sum two representatives that share one end and differ at the other,
    on side: post-birth reps ending at one index (side -1) or pre-death reps
    starting at one index (+1).  r1's end on side must strictly precede
    r2's in that end's order, and the result is r2's kind over r2's
    interval.  A post-birth sum is a pre-death one read backwards in time:
    its lists are reversed, summed as pre-death ones and reversed back."""
    back = side < 0
    if back:
        common, e1, e2, less = r1.d == r2.d, r1.b, r2.b, f.birth_order_less
    else:
        common, e1, e2, less = r1.b == r2.b, r1.d, r2.d, f.death_order_less
    end = "birth" if back else "death"
    if not common:
        raise ContractViolation("post-birth sums need a common final index" if back
                                else "pre-death sums need a common starting index")
    if r1.dim != r2.dim:
        raise ContractViolation("dimension mismatch")
    if e1 == e2 or not less(e1, e2):
        raise ContractViolation(f"first {end} must strictly precede the second")
    lists = r1.cycles, r1.chains, r2.cycles, r2.chains
    cycles1, chains1, cycles2, chains2 = [x[::-1] for x in lists] if back else lists
    chains: list[Optional[Chain]] = [None]
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


def _summed(store: ChainStore, xs: Sequence[Optional[Chain]],
            ys: Sequence[Optional[Chain]]) -> list[Optional[Chain]]:
    """store.add over the pairs of xs and ys, called once per run of pairs
    that are the same two objects: the store is interned, so the sum of a
    repeated pair is the object the first one gave."""
    out: list[Optional[Chain]] = []
    last_x = last_y = got = _UNSET
    for x, y in zip(xs, ys):
        if x is not last_x or y is not last_y:
            got = store.add(x, y)
            last_x, last_y = x, y
        out.append(got)
    return out


def joined(head: RepSeq, tail: RepSeq, witness: Chain, store: ChainStore) -> RepSeq:
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
    if f.birth_order_less(r2.b, r1.b):
        p1, p2 = p2, p1
    s1, s2 = suffix(r1, i), suffix(r2, i)
    if f.death_order_less(r2.d, r1.d):
        s1, s2 = s2, s1
    head = end_sum(f, p1, p2, -1, store)
    tail = end_sum(f, s1, s2, 1, store)
    return joined(head, tail, store.chain(r1.dim + 1), store)
