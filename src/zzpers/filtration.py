"""Simplex-wise zigzag filtrations with stable step identities.

A filtration is a list of add/delete steps replayed from the empty complex;
it must end empty again.  Steps keep a stable id across edits so intervals
can be tracked through renumbering.  The complex at every position comes
from one index, built on the first read of index(); from then on change the
steps only through ops.edit, which keeps the index in step with them.  Its
rank and column tables, rebuilt only after a simplex is newly numbered, give
a boundary basis its columns without computing them per op.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .chains import Simplex, SimplicialComplex
from .errors import ContractViolation

ADD = "i"
DELETE = "d"


@dataclass(frozen=True)
class Step:
    id: int
    direction: str  # ADD or DELETE
    simplex: Simplex

    @property
    def is_add(self) -> bool:
        return self.direction == ADD

    def text(self) -> str:
        return f"{self.direction} {self.simplex.text()}"


# The numbered simplices of one dimension in sorted order, each one's bit in
# the masks and its boundary column: the sum of its faces' rank bits.
Ranked = tuple[list[Simplex], list[int], list[int]]


class ComplexIndex:
    """One numbering of simplices, and the complex at every position 0..m
    of a list of steps as an int over it: bit k stands for simplices[k].
    A set of simplices, a complex or a Z2 chain, is such an int, so a sum
    is an XOR and membership a bit test.  number() gives a simplex its bit
    (1 << k, kept in flags), after numbering its faces; the numbering only
    appends, so a bit never changes its simplex.  faces[k] is the mask of
    the faces of simplices[k], dims[p] the mask of the numbered
    p-simplices, and cofaces maps each numbered simplex to the mask of the
    numbered simplices that have it as a face.  An addition sets its
    simplex's bit and a deletion clears it, so the masks read as a replay
    of any steps, valid or not.

    tables() gives two sorted tables for boundary bases: the rank table
    maps each bit k to 1 << the place of simplices[k] in sorted order among
    the numbered simplices of its dimension, and the column table holds a
    Ranked entry per dimension.  Both are rebuilt on the first read after
    number() numbers a simplex; the numbered simplices are those the steps
    ever held and their faces, so that is rare."""

    def __init__(self, steps: Iterable[Step]):
        self.flags: dict[Simplex, int] = {}
        self.simplices: list[Simplex] = []
        self.faces: list[int] = []
        self.dims: list[int] = []
        self.cofaces: dict[Simplex, int] = {}
        self._tables: Optional[tuple[list[int], list[Ranked]]] = None
        self.masks = self.replay(steps)

    def number(self, s: Simplex) -> int:
        """s's bit, numbering its faces and then s if it has none."""
        bit = self.flags.get(s)
        if bit is None:
            faces = 0
            for face in s.faces():
                faces |= self.number(face)
            bit = self.flags[s] = 1 << len(self.simplices)
            for face in s.faces():
                self.cofaces[face] |= bit
            self.simplices.append(s)
            self.faces.append(faces)
            while len(self.dims) < len(s):
                self.dims.append(0)
            self.dims[len(s) - 1] |= bit
            self.cofaces[s] = 0
            self._tables = None
        return bit

    def after(self, mask: int, step: Step) -> int:
        """mask with step applied, numbering its simplex if it has no bit."""
        bit = self.number(step.simplex)
        return mask | bit if step.is_add else mask & ~bit

    def replay(self, steps: Iterable[Step]) -> list[int]:
        """The complexes steps give from the empty one, under this numbering."""
        mask = 0
        masks = [mask]
        for step in steps:
            mask = self.after(mask, step)
            masks.append(mask)
        return masks

    def boundary(self, chain: int) -> int:
        """The Z2 boundary of a chain: the XOR of its simplices' face masks."""
        faces, out = self.faces, 0
        while chain:
            low = chain & -chain
            out ^= faces[low.bit_length() - 1]
            chain ^= low
        return out

    def decoded(self, chain: int) -> list[Simplex]:
        """The simplices of a chain, by bit."""
        simplices, out = self.simplices, []
        while chain:
            low = chain & -chain
            out.append(simplices[low.bit_length() - 1])
            chain ^= low
        return out

    def simplices_at(self, i: int) -> list[Simplex]:
        """The simplices of the complex at position i."""
        return self.decoded(self.masks[i])

    def tables(self) -> tuple[list[int], list[Ranked]]:
        """The rank table and the column table by dimension, rebuilt if a
        simplex was numbered since the last read."""
        if self._tables is None:
            self._tables = self.rebuilt_tables()
        return self._tables

    def rebuilt_tables(self) -> tuple[list[int], list[Ranked]]:
        """The rank and column tables computed from the numbering."""
        flags, faces = self.flags, self.faces
        ranks = [0] * len(self.simplices)
        by_dim = [sorted(self.decoded(dim)) for dim in self.dims]
        for group in by_dim:
            for k, s in enumerate(group):
                ranks[flags[s].bit_length() - 1] = 1 << k
        return ranks, [(group, [flags[s] for s in group],
                        [as_ranks(ranks, faces[flags[s].bit_length() - 1]) for s in group])
                       for group in by_dim]


def as_ranks(ranks: list[int], chain: int) -> int:
    """A chain's bits read as ranks: the sum of ranks[k] over its bits k."""
    out = 0
    while chain:
        low = chain & -chain
        out |= ranks[low.bit_length() - 1]
        chain ^= low
    return out


class ZigzagFiltration:
    """An ordered list of simplex-wise steps, starting and ending empty."""

    def __init__(self, steps: Iterable[Step] = ()):
        self.steps: list[Step] = list(steps)
        self._next_id = 1 + max((s.id for s in self.steps), default=-1)
        self._index: Optional[ComplexIndex] = None

    @classmethod
    def from_moves(cls, moves: Iterable[tuple[str, Iterable[int]]]) -> "ZigzagFiltration":
        """Build from (direction, vertices) pairs, assigning fresh step ids."""
        f = cls()
        for direction, verts in moves:
            f.steps.append(Step(f._fresh_id(), direction, Simplex(verts)))
        return f

    def _fresh_id(self) -> int:
        i = self._next_id
        self._next_id += 1
        return i

    def new_step(self, direction: str, simplex: Simplex) -> Step:
        return Step(self._fresh_id(), direction, simplex)

    def __len__(self) -> int:
        return len(self.steps)

    def copy(self) -> "ZigzagFiltration":
        """The steps and id counter; the copy builds its own index."""
        f = ZigzagFiltration(self.steps)
        f._next_id = self._next_id
        return f

    def index(self) -> ComplexIndex:
        """The complex index, built from the steps on the first read; only
        ops.edit changes it after that."""
        if self._index is None:
            self._index = ComplexIndex(self.steps)
        return self._index

    def moves(self) -> list[tuple[str, tuple[int, ...]]]:
        """The (direction, vertices) list, for step-for-step comparisons."""
        return [(s.direction, tuple(s.simplex)) for s in self.steps]

    def complex_at(self, i: int) -> SimplicialComplex:
        """The complex after the first i steps (0 <= i <= length), read from
        the index, which checks nothing; run validate() to diagnose files."""
        if not 0 <= i <= len(self.steps):
            raise ContractViolation(f"position {i} out of range 0..{len(self.steps)}")
        return SimplicialComplex(self.index().simplices_at(i))

    def complexes(self) -> list[frozenset[Simplex]]:
        """All m+1 complexes as frozensets; validates replay as it goes."""
        cx = SimplicialComplex()
        out = [cx.frozen()]
        for step in self.steps:
            if step.is_add:
                cx.add(step.simplex)
            else:
                cx.delete(step.simplex)
            out.append(cx.frozen())
        return out

    def validate(self) -> list[str]:
        """Return violations ('' position rule'); empty means valid."""
        violations: list[str] = []
        cx = SimplicialComplex()
        present = cx.simplices
        seen_ids: set[int] = set()
        for pos, step in enumerate(self.steps):
            if step.id in seen_ids:
                violations.append(f"step {pos}: duplicate step id {step.id}")
            seen_ids.add(step.id)
            s = step.simplex
            if step.is_add:
                if s in present:
                    violations.append(f"step {pos}: add of {s.text()} already present")
                elif not present.issuperset(s.faces()):
                    violations.append(f"step {pos}: add of {s.text()} missing faces")
                cx.insert(s)  # best effort, so later steps still diagnose
            else:
                if s not in present:
                    violations.append(f"step {pos}: delete of {s.text()} not present")
                elif cx.has_cofaces(s):
                    violations.append(f"step {pos}: delete of {s.text()} has cofaces")
                cx.discard(s)
        if len(cx):
            violations.append(f"end: final complex not empty ({len(cx)} simplices)")
        if len(self.steps) % 2 != 0:
            violations.append("end: odd number of steps")
        return violations

    def is_valid(self) -> bool:
        return not self.validate()

    # ------------------------------------------------------------------
    # birth/death orders on positions 1..m-1

    def birth_cmp(self, b1: int, b2: int) -> int:
        """-1, 0 or 1 as b1 comes before, equals or comes after b2 in the
        birth order: the earlier of two births comes first when the later
        one's step (at b - 1) is an addition."""
        if b1 == b2:
            return 0
        if b1 < b2:
            return -1 if self.steps[b2 - 1].is_add else 1
        return 1 if self.steps[b1 - 1].is_add else -1

    def death_cmp(self, d1: int, d2: int) -> int:
        """-1, 0 or 1 as d1 comes before, equals or comes after d2 in the
        death order: the earlier of two deaths comes first when its own step
        (at d) is an addition."""
        if d1 == d2:
            return 0
        if d1 < d2:
            return -1 if self.steps[d1].is_add else 1
        return 1 if self.steps[d2].is_add else -1

    def birth_order_less(self, b1: int, b2: int) -> bool:
        """b1 comes before b2 in the birth order."""
        self._check_order_args(b1, b2)
        return self.birth_cmp(b1, b2) < 0

    def death_order_less(self, d1: int, d2: int) -> bool:
        """d1 comes before d2 in the death order."""
        self._check_order_args(d1, d2)
        return self.death_cmp(d1, d2) < 0

    def _check_order_args(self, a: int, b: int) -> None:
        m = len(self.steps)
        if a == b:
            raise ContractViolation("order is strict: positions must differ")
        for x in (a, b):
            if not 1 <= x <= m - 1:
                raise ContractViolation(f"position {x} out of range 1..{m - 1}")

    # ------------------------------------------------------------------
    # text form

    def to_text(self) -> str:
        return "\n".join(s.text() for s in self.steps) + ("\n" if self.steps else "")

    @classmethod
    def from_text(cls, text: str) -> "ZigzagFiltration":
        moves = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            toks = line.split()
            if toks[0] not in (ADD, DELETE):
                raise ContractViolation(f"line {lineno}: expected 'i' or 'd', got {toks[0]!r}")
            try:
                verts = [int(t) for t in toks[1:]]
            except ValueError:
                raise ContractViolation(f"line {lineno}: bad vertex id") from None
            if not verts:
                raise ContractViolation(f"line {lineno}: step without vertices")
            moves.append((toks[0], verts))
        return cls.from_moves(moves)

