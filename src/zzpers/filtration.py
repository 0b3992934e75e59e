"""Simplex-wise zigzag filtrations with stable step identities.

A filtration is a list of add/delete steps replayed from the empty complex;
it must end empty again.  Steps keep a stable id across edits so intervals
can be tracked through renumbering.
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


class ZigzagFiltration:
    """An ordered list of simplex-wise steps, starting and ending empty."""

    def __init__(self, steps: Iterable[Step] = ()):
        self.steps: list[Step] = list(steps)
        self._next_id = 1 + max((s.id for s in self.steps), default=-1)

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
        f = ZigzagFiltration(self.steps)
        f._next_id = self._next_id
        return f

    def moves(self) -> list[tuple[str, tuple[int, ...]]]:
        """The (direction, vertices) list, for step-for-step comparisons."""
        return [(s.direction, tuple(s.simplex)) for s in self.steps]

    def complex_at(self, i: int) -> SimplicialComplex:
        """Replay the first i steps (0 <= i <= length).

        The steps of a live filtration are valid by construction, so the
        replay is raw set manipulation; run validate() to diagnose files.
        """
        if not 0 <= i <= len(self.steps):
            raise ContractViolation(f"position {i} out of range 0..{len(self.steps)}")
        simplices: set = set()
        for step in self.steps[:i]:
            if step.direction == ADD:
                simplices.add(step.simplex)
            else:
                simplices.discard(step.simplex)
        return SimplicialComplex(simplices)

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

    def interval_less(self, first: tuple[int, int], second: tuple[int, int]) -> bool:
        """Strict comparability of two non-disjoint intervals (both orders agree)."""
        b1, d1 = first
        b2, d2 = second
        if b1 > d2 or b2 > d1:
            raise ContractViolation("intervals are disjoint; not comparable")
        if (b1, d1) == (b2, d2):
            return False
        return (self.birth_order_less(b1, b2) if b1 != b2 else False) and \
               (self.death_order_less(d1, d2) if d1 != d2 else False)

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


def renumber_after_edit(m: int, edit_position: int, delta: int) -> dict[int, Optional[int]]:
    """Total remap of positions 0..m after an expansion (+2) or contraction (-2).

    Expansion at i shifts positions >= i up by 2; contraction at i removes
    position i and shifts positions >= i+1 down by 2, so composing the two
    at the same site is the identity.
    """
    if delta not in (2, -2):
        raise ContractViolation("delta must be +2 or -2")
    remap: dict[int, Optional[int]] = {}
    for pos in range(m + 1):
        if delta == 2:
            remap[pos] = pos + 2 if pos >= edit_position else pos
        else:
            if pos == edit_position:
                remap[pos] = None
            else:
                remap[pos] = pos - 2 if pos >= edit_position + 1 else pos
    return remap
