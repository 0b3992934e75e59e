"""Simplices and simplicial complexes.

A Z2 chain is an int over a complex index's numbering of simplices
(filtration.ComplexIndex), so addition is XOR and every chain is its own
inverse; the index gives boundaries.  Simplices are immutable and safe to
share.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import ContractViolation


_FACES_CACHE: dict[tuple, list] = {}


class Simplex(tuple):
    """A simplex as a strictly increasing tuple of non-negative vertex ids."""

    __slots__ = ()

    def __new__(cls, vertices: Iterable[int]) -> "Simplex":
        verts = tuple(vertices)
        if not verts:
            raise ContractViolation("a simplex needs at least one vertex")
        if any(v < 0 for v in verts):
            raise ContractViolation(f"negative vertex id in {verts}")
        if any(a >= b for a, b in zip(verts, verts[1:])):
            raise ContractViolation(f"vertices must be strictly increasing: {verts}")
        return super().__new__(cls, verts)

    @property
    def dimension(self) -> int:
        return len(self) - 1

    def faces(self) -> list["Simplex"]:
        """All codimension-1 faces; empty for a vertex."""
        got = _FACES_CACHE.get(self)
        if got is None:
            if len(self) == 1:
                got = []
            else:
                got = [Simplex(self[:k] + self[k + 1:]) for k in range(len(self))]
            _FACES_CACHE[tuple(self)] = got
        return got

    def __repr__(self) -> str:
        return f"Simplex({list(self)})"

    def text(self) -> str:
        """Space-separated decimal vertex ids, e.g. '0 2 5'."""
        return " ".join(str(v) for v in self)

    @classmethod
    def from_text(cls, text: str) -> "Simplex":
        return cls(int(tok) for tok in text.split())


class SimplicialComplex:
    """A mutable set of simplices closed under faces.

    The number of present cofaces of each simplex is counted one dimension
    at a time, on the first coface query at that dimension, and kept up to
    date by every later insertion and removal; so has_cofaces and
    can_delete cost O(1), and a complex nobody asks about cofaces costs
    nothing extra.  Mutate only through add/delete, or insert/discard where
    no checks are wanted, so the counts stay exact.
    """

    __slots__ = ("simplices", "_cofaces")

    def __init__(self, simplices: Iterable[Simplex] = ()):
        self.simplices: set[Simplex] = set(simplices)
        # vertex count k -> {k-vertex simplex: its present cofaces, >= 1}
        self._cofaces: dict[int, dict[Simplex, int]] = {}

    def __contains__(self, s: Simplex) -> bool:
        return s in self.simplices

    def __len__(self) -> int:
        return len(self.simplices)

    def __iter__(self) -> Iterator[Simplex]:
        return iter(self.simplices)

    def copy(self) -> "SimplicialComplex":
        return SimplicialComplex(self.simplices)

    def frozen(self) -> frozenset[Simplex]:
        return frozenset(self.simplices)

    def can_add(self, s: Simplex) -> bool:
        return s not in self.simplices and all(f in self.simplices for f in s.faces())

    def has_cofaces(self, s: Simplex) -> bool:
        counts = self._cofaces.get(len(s))
        if counts is None:
            counts = self._cofaces[len(s)] = {}
            for t in self.simplices:
                if len(t) == len(s) + 1:
                    _count(counts, t, 1)
        return s in counts

    def can_delete(self, s: Simplex) -> bool:
        return s in self.simplices and not self.has_cofaces(s)

    def add(self, s: Simplex) -> None:
        if not self.can_add(s):
            raise ContractViolation(f"cannot add {s}: present or missing faces")
        self.insert(s)

    def delete(self, s: Simplex) -> None:
        if not self.can_delete(s):
            raise ContractViolation(f"cannot delete {s}: absent or has cofaces")
        self.discard(s)

    def insert(self, s: Simplex) -> None:
        """Add s without checking its faces; no-op if present."""
        if s not in self.simplices:
            self.simplices.add(s)
            counts = self._cofaces.get(len(s) - 1)
            if counts is not None:
                _count(counts, s, 1)

    def discard(self, s: Simplex) -> None:
        """Remove s without checking its cofaces; no-op if absent."""
        if s in self.simplices:
            self.simplices.remove(s)
            counts = self._cofaces.get(len(s) - 1)
            if counts is not None:
                _count(counts, s, -1)


def _count(counts: dict[Simplex, int], s: Simplex, delta: int) -> None:
    """Add delta to the coface count of each face of s."""
    for f in s.faces():
        n = counts.get(f, 0) + delta
        if n:
            counts[f] = n
        else:
            del counts[f]
