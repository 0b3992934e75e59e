"""Simplices, Z2 chains and the boundary operator.

Chains are sets of simplices with Z2 coefficients: addition is symmetric
difference, every chain is its own inverse.  All values are immutable and
safe to share.
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


class Chain:
    """A Z2 chain: a set of simplices sharing one dimension.

    The dimension is carried explicitly so that empty chains of different
    dimensions stay distinguishable.
    """

    __slots__ = ("dimension", "simplices", "_hash")

    def __init__(self, dimension: int, simplices: Iterable[Simplex] = ()):
        simps = frozenset(simplices)
        if dimension < 0:
            raise ContractViolation("chain dimension must be >= 0")
        size = dimension + 1
        for s in simps:
            if len(s) != size:
                raise ContractViolation(
                    f"simplex {s} has dimension {len(s) - 1}, chain wants {dimension}")
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "simplices", simps)
        object.__setattr__(self, "_hash", hash((dimension, simps)))

    def __setattr__(self, name, value):
        raise AttributeError("Chain is immutable")

    def __eq__(self, other) -> bool:
        return (isinstance(other, Chain)
                and self.dimension == other.dimension
                and self.simplices == other.simplices)

    def __hash__(self) -> int:
        return self._hash

    def __contains__(self, simplex: Simplex) -> bool:
        return simplex in self.simplices

    def __iter__(self) -> Iterator[Simplex]:
        return iter(self.simplices)

    def __len__(self) -> int:
        return len(self.simplices)

    def __bool__(self) -> bool:
        return bool(self.simplices)

    def __repr__(self) -> str:
        inside = " + ".join(sorted(s.text() for s in self.simplices)) or "0"
        return f"Chain(dim={self.dimension}, {inside})"


def chain_add(a: Chain, b: Chain) -> Chain:
    """Z2 sum: symmetric difference of the simplex sets."""
    if a.dimension != b.dimension:
        raise ContractViolation(
            f"cannot add chains of dimensions {a.dimension} and {b.dimension}")
    return Chain(a.dimension, a.simplices ^ b.simplices)


def boundary(s: Simplex) -> Chain:
    """Chain of all codimension-1 faces; the empty 0-chain for a vertex."""
    if s.dimension == 0:
        return Chain(0)
    return Chain(s.dimension - 1, s.faces())


def chain_boundary(c: Chain) -> Chain:
    """Z2 sum of the boundaries of the members."""
    if c.dimension == 0:
        raise ContractViolation("boundary of a 0-chain is not defined here")
    acc: set[Simplex] = set()
    for s in c.simplices:
        acc ^= set(s.faces())
    return Chain(c.dimension - 1, acc)


def is_cycle(c: Chain) -> bool:
    """Vertices are always cycles; otherwise the boundary must vanish."""
    if c.dimension == 0:
        return True
    return not chain_boundary(c)


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
