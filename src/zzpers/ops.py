"""The eight atomic operations, each defined once.

One table gives every operation its shape, the directions of the two steps
it involves and its inverse.  A switch swaps the steps at i-1, i; an
expansion inserts a pair of steps for one simplex at i, i+1; a contraction
removes such a pair from i-1, i.  `check` (and `violation`) states when an
operation is legal, `edit` applies it to the steps of a filtration and
`inverse` gives the operation that undoes it.  The planner and both update
engines go through this module; the engines add only the homology update.
An expansion's legality reads the complex at i from the filtration's index
(ZigzagFiltration.index), and once that index is built, change the steps
only through `edit`, the one code that keeps it in step with them.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .chains import Simplex
from .errors import ContractViolation, IllegalContraction, IllegalExpansion, IllegalSwitch
from .filtration import ADD, DELETE, ZigzagFiltration

SWITCH = "switch"
EXPAND = "expand"
CONTRACT = "contract"


class OpSpec(NamedTuple):
    shape: str
    steps: tuple[str, str]  # directions at i-1, i (for an expansion: inserted at i, i+1)
    inverse: str


TABLE = {
    "fs": OpSpec(SWITCH, (ADD, ADD), "fs"),
    "bs": OpSpec(SWITCH, (DELETE, DELETE), "bs"),
    "os": OpSpec(SWITCH, (ADD, DELETE), "is"),
    "is": OpSpec(SWITCH, (DELETE, ADD), "os"),
    "oe": OpSpec(EXPAND, (DELETE, ADD), "oc"),
    "ie": OpSpec(EXPAND, (ADD, DELETE), "ic"),
    "oc": OpSpec(CONTRACT, (DELETE, ADD), "oe"),
    "ic": OpSpec(CONTRACT, (ADD, DELETE), "ie"),
}
OPS = tuple(TABLE)
EXPANSIONS = tuple(op for op, s in TABLE.items() if s.shape == EXPAND)


def spec(op: str) -> OpSpec:
    if op not in TABLE:
        raise ContractViolation(f"unknown operation {op!r}")
    return TABLE[op]


def check(f: ZigzagFiltration, op: str, i: int, sigma: Optional[Simplex] = None) -> None:
    """Raise unless op at position i is legal on f.

    An expansion reads the complex at i from f's index.  A contraction's
    simplex may be left out, but when given it must be the one the
    contraction removes.
    """
    shape, kinds, _ = spec(op)
    steps = f.steps
    m = len(steps)
    if shape == EXPAND:
        if not 0 <= i <= m:
            raise ContractViolation(f"{op} position {i} out of range 0..{m}")
        if sigma is None:
            raise ContractViolation(f"{op} needs a simplex")
        index = f.index()
        at, flags = index.masks[i], index.flags
        if kinds[0] == DELETE:  # sigma leaves, then comes back
            if not at & flags.get(sigma, 0):
                raise IllegalExpansion(f"{sigma.text()} not present at position {i}")
            if at & index.cofaces[sigma]:
                raise IllegalExpansion(f"{sigma.text()} has cofaces at position {i}")
        elif at & flags.get(sigma, 0):
            raise IllegalExpansion(f"{sigma.text()} already present at position {i}")
        elif any(not at & flags.get(face, 0) for face in sigma.faces()):
            raise IllegalExpansion(f"{sigma.text()} has missing faces at position {i}")
        return
    if not 1 <= i <= m - 1:
        raise ContractViolation(f"{op} position {i} out of range 1..{m - 1}")
    a, b = steps[i - 1], steps[i]
    if shape == CONTRACT:
        if (a.direction, b.direction) != kinds or a.simplex != b.simplex:
            raise IllegalContraction(
                f"steps {i - 1},{i} are not a {kinds[0]},{kinds[1]} pair of one simplex")
        if sigma is not None and sigma != a.simplex:
            raise IllegalContraction(
                f"{op} at {i} removes {a.simplex.text()}, not {sigma.text()}")
    elif (a.direction, b.direction) != kinds:
        raise ContractViolation(f"steps at {i - 1},{i} are {a.direction},{b.direction}, "
                                f"expected {kinds[0]},{kinds[1]}")
    elif a.direction != b.direction:
        if a.simplex == b.simplex:
            raise IllegalSwitch(f"{op} at {i}: both steps are {a.simplex.text()}")
    else:
        # of two additions the face must stay first, of two deletions last;
        # a simplex, or a face of it, has no more vertices and each in it
        face, coface = (a.simplex, b.simplex) if kinds[0] == ADD else (b.simplex, a.simplex)
        if len(face) <= len(coface) and all(map(coface.__contains__, face)):
            raise IllegalSwitch(f"{face.text()} is a face of {coface.text()}")


def violation(f: ZigzagFiltration, op: str, i: int,
              sigma: Optional[Simplex] = None) -> Optional[ContractViolation]:
    """The exception `check` raises for op at position i of f; None when legal."""
    try:
        check(f, op, i, sigma)
    except ContractViolation as exc:
        return exc
    return None


def edit(f: ZigzagFiltration, op: str, i: int, sigma: Optional[Simplex] = None) -> None:
    """Apply op's edit to the steps of f, and to its index once built; op
    must have passed `check`.  The index splices where the steps do: an
    expansion inserts the complexes after its two steps at i + 1, a
    contraction deletes entries i and i + 1, and a switch sets the complex
    at i to the one at i - 1 with its new step i - 1 applied; every other
    complex stays as it is."""
    shape, kinds, _ = TABLE[op]
    steps, index = f.steps, f._index
    if shape == SWITCH:
        steps[i - 1], steps[i] = steps[i], steps[i - 1]
        if index is not None:
            # the complex at i becomes the one at i - 1 with the new step
            # i - 1 applied; the two steps name different simplices, so that
            # step changes the bits it changed from i to i + 1
            masks = index.masks
            masks[i] ^= masks[i - 1] ^ masks[i + 1]
    elif shape == EXPAND:
        pair = [f.new_step(kinds[0], sigma), f.new_step(kinds[1], sigma)]
        steps[i:i] = pair
        if index is not None:
            inside = index.after(index.masks[i], pair[0])
            index.masks[i + 1:i + 1] = (inside, index.after(inside, pair[1]))
    else:
        del steps[i - 1:i + 1]
        if index is not None:
            del index.masks[i:i + 2]


def inverse(op: str, i: int, sigma: Optional[Simplex] = None
            ) -> tuple[str, int, Optional[Simplex]]:
    """The (op, position, simplex) that undoes op at i.  A contraction needs
    its recorded simplex: the expansion undoing it inserts that simplex."""
    shape, _, undo = spec(op)
    if shape == SWITCH:
        return undo, i, None
    if sigma is None:
        raise ContractViolation(f"cannot invert {op} without its recorded simplex")
    return undo, i - 1 if shape == CONTRACT else i + 1, sigma
