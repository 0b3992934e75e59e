"""The eight atomic operations, each defined once.

One table gives every operation its shape, the directions of the two steps
it involves and its inverse.  A switch swaps the steps at i-1, i; an
expansion inserts a pair of steps for one simplex at i, i+1; a contraction
removes such a pair from i-1, i.  `check` (and `violation`) states when an
operation is legal, `edit` applies it to the steps of a filtration and
`inverse` gives the operation that undoes it.  The planner and both update
engines go through this module; the engines add only the homology update.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

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


def check(f: ZigzagFiltration, op: str, i: int, sigma: Optional[Simplex] = None,
          complex_at: Optional[Callable[[int], object]] = None) -> None:
    """Raise unless op at position i is legal on f.

    An expansion reads the complex at i from complex_at(i), which must
    answer `in` and has_cofaces as a SimplicialComplex does; by default
    that is f.complex_at, which replays f, and the rep engine passes its
    index of the complexes instead.  A contraction's simplex may be left
    out, but when given it must be the one the contraction removes.
    """
    shape, kinds, _ = spec(op)
    steps = f.steps
    m = len(steps)
    if shape == EXPAND:
        if not 0 <= i <= m:
            raise ContractViolation(f"{op} position {i} out of range 0..{m}")
        if sigma is None:
            raise ContractViolation(f"{op} needs a simplex")
        cx = (complex_at or f.complex_at)(i)
        if kinds[0] == DELETE:  # sigma leaves, then comes back
            if sigma not in cx:
                raise IllegalExpansion(f"{sigma.text()} not present at position {i}")
            if cx.has_cofaces(sigma):
                raise IllegalExpansion(f"{sigma.text()} has cofaces at position {i}")
        elif sigma in cx:
            raise IllegalExpansion(f"{sigma.text()} already present at position {i}")
        elif any(face not in cx for face in sigma.faces()):
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
        # of two additions the face must stay first, of two deletions last
        face, coface = (a, b) if a.is_add else (b, a)
        if set(face.simplex) <= set(coface.simplex):
            raise IllegalSwitch(f"{face.simplex.text()} is a face of {coface.simplex.text()}")


def violation(f: ZigzagFiltration, op: str, i: int,
              sigma: Optional[Simplex] = None) -> Optional[ContractViolation]:
    """The exception `check` raises for op at position i of f; None when legal."""
    try:
        check(f, op, i, sigma)
    except ContractViolation as exc:
        return exc
    return None


def edit(f: ZigzagFiltration, op: str, i: int, sigma: Optional[Simplex] = None) -> None:
    """Apply op's edit to the steps of f; op must have passed `check`."""
    shape, kinds, _ = TABLE[op]
    steps = f.steps
    if shape == SWITCH:
        steps[i - 1], steps[i] = steps[i], steps[i - 1]
    elif shape == EXPAND:
        steps[i:i] = [f.new_step(kinds[0], sigma), f.new_step(kinds[1], sigma)]
    else:
        del steps[i - 1:i + 1]


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
