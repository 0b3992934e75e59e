"""Result record returned by every update operation."""

from __future__ import annotations

from dataclasses import dataclass, field

CREATED = "created"
DESTROYED = "destroyed"


@dataclass
class OpResult:
    """Outcome of one atomic operation.

    vines maps old interval ids to new ids, with CREATED entries keyed by
    the new id and DESTROYED entries by the old one.  The rep engine never
    renames an id: a bar its update rule rewrites, or carries across an
    expansion's or contraction's site, maps to itself, and ids absent from
    the map are unchanged, apart from the bars wholly after such a site,
    which keep their reps and move by two (the barcode shows it).  The FZZ
    engine does not track vines and leaves the map empty.
    """
    op: str
    position: int
    vines: dict[int, object] = field(default_factory=dict)
    stats: dict[str, int] = field(default_factory=dict)
