"""Result record returned by every update operation."""

from __future__ import annotations

from dataclasses import dataclass, field

CREATED = "created"
DESTROYED = "destroyed"


@dataclass
class OpResult:
    """Outcome of one atomic operation.

    vines maps old interval ids to new ids, with CREATED entries keyed by
    the new id and DESTROYED entries by the old one.  Ids absent from the
    map are unchanged (identity vines).
    """
    op: str
    position: int
    vines: dict[int, object] = field(default_factory=dict)
    stats: dict[str, int] = field(default_factory=dict)

    def created_ids(self) -> list[int]:
        return sorted(k for k, v in self.vines.items() if v == CREATED)

    def destroyed_ids(self) -> list[int]:
        return sorted(k for k, v in self.vines.items() if v == DESTROYED)
