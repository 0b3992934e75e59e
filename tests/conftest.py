from __future__ import annotations

import random
from itertools import combinations

import pytest

from zzpers import dpc
from zzpers.chains import Simplex
from zzpers.filtration import ZigzagFiltration


def simplex(*verts: int) -> Simplex:
    return Simplex(verts)


def chain(f: ZigzagFiltration, *simplices) -> int:
    """The chain of the given simplices (Simplex or vertex tuples) as an int
    over f's complex index, numbering any the index has not seen."""
    index, out = f.index(), 0
    for s in simplices:
        out ^= index.number(Simplex(s))
    return out


def filtration(*moves: str) -> ZigzagFiltration:
    """Build from compact move strings like '+0', '-0.1' (dots split vertices)."""
    out = []
    for move in moves:
        direction = "i" if move[0] == "+" else "d"
        verts = [int(tok) for tok in move[1:].split(".")]
        out.append((direction, verts))
    return ZigzagFiltration.from_moves(out)


def edge_signature(tr: dpc.Trajectories, delta: float) -> tuple:
    """Combinatorial shape of the edge-level zigzag at delta: the edges
    present at t = 0, each change's kind and pair in time order, and the
    edges present at t = s."""
    pairs = list(combinations(tr.points, 2))
    start, changes, end = dpc._edge_changes(
        pairs, [dpc.pair_distance_curve(tr, *pq) for pq in pairs], delta, tr.spans)
    return (tuple(start), tuple((kind, pq) for _, pq, kind in changes), tuple(end))


@pytest.fixture
def tri():
    """The running triangle example: two vertices, one edge, torn down."""
    return filtration("+0", "+1", "+0.1", "-0.1", "-1", "-0")


@pytest.fixture
def rng():
    return random.Random(20240817)
