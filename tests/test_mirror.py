"""Time reversal: a zigzag filtration read backwards has the mirrored barcode.

Reversing the m steps of a filtration and swapping additions with deletions
maps every bar (dim, b, d) to (dim, m - d, m - b) (Carlsson & de Silva,
"Zigzag Persistence", 2010), and an op at position i to the op at m - i,
with fs and bs swapped and every other kind kept.  A cloud reversed in time
(t -> s - t) mirrors every band of its sweep.  These properties need no
oracle: they catch code that treats births and deaths, additions and
deletions, or t = 0 and t = s differently.  A defect that is symmetric in
time passes them.
"""

from __future__ import annotations

import random

import pytest

from zzpers import dpc
from zzpers.errors import Exhausted
from zzpers.filtration import ADD, DELETE, ZigzagFiltration
from zzpers.fzz import FzzEngine, barcode_from_scratch
from zzpers.planner import (ScriptOp, apply_to_filtration, random_filtration,
                            random_script, state_from_filtration)
from zzpers.rep_updates import apply_op

from test_dpc import reference_clouds

_MIRRORED_KIND = {"fs": "bs", "bs": "fs"}


def mirrored(f: ZigzagFiltration) -> ZigzagFiltration:
    """f's steps reversed, each addition a deletion and each deletion an
    addition."""
    return ZigzagFiltration.from_moves((DELETE if step.is_add else ADD, step.simplex)
                                       for step in reversed(f.steps))


def mirrored_bars(bars, m: int) -> list[tuple[int, int, int]]:
    return sorted((dim, m - d, m - b) for dim, b, d in bars)


def mirrored_op(sop: ScriptOp, m: int) -> ScriptOp:
    """sop, on a filtration of length m, as the op on its mirror."""
    return ScriptOp(_MIRRORED_KIND.get(sop.op, sop.op), m - sop.pos, sop.simplex)


def seeded_scripts(seeds: range, ops: int):
    """(filtration, script) pairs: random_script on random_filtration, 6
    vertices, at most 24 simplices, length at most 80."""
    for seed in seeds:
        f = random_filtration(random.Random(seed), list(range(6)), dim_cap=2,
                              max_simplices=24, max_length=80)
        try:
            yield f, random_script(f, ops, seed=seed, max_length=80)
        except Exhausted:
            continue


def test_mirrored_filtration_has_the_mirrored_barcode():
    # state_from_filtration builds the mirror by its own script, and the
    # oracle agrees on both
    checked = 0
    for seed in range(200):
        f = random_filtration(random.Random(seed), list(range(5)), dim_cap=2,
                              max_simplices=16, max_length=40)
        m = len(f.steps)
        state, mirror = state_from_filtration(f), state_from_filtration(mirrored(f))
        assert mirrored(mirror.filtration).moves() == f.moves()
        assert sorted(mirror.barcode()) == mirrored_bars(state.barcode(), m)
        assert sorted(barcode_from_scratch(mirrored(f))) == mirrored_bars(
            barcode_from_scratch(f), m)
        assert mirror.check_certificate() == []
        checked += bool(state.barcode())
    assert checked > 150


def test_rep_engine_commutes_with_time_reversal():
    # each op on a state and the mirrored op on the mirrored state give
    # mirrored barcodes after every op
    kinds: dict[str, int] = {}
    for f, script in seeded_scripts(range(40, 80), 60):
        state, mirror = state_from_filtration(f), state_from_filtration(mirrored(f))
        for sop in script:
            m = len(state.filtration.steps)
            apply_op(state, sop.op, sop.pos, sop.simplex)
            back = mirrored_op(sop, m)
            apply_op(mirror, back.op, back.pos, back.simplex)
            assert sorted(mirror.barcode()) == mirrored_bars(
                state.barcode(), len(state.filtration.steps)), sop.text()
            kinds[sop.op] = kinds.get(sop.op, 0) + 1
        assert mirrored(mirror.filtration).moves() == state.filtration.moves()
        assert state.check_certificate() == [] and mirror.check_certificate() == []
    assert set(kinds) == {"fs", "bs", "os", "is", "oe", "ie", "oc", "ic"}
    assert sum(kinds.values()) >= 2000


def test_fzz_engine_commutes_with_time_reversal():
    # the FZZ engine runs neither oe nor oc: both engines start over on
    # the edited filtrations after one
    ran = 0
    for f, script in seeded_scripts(range(40, 60), 60):
        engine, mirror = FzzEngine(f), FzzEngine(mirrored(f))
        for sop in script:
            m = len(engine.filtration.steps)
            back = mirrored_op(sop, m)
            if sop.op in ("oe", "oc"):
                f, g = engine.filtration.copy(), mirror.filtration.copy()
                apply_to_filtration(f, sop)
                apply_to_filtration(g, back)
                engine, mirror = FzzEngine(f), FzzEngine(g)
            else:
                engine.apply(sop.op, sop.pos, sop.simplex)
                mirror.apply(back.op, back.pos, back.simplex)
                ran += 1
            assert sorted(mirror.barcode()) == mirrored_bars(
                engine.barcode(), len(engine.filtration.steps)), sop.text()
    assert ran > 500


def reversed_in_time(tr: dpc.Trajectories) -> dpc.Trajectories:
    return dpc.Trajectories({p: track[::-1] for p, track in tr.positions.items()})


# CI's far.csv and copied.csv: a far point beside two near pairs, and a
# copied point, whose tied bands take planner.transform
CI_CLOUDS = {
    "far": "t,id,x,y\n0,0,0,0\n0,1,1.58,0\n0,2,100000,0\n0,3,0,5\n"
           "1,0,0,0\n1,1,3,0\n1,2,100000,0\n1,3,0,2\n",
    "copied": "t,id,x,y\n0,0,0,0\n0,1,3,0\n0,2,0,0\n0,3,1,4\n1,0,1,1\n1,1,2.5,0.5\n"
              "1,2,1,1\n1,3,0,2\n2,0,0,2\n2,1,4,1\n2,2,0,2\n2,3,2,3\n",
}


def cloud(name: str) -> dpc.Trajectories:
    if name in CI_CLOUDS:
        return dpc.Trajectories.from_csv(CI_CLOUDS[name])
    return reference_clouds()[name]


@pytest.mark.parametrize("name, dim_cap", [
    *((name, cap) for name in sorted(reference_clouds()) for cap in (1, 2)),
    *((name, 2) for name in sorted(CI_CLOUDS))])
def test_sweep_of_a_cloud_reversed_in_time_is_mirrored(name, dim_cap):
    # the same bands, boundaries and transformed count, and each band's
    # barcode mirrored by the band's filtration length; vine ids are left
    # out.  The reversed curves' coefficients round differently, so the
    # boundaries agree up to dpc.REL_EPS
    tr = cloud(name)

    def swept(points):
        events, _ = dpc.detect_events(points, dim_cap)
        return list(dpc.sweep(points, events, dim_cap))
    forward, backward = swept(tr), swept(reversed_in_time(tr))
    assert len(backward) == len(forward) > 1
    for a, b in zip(forward, backward):
        assert (b.band.delta_hi, b.band.delta_lo) == pytest.approx(
            (a.band.delta_hi, a.band.delta_lo), rel=dpc.REL_EPS)
        assert b.length == a.length
        assert sorted(b.band.barcode) == mirrored_bars(a.band.barcode, a.length)
    assert sum(b.transformed for b in backward) == sum(a.transformed for a in forward)
