"""Acceptance criteria, one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from dataclasses import dataclass, field

import pytest

from zzpers.chains import Simplex
from zzpers.dpc import Trajectories, detect_events, vineyard
from zzpers.errors import Exhausted, UnsupportedOnFzzPath
from zzpers.filtration import ADD, DELETE, ZigzagFiltration
from zzpers.fzz import FzzEngine, barcode_from_scratch, convert, reduce
from zzpers.planner import (apply_to_filtration, random_filtration,
                            random_script, reduce_to_empty,
                            state_from_filtration, transform)
from zzpers.rep_updates import PersistenceState, apply_op
from zzpers.reps import RepSeq

from conftest import edge_signature, filtration, simplex

CORPUS_FILTRATIONS = 1000
OPS_PER_FILTRATION = 50


def report(num: int, ok: bool, text: str) -> None:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, text


@dataclass
class SweepResult:
    elapsed: float = 0.0
    ops: int = 0
    filtrations: int = 0
    certificate_failures: list = field(default_factory=list)
    oracle_failures: list = field(default_factory=list)
    mapping_failures: list = field(default_factory=list)


@pytest.fixture(scope="module")
def sweep() -> SweepResult:
    """The shared randomized corpus: criteria 1, 2 and 6 read it."""
    out = SweepResult()
    rng = random.Random(97)
    start = time.perf_counter()
    for trial in range(CORPUS_FILTRATIONS):
        f = random_filtration(rng, [0, 1, 2, 3], dim_cap=2,
                              max_simplices=12, max_length=40)
        state = state_from_filtration(f)
        out.filtrations += 1
        _check_mapping(out, f)
        try:
            script = random_script(f, OPS_PER_FILTRATION, seed=trial,
                                   max_length=48)
        except Exhausted:
            continue
        for k, sop in enumerate(script):
            apply_op(state, sop.op, sop.pos, sop.simplex)
            out.ops += 1
            errs = state.check_certificate()
            if errs:
                out.certificate_failures.append((trial, k, sop, errs[:2]))
            oracle = barcode_from_scratch(state.filtration)
            if state.barcode() != oracle:
                out.oracle_failures.append((trial, k, sop))
        _check_mapping(out, state.filtration)
    out.elapsed = time.perf_counter() - start
    return out


def _check_mapping(out: SweepResult, f: ZigzagFiltration) -> None:
    if not f.steps:
        return
    matrix, pairs = reduce(convert(f)[0])
    if len(pairs) != len(f.steps) // 2 or matrix.unpaired() != [0]:
        out.mapping_failures.append(f.moves())


def test_criterion_1_certificates(sweep):
    ok = (not sweep.certificate_failures and sweep.ops >= 45000
          and sweep.elapsed < 120.0)
    report(1, ok,
           f"{sweep.ops} ops over {sweep.filtrations} filtrations, "
           f"{len(sweep.certificate_failures)} certificate failures, "
           f"{sweep.elapsed:.1f}s (< 120s)")


def test_criterion_2_oracle_equality(sweep):
    ok = not sweep.oracle_failures and sweep.ops >= 45000
    report(2, ok,
           f"{sweep.ops} ops, {len(sweep.oracle_failures)} barcode mismatches "
           f"against the from-scratch pipeline")


def test_criterion_3_engine_agreement():
    rng = random.Random(41)
    agreements = 0
    mismatches = 0
    rejections = 0
    for trial in range(150):
        f = random_filtration(rng, [0, 1, 2, 3], dim_cap=2,
                              max_simplices=10, max_length=26)
        if not f.steps:
            continue
        state = state_from_filtration(f)
        engine = FzzEngine(f)
        try:
            script = random_script(f, 25, seed=trial, max_length=36)
        except Exhausted:
            continue
        for sop in script:
            apply_op(state, sop.op, sop.pos, sop.simplex)
            if sop.op in ("oe", "oc"):
                try:
                    engine.apply(sop.op, sop.pos, sop.simplex)
                except UnsupportedOnFzzPath:
                    rejections += 1
                    engine = FzzEngine(state.filtration)
                else:
                    mismatches += 1
                continue
            engine.apply(sop.op, sop.pos, sop.simplex)
            if engine.barcode() == state.barcode():
                agreements += 1
            else:
                mismatches += 1
    ok = mismatches == 0 and agreements >= 1000 and rejections >= 100
    report(3, ok,
           f"{agreements} six-op agreements, {rejections} deterministic "
           f"outward rejections, {mismatches} mismatches")


def test_criterion_4_hand_fixtures():
    tri = filtration("+0", "+1", "+0.1", "-0.1", "-1", "-0")
    state = state_from_filtration(tri)
    fixture_ok = state.barcode() == [(0, 1, 5), (0, 2, 2), (0, 4, 4)]

    apply_op(state, "ic", 3)
    contraction_ok = state.barcode() == [(0, 1, 3), (0, 2, 2)]
    contraction_ok &= not state.check_certificate()

    rng = random.Random(4)
    sites = 0
    identity_ok = True
    while sites < 20:
        f = random_filtration(rng, [0, 1, 2, 3], dim_cap=2,
                              max_simplices=10, max_length=24)
        state = state_from_filtration(f)
        m = len(f.steps)
        if m == 0:
            continue
        pos = rng.randrange(0, m + 1)
        cx = f.complex_at(pos)
        outward = [s for s in sorted(cx) if not cx.has_cofaces(s)]
        inward = [s for s in (simplex(0), simplex(1), simplex(2), simplex(3))
                  if cx.can_add(s)]
        before = state.barcode()
        if outward and sites % 2 == 0:
            apply_op(state, "oe", pos, outward[0])
            apply_op(state, "oc", pos + 1)
        elif inward:
            apply_op(state, "ie", pos, inward[0])
            apply_op(state, "ic", pos + 1)
        else:
            continue
        identity_ok &= state.barcode() == before
        identity_ok &= not state.check_certificate()
        sites += 1
    ok = fixture_ok and contraction_ok and identity_ok
    report(4, ok,
           f"triangle fixture {'ok' if fixture_ok else 'BAD'}, "
           f"contraction fixture {'ok' if contraction_ok else 'BAD'}, "
           f"expansion-contraction identity on {sites} sites "
           f"{'ok' if identity_ok else 'BAD'}")


def test_criterion_5_universality():
    rng = random.Random(5)
    reduced = 0
    exact = 0
    for trial in range(100):
        f1 = random_filtration(rng, [0, 1, 2, 3], dim_cap=2,
                               max_simplices=10, max_length=24)
        f2 = random_filtration(rng, [0, 1, 2, 3], dim_cap=2,
                               max_simplices=10, max_length=24)
        state = state_from_filtration(f1)
        for sop in reduce_to_empty(f1):
            apply_op(state, sop.op, sop.pos, sop.simplex)
        assert not state.filtration.steps and not state.intervals
        reduced += 1
        sim = f1.copy()
        for sop in transform(f1, f2):
            apply_to_filtration(sim, sop)
        if sim.moves() == f2.moves():
            exact += 1
    ok = reduced == 100 and exact == 100
    report(5, ok, f"{reduced}/100 reductions to empty applied cleanly, "
                  f"{exact}/100 transforms reproduced the target exactly")


def test_criterion_6_interval_mapping(sweep):
    ok = not sweep.mapping_failures
    report(6, ok,
           f"finite interval counts and the lone unpaired cone vertex checked "
           f"on {2 * sweep.filtrations} conversions, "
           f"{len(sweep.mapping_failures)} failures")


def test_criterion_7_vineyards():
    rng = random.Random(77)
    bands_checked = 0
    for n_points, n_times in [(4, 3), (5, 4), (6, 3), (8, 3), (4, 10)]:
        tr = Trajectories({p: [tuple(rng.uniform(0, 10) for _ in range(2))
                               for _ in range(n_times)] for p in range(n_points)})
        vy = vineyard(tr, dim_cap=2, check_every=1)  # raises on any mismatch
        bands_checked += len(vy.bands)

    scan_misses = 0
    for _ in range(2):
        tr = Trajectories({p: [tuple(rng.uniform(0, 10) for _ in range(2))
                               for _ in range(3)] for p in range(5)})
        events, _ = detect_events(tr, 2)
        deltas = sorted(e.delta for e in events)
        top = (deltas[-1] if deltas else 1.0) * 1.05 + 0.1
        prev_sig, prev_d = None, None
        for k in range(1, 10001):
            d = top * k / 10000
            sig = edge_signature(tr, d)
            if prev_sig is not None and sig != prev_sig:
                if not any(prev_d - 1e-12 <= ev <= d + 1e-12 for ev in deltas):
                    scan_misses += 1
            prev_sig, prev_d = sig, d
    ok = bands_checked > 50 and scan_misses == 0
    report(7, ok, f"{bands_checked} bands matched the oracle exactly; "
                  f"{scan_misses} edge-set changes missed by the detector "
                  f"over two 10^4-step grid scans")


def test_criterion_8_speedup_trend():
    from zzpers.cli import bench_run
    rng = random.Random(42)
    tr = Trajectories({p: [tuple(rng.uniform(0.0, 10.0) for _ in range(2))
                           for _ in range(20)] for p in range(8)})
    counts, mlen, t_up, t_fs = bench_run(tr, 2)
    ratio = t_up / t_fs
    ok = ratio <= 0.5
    report(8, ok,
           f"8 points x 20 samples: T_UP={t_up:.2f}s T_FS={t_fs:.2f}s "
           f"ratio={ratio:.3f} (must be <= 0.5), MLen={mlen}, "
           f"ops={dict(counts)}")


def _vertex_block_state(n_vertices: int, blocks: int) -> PersistenceState:
    """A long filtration of isolated vertices added and removed in rotated
    blocks; bars and representatives are written down directly."""
    moves = []
    for b in range(blocks):
        order = [(v + b) % n_vertices for v in range(n_vertices)]
        moves.extend((ADD, (v,)) for v in order)
        moves.extend((DELETE, (v,)) for v in order)  # same order: deletion of
        # the first-added vertex right after the last addition gives switch sites
    f = ZigzagFiltration.from_moves(moves)
    state = PersistenceState(f)
    m = len(f.steps)
    alive: dict[Simplex, int] = {}
    for j, step in enumerate(state.filtration.steps):
        if step.is_add:
            alive[step.simplex] = j + 1
        else:
            b = alive.pop(step.simplex)
            z = state.store.index.flags[step.simplex]
            n = j - b + 1
            rep = RepSeq(b, j, 0, [z] * n, [None] + [0] * (n - 1) + [None])
            state.add_interval(rep)
    assert len(state.intervals) == m // 2
    return state


def _switch_site(state: PersistenceState, kind: str, rng: random.Random) -> int:
    """A random position where an inward (is) or outward (os) switch applies."""
    want = (DELETE, ADD) if kind == "is" else (ADD, DELETE)
    steps = state.filtration.steps
    return rng.choice([i for i in range(1, len(steps))
                       if (steps[i - 1].direction, steps[i].direction) == want
                       and steps[i - 1].simplex != steps[i].simplex])


def _median_op_time(state: PersistenceState, kind: str, rounds: int,
                    rng: random.Random) -> float:
    times = []
    while len(times) < rounds:
        i = _switch_site(state, kind, rng)
        tic = time.perf_counter()
        apply_op(state, kind, i)
        times.append(time.perf_counter() - tic)
    return statistics.median(times)


def test_criterion_9_scaling_trends():
    rng = random.Random(11)
    n_vertices = 25
    medians = {"is": {}, "os": {}}
    for m_target in (200, 400, 800):
        blocks = m_target // (2 * n_vertices)
        state = _vertex_block_state(n_vertices, blocks)
        assert len(state.filtration.steps) == m_target
        if m_target == 200:
            assert not state.check_certificate()
        for kind in ("is", "os"):
            medians[kind][m_target] = _median_op_time(state, kind, 60, rng)
    is_ratio = medians["is"][800] / medians["is"][200]
    os_ratio = medians["os"][800] / medians["os"][200]
    # linear growth predicts 4x over the 4x length range; allow factor 2.
    # quadratic growth would be 16x, so both stay well below 16 too.
    ok = is_ratio <= 8.0 and os_ratio <= 8.0
    report(9, ok,
           f"inward switch medians {_fmt(medians['is'])} ratio {is_ratio:.2f} "
           f"(<= 8); outward switch medians {_fmt(medians['os'])} ratio "
           f"{os_ratio:.2f} (<= 8)")


def test_switch_visits_do_not_grow_with_length():
    # a switch reads the bars at its site and, through over, those spanning
    # it: the most it reads is set by the block of 25 vertices, whatever m
    most = {}
    for m_target in (200, 400, 800):
        state = _vertex_block_state(25, m_target // 50)
        rng = random.Random(11)
        most[m_target] = {kind: max(apply_op(state, kind, _switch_site(state, kind, rng))
                                    .stats["visited"] for _ in range(60))
                          for kind in ("os", "is")}
    assert most[200] == most[400] == most[800], most


def _fmt(per_m: dict) -> str:
    return "{" + ", ".join(f"m={k}: {v * 1e6:.0f}us" for k, v in sorted(per_m.items())) + "}"
