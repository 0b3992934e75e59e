from __future__ import annotations

import hashlib
import math
import random
from itertools import combinations

import pytest

from zzpers import dpc
from zzpers.chains import Simplex
from zzpers.dpc import (BOUNDARY_SHRINK, BOUNDARY_VANISH, DECREASING_CROSSING,
                        INCREASING_CROSSING, LOCAL_MAX, LOCAL_MIN,
                        OPPOSITE_CROSSING, Layout, Trajectories, canonical_layout,
                        compile_event, detect_events, filtration_at,
                        pair_distance_curve, presence_times, vineyard)
from zzpers.errors import ContractViolation
from zzpers.filtration import ADD, DELETE, ZigzagFiltration
from zzpers.fzz import barcode_from_scratch
from zzpers.planner import Emitter, apply_to_filtration, transform

from conftest import edge_signature

INTERIOR_KINDS = (INCREASING_CROSSING, DECREASING_CROSSING, OPPOSITE_CROSSING,
                  LOCAL_MIN, LOCAL_MAX)


def traj(points):
    return Trajectories({pid: [tuple(map(float, p)) for p in track]
                         for pid, track in points.items()})


def random_traj(rng, n_points, n_times, box=10.0):
    return Trajectories({p: [tuple(rng.uniform(0, box) for _ in range(2))
                             for _ in range(n_times)] for p in range(n_points)})


class TestCurves:
    def test_stationary_points_constant(self):
        tr = traj({0: [(0, 0), (0, 0)], 1: [(3, 4), (3, 4)]})
        assert pair_distance_curve(tr, 0, 1) == [(0.0, 0.0, 25.0)]

    def test_crossing_points_have_interior_minimum(self):
        tr = traj({0: [(0, 0), (2, 0)], 1: [(2, 0), (0, 0)]})
        ((a, b, c),) = pair_distance_curve(tr, 0, 1)
        tstar = -b / (2 * a)
        assert 0 < tstar < 1 and a > 0
        assert a * tstar * tstar + b * tstar + c == pytest.approx(0.0)

    def test_matches_closed_form_on_dense_grid(self, rng):
        tr = random_traj(rng, 3, 4)
        curve = pair_distance_curve(tr, 0, 2)
        for k in range(30):
            t = rng.uniform(0, 3)
            seg = min(int(t), 2)
            u = t - seg
            a, b, c = curve[seg]
            p0, p1 = tr.positions[0][seg], tr.positions[0][seg + 1]
            q0, q1 = tr.positions[2][seg], tr.positions[2][seg + 1]
            px = [x0 + u * (x1 - x0) for x0, x1 in zip(p0, p1)]
            qx = [x0 + u * (x1 - x0) for x0, x1 in zip(q0, q1)]
            direct = sum((x - y) ** 2 for x, y in zip(px, qx))
            assert (a * u + b) * u + c == pytest.approx(direct, rel=1e-9)

    def test_non_finite_coordinates_rejected(self):
        with pytest.raises(ContractViolation):
            traj({0: [(0, 0), (0, 0)], 1: [(math.nan, 0), (1, 0)]})

    def test_unknown_point(self):
        tr = traj({0: [(0, 0)], 1: [(1, 1)]})
        with pytest.raises(ContractViolation):
            pair_distance_curve(tr, 0, 9)


class TestDetectEvents:
    def test_monotone_pair_has_no_interior_events(self):
        tr = traj({0: [(0, 0), (0, 0)], 1: [(1, 0), (5, 0)]})
        events, _ = detect_events(tr)
        assert [e for e in events if e.kind in INTERIOR_KINDS] == []

    def test_events_sorted_by_falling_delta(self, rng):
        tr = random_traj(rng, 4, 4)
        events, _ = detect_events(tr)
        deltas = [e.delta for e in events]
        assert deltas == sorted(deltas, reverse=True)

    def test_constant_curves_vanish_at_their_distance(self):
        # three collinear static points: each pair's window over all of
        # [0, s] dies at its constant distance, at both ends at once
        tr = traj({0: [(0, 0), (0, 0)], 1: [(1, 0), (1, 0)], 2: [(2, 0), (2, 0)]})
        events, _ = detect_events(tr)
        assert [(e.delta, e.time, e.kind, e.pairs) for e in events] == [
            (2.0, 0.0, BOUNDARY_VANISH, ((0, 2),)),
            (1.0, 0.0, BOUNDARY_VANISH, ((0, 1),)),
            (1.0, 0.0, BOUNDARY_VANISH, ((1, 2),))]
        vy = vineyard(tr, check_every=1)
        assert [(b.delta_hi, b.delta_lo) for b in vy.bands] == \
            [(math.inf, 2.0), (2.0, 1.0), (1.0, 0.0)]

    def test_a_wide_cloud_keeps_its_small_events(self):
        # 0 and 1 pass 0.05 apart while 2 stays 10^4 away: the distance
        # 0.05 is far above the cloud's relative tolerance, although below
        # REL_EPS times its largest squared distance
        tr = traj({0: [(0, 0), (0, 0)], 1: [(1, 0.05), (-1, 0.05)],
                   2: [(10000, 0), (10000, 0)]})
        vy = vineyard(tr, check_every=1)
        assert (vy.bands[-1].delta_hi, vy.bands[-1].delta_lo) == (pytest.approx(0.05), 0.0)
        assert_barcodes_inside_bands(tr, vy)

    @pytest.mark.parametrize("points, bands", [
        # the closest approach is 0.05 of the way into its segment: a root's
        # place in the segment compares with REL_EPS, not a squared distance
        ({0: [(0, 0), (0, 0)], 1: [(-0.1, 0.05), (1.9, 0.05)],
          2: [(10000, 0), (10000, 0)]}, 7),
        # local mins at t = 0.5 (0.3) and t = 1.435 (0.534) of the same pair
        # are two events: deltas dedupe on a distance scale, times on the span
        ({0: [(0, 0)] * 3, 1: [(-1, 0.3), (1, 0.3), (-1, 0.8)],
          2: [(10000, 0)] * 3}, 8)])
    def test_a_wide_cloud_keeps_its_extremes_apart(self, points, bands):
        tr = traj(points)
        vy = vineyard(tr, check_every=1)
        assert len(vy.bands) == bands
        assert_barcodes_inside_bands(tr, vy)

    @pytest.mark.parametrize("far", [1e5, 1e6])
    def test_a_far_point_leaves_near_slopes_alone(self, far):
        # point 2's squared distance, 10^10 or more, once set one slope gate
        # for every pair: at t = 1 the slopes of 0-1 (8.5) and 1-3 (-3.5)
        # read as flat, so two boundary events were lost and the crossing
        # of 0-1 and 0-3 was taken for a tangent.  Each pair now gates on
        # its own curve, and each crossing on the larger of its two
        tr = traj({0: [(0, 0), (0, 0)], 1: [(1.58, 0), (3, 0)],
                   2: [(far, 0), (far, 0)], 3: [(0, 5), (0, 2)]})
        vy = vineyard(tr, check_every=1)
        assert len(vy.bands) == 11
        assert_barcodes_inside_bands(tr, vy)

    def test_matches_grid_scan(self, rng):
        for _ in range(4):
            tr = random_traj(rng, 4, 3)
            events, _ = detect_events(tr)
            deltas = sorted(e.delta for e in events)
            top = (deltas[-1] if deltas else 1.0) * 1.05 + 0.1
            grid = [top * k / 1500 for k in range(1, 1501)]
            prev_sig, prev_d = None, None
            for d in grid:
                sig = edge_signature(tr, d)
                if prev_sig is not None and sig != prev_sig:
                    assert any(prev_d - 1e-12 <= ev <= d + 1e-12 for ev in deltas), \
                        f"unexplained change in ({prev_d}, {d})"
                prev_sig, prev_d = sig, d


class TestPresence:
    def test_presence_nests_monotonically(self, rng):
        tr = random_traj(rng, 3, 3)
        curve = pair_distance_curve(tr, 0, 1)
        small = presence_times(curve, 1.0, tr.spans)
        big = presence_times(curve, 5.0, tr.spans)
        for lo, hi in small:
            assert any(blo <= lo and hi <= bhi for blo, bhi in big)


def assert_barcodes_inside_bands(tr, vy, dim_cap=2):
    """Every threshold inside a band gives its barcode, not only the one the
    band is laid out at: three in each band are compared with the oracle."""
    for band in vy.bands:
        top = band.delta_lo + 1.0 if band.delta_hi == math.inf else band.delta_hi
        for f in (0.01, 0.5, 0.99):
            delta = band.delta_lo + f * (top - band.delta_lo)
            assert barcode_from_scratch(filtration_at(tr, delta, dim_cap)) == \
                band.barcode, f"band {band.index} at {delta}"


def step_script(tr, event, above, below, dim_cap, current):
    """The script of compile_event, the sweep's step, for the event alone on
    a copy of current, which must be the filtration at above; the step
    runs as on a checked band, and its transform fallback is refused."""
    def refuse(*args):
        raise AssertionError(f"{event.kind} fell back to transform")
    layout = canonical_layout(tr, above, dim_cap)
    assert dpc._holds(current, layout.moves()), "not the filtration of the band above"
    sim = current.copy()
    em = Emitter(sim, lambda sop: apply_to_filtration(sim, sop))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(dpc, "transform", refuse)
        compile_event(em, tr, [event], layout, above, below, dim_cap, True)
    return em.script


class TestCompile:
    def test_scripts_reach_canonical_targets(self, rng):
        for trial in range(3):
            tr = random_traj(rng, 4, 3)
            events, _ = detect_events(tr)
            if not events:
                continue
            deltas = [e.delta for e in events]
            evals = [deltas[0] + 1.0]
            for hi, lo in zip(deltas, deltas[1:]):
                evals.append((hi + lo) / 2)
            evals.append(deltas[-1] / 2)
            current = filtration_at(tr, evals[0])
            for g, event in enumerate(events):
                script = step_script(tr, event, evals[g], evals[g + 1], 2, current)
                for sop in script:
                    apply_to_filtration(current, sop)
                assert current.moves() == filtration_at(tr, evals[g + 1]).moves()

    def test_opposite_crossing_with_shared_simplex_contracts(self):
        # a triangle edge appears while another disappears: their crossing
        # forces the shared 2-simplex through an inward contraction
        tr = traj({0: [(0.0, 0.0), (0.0, 0.0)],
                   1: [(1.0, 0.0), (1.0, 0.0)],
                   2: [(-1.0, 2.0), (2.0, 2.0)]})
        events, _ = detect_events(tr)
        opp = [e for e in events if e.kind == OPPOSITE_CROSSING]
        assert opp
        event = opp[0]
        deltas = [e.delta for e in events]
        idx = deltas.index(event.delta)
        above = (deltas[idx - 1] + event.delta) / 2 if idx else event.delta + 1.0
        below = (event.delta + deltas[idx + 1]) / 2 if idx + 1 < len(deltas) \
            else event.delta / 2
        current = filtration_at(tr, above)
        script = step_script(tr, event, above, below, 2, current)
        assert any(s.op == "ic" for s in script)

    def test_dim_cap_limits_ops(self, rng):
        tr = random_traj(rng, 4, 3)
        events, _ = detect_events(tr)
        if not events:
            return
        deltas = [e.delta for e in events]
        evals = [deltas[0] + 1.0]
        for hi, lo in zip(deltas, deltas[1:]):
            evals.append((hi + lo) / 2)
        evals.append(deltas[-1] / 2)
        current = filtration_at(tr, evals[0], dim_cap=1)
        for g, event in enumerate(events):
            script = step_script(tr, event, evals[g], evals[g + 1], 1, current)
            for sop in script:
                assert sop.simplex is None or sop.simplex.dimension <= 1
                apply_to_filtration(current, sop)


class TestVineyard:
    def test_single_static_point(self):
        tr = traj({0: [(1, 2), (1, 2)]})
        vy = vineyard(tr)
        assert len(vy.bands) == 1
        band = vy.bands[0]
        assert band.barcode == [(0, 1, 1)]
        assert band.delta_hi == math.inf

    def test_every_band_matches_oracle(self, rng):
        tr = random_traj(rng, 4, 3)
        vy = vineyard(tr, check_every=1)  # raises internally on mismatch
        assert vy.bands

    @pytest.mark.parametrize("points, bands", [
        ({0: [(0, 0), (0, 0)], 1: [(3, 4), (3, 4)]}, 2),
        ({0: [(0, 0), (0, 0)], 1: [(3, 4), (3, 4)], 2: [(10, 0), (9, 0)]}, 6)])
    def test_a_static_pair_starts_a_band_at_its_distance(self, points, bands):
        tr = traj(points)
        vy = vineyard(tr, check_every=1)
        assert len(vy.bands) == bands
        assert (vy.bands[-2].delta_lo, vy.bands[-1].delta_hi) == (5.0, 5.0)
        assert vy.bands[-2].barcode != vy.bands[-1].barcode
        assert_barcodes_inside_bands(tr, vy)

    @pytest.mark.parametrize("points", [
        {0: [(0, 0)] * 3, 1: [(3, 4), (3, 4), (6, 8)]},
        {0: [(0, 0)] * 3, 1: [(6, 8), (3, 4), (3, 4)]},
        {0: [(0, 0)] * 4, 1: [(8, 0), (5, 0), (5, 0), (8, 0)]}])
    def test_a_flat_run_starts_a_band_at_its_distance(self, points):
        # the pair stays at distance 5 over whole segments: its window
        # vanishes there at a boundary, or at an interior local min
        tr = traj(points)
        vy = vineyard(tr, check_every=1)
        assert [band.delta_lo for band in vy.bands] == [vy.bands[0].delta_lo, 5.0, 0.0]
        assert_barcodes_inside_bands(tr, vy)

    @pytest.mark.parametrize("points", [
        {0: [(0, 0)] * 3, 1: [(3, 4), (3, 4), (6, 8)]},
        {0: [(0, 0)] * 3, 1: [(6, 8), (3, 4), (3, 4)]}])
    def test_the_band_after_a_flat_run_is_derived(self, points):
        # the run's value is one critical value, however many flat segments
        # and sample times show it
        tr = traj(points)
        assert dpc._table(tr, 2).critical.deltas.count(5.0) == 1
        events, _ = detect_events(tr)
        swept = list(dpc.sweep(tr, events, check_every=1))
        assert swept[2].derived and not swept[2].transformed

    @pytest.mark.parametrize("dim_cap", [1, 2])
    @pytest.mark.parametrize("name", ["random_2d", "random_3d", "coincident",
                                      "integer_grid"])
    def test_reference_bands_hold_inside(self, name, dim_cap):
        tr = reference_clouds()[name]
        assert_barcodes_inside_bands(tr, vineyard(tr, dim_cap), dim_cap)

    def test_window_opening_at_a_kink_compiles_directly(self, monkeypatch):
        # this cloud has a window opening at a sample time (t = 1, 2, ...)
        # while another pair's change crosses that time between the two
        # thresholds; the oe block must go where the lower layout has it
        rng = random.Random("sweep-1-1")
        tr = Trajectories({p: [tuple(rng.uniform(0.0, 10.0) for _ in range(2))
                               for _ in range(6)] for p in range(6)})
        events, _ = detect_events(tr)
        assert any(ev.kind == LOCAL_MAX and ev.time == int(ev.time) for ev in events)
        fallbacks = []
        real = dpc.transform

        def recording(*args):
            fallbacks.append(args)
            return real(*args)
        monkeypatch.setattr(dpc, "transform", recording)
        swept = list(dpc.sweep(tr, events, 2, check_every=1))
        assert fallbacks == []
        assert not any(band.transformed for band in swept)

    def test_a_derived_layout_unlike_the_reference_fails_a_checked_band(self, monkeypatch):
        tr = random_traj(random.Random(5), 4, 3)
        real = dpc._derive

        def wrong(*args):
            lo, span, script = real(*args)
            return Layout(lo.prefix, lo.batches, lo.suffix[1:]), span, script
        monkeypatch.setattr(dpc, "_derive", wrong)
        with pytest.raises(AssertionError, match="derived layout differs"):
            vineyard(tr, check_every=1)

    def test_a_checked_sweep_validates_once(self, monkeypatch):
        # band 0's state_from_filtration validates its layout; each checked
        # band is validated by the oracle's own pass, not by validate()
        calls = []
        validate = ZigzagFiltration.validate
        monkeypatch.setattr(ZigzagFiltration, "validate",
                            lambda f: calls.append(1) or validate(f))
        vy = vineyard(random_traj(random.Random(5), 4, 3), check_every=1)
        assert len(vy.bands) > 10 and len(calls) == 1

    def test_a_corrupted_checked_band_raises_in_validates_words(self, monkeypatch):
        # the last step, a deletion, moved to the front deletes an absent simplex
        corrupted = []
        real = dpc._snapshot

        def corrupting(state, *args):
            steps = state.filtration.steps
            steps.insert(0, steps.pop())
            corrupted.append(state.filtration)
            return real(state, *args)
        monkeypatch.setattr(dpc, "_snapshot", corrupting)
        with pytest.raises(ContractViolation) as err:
            vineyard(random_traj(random.Random(5), 4, 3), check_every=1)
        assert len(corrupted) == 1
        bad = corrupted[0].validate()
        assert bad and str(err.value) == "invalid filtration: " + "; ".join(bad)

    def test_a_band_that_misses_its_layout_falls_back_to_transform(self, monkeypatch):
        # with no ops compiled, only the comparison over the derived span
        # and the length can see that an unchecked band missed its layout
        tr = random_traj(random.Random(5), 4, 3)
        events, _ = detect_events(tr)
        want = [band.barcode for band in vineyard(tr).bands]
        # each step still derives and checks, but compiles no ops
        for name in ("_compile_opposite", "_contract_adjacent", "_open_window", "_bubbled"):
            monkeypatch.setattr(dpc, name, lambda *args: [])
        swept = list(dpc.sweep(tr, events))
        assert [s.band.barcode for s in swept] == want
        # a band whose layout is the band above's needs no ops
        assert sum(s.transformed for s in swept) > len(swept) / 2

    def test_band_layer_seconds(self):
        # each band's apply and snapshot seconds are set; the apply_op
        # calls are part of the update and split by op kind; unchecked bands
        # call no oracle, and unchecked cleared ones, window openings
        # included, no canonical_layout
        tr = reference_clouds()["random_2d"]
        events, _ = detect_events(tr)
        swept = list(dpc.sweep(tr, events, 2, check_every=3))
        assert len(swept) > 10 and sum(s.apply_s > 0 for s in swept) > len(swept) / 2
        assert any(s.band.index % 3 and s.band.event.kind == LOCAL_MAX and s.derived
                   for s in swept[1:])
        for s in swept:
            assert 0.0 <= s.apply_s <= s.update_s
            assert set(s.apply_by_op) == set(s.ops)
            assert sum(s.apply_by_op.values()) == s.apply_s
            assert s.snapshot_s >= 0.0
            if s.band.index % 3:
                assert s.oracle_s is None
                assert (s.layout_s == 0.0) == s.derived
            else:
                assert s.oracle_s >= 0.0 and s.layout_s > 0.0

    def test_bands_nest_between_levels(self, rng):
        # a lower threshold's complexes sit inside the band above's
        tr = random_traj(rng, 4, 3)
        events, _ = detect_events(tr)
        if len(events) < 2:
            return
        d_hi = (events[0].delta + events[1].delta) / 2
        d_lo = events[-1].delta / 2
        hi, lo = canonical_layout(tr, d_hi), canonical_layout(tr, d_lo)
        assert set(lo.prefix) <= set(hi.prefix)
        assert set(lo.suffix) <= set(hi.suffix)

    def test_vine_ids_persist_across_bands(self, rng):
        tr = random_traj(rng, 4, 3)
        vy = vineyard(tr)
        if len(vy.bands) < 2:
            return
        for first, second in zip(vy.bands, vy.bands[1:]):
            shared = set(first.interval_ids) & set(second.interval_ids)
            assert shared or not first.interval_ids

    def test_output_format(self, rng):
        tr = random_traj(rng, 3, 2)
        text = vineyard(tr).to_text()
        lines = [ln for ln in text.splitlines() if ln]
        assert lines[0].startswith("band 0 delta_hi inf delta_lo")
        for ln in lines:
            if not ln.startswith("band"):
                parts = ln.split()
                assert len(parts) == 4 and all(p.lstrip("-").isdigit() for p in parts)


class TestThreeD:
    def test_vineyard_on_3d_cloud(self, rng):
        tr = Trajectories({p: [tuple(rng.uniform(0, 10) for _ in range(3))
                               for _ in range(3)] for p in range(4)})
        vy = vineyard(tr, dim_cap=2, check_every=1)
        assert vy.bands

    def test_3d_csv_round_trip(self):
        csv = "t,id,x,y,z\n0,0,0.0,0.0,0.0\n0,1,1.0,2.0,3.0\n" \
              "1,0,1.0,1.0,1.0\n1,1,0.0,2.0,4.0\n"
        tr = Trajectories.from_csv(csv)
        assert Trajectories.from_csv(tr.to_csv()).positions == tr.positions


# ----------------------------------------------------------------------
# the per-simplex interval intersection that canonical_layout replaced,
# kept as its reference


def _intersect_intervals(lists, whole):
    acc = [whole]
    for intervals in lists:
        nxt = []
        for alo, ahi in acc:
            for blo, bhi in intervals:
                lo, hi = max(alo, blo), min(ahi, bhi)
                if lo <= hi:
                    nxt.append((lo, hi))
        if not nxt:
            return []
        acc = nxt
    return acc


def _add_order(simplices):
    return sorted(simplices, key=lambda s: (s.dimension, tuple(s)))


def reference_layout(tr, delta, dim_cap=2):
    """Each simplex's windows are the intersections of its edges' windows;
    batch membership is found by exact matching of the window ends."""
    pts = tr.points
    s = float(tr.spans)
    pairs = list(combinations(pts, 2))
    presence = {pq: presence_times(pair_distance_curve(tr, *pq), delta, tr.spans)
                for pq in pairs}
    changes = []
    add_owner = {}
    del_owner = {}
    for pq, intervals in presence.items():
        for lo, hi in intervals:
            if lo > 0.0:
                changes.append((lo, ADD, pq))
                add_owner.setdefault(lo, pq)
            if hi < s:
                changes.append((hi, DELETE, pq))
                del_owner.setdefault(hi, pq)
    changes.sort(key=lambda c: (c[0], c[2], c[1]))
    prefix = []
    suffix = []
    members = {}
    for size in range(1, dim_cap + 2):
        for combo in combinations(pts, size):
            simplex = Simplex(combo)
            edge_lists = [presence[pq] for pq in combinations(combo, 2)]
            for lo, hi in _intersect_intervals(edge_lists, (0.0, s)):
                if lo == hi:
                    continue
                if lo == 0.0:
                    prefix.append(simplex)
                else:
                    members.setdefault((lo, ADD, add_owner[lo]), []).append(simplex)
                if hi == s:
                    suffix.append(simplex)
                else:
                    members.setdefault((hi, DELETE, del_owner[hi]), []).append(simplex)
    batches = []
    for t, kind, pq in changes:
        group = _add_order(members.get((t, kind, pq), []))
        batches.append((t, kind, pq, group if kind == ADD else group[::-1]))
    return Layout(_add_order(prefix), batches, _add_order(suffix)[::-1])


def reference_clouds():
    rng = random.Random(20240817)
    two_d = random_traj(rng, 5, 4)
    three_d = Trajectories({p: [tuple(rng.uniform(0, 10) for _ in range(3))
                                for _ in range(4)] for p in range(5)})
    coincident = {p: [tuple(rng.uniform(0, 10) for _ in range(2)) for _ in range(4)]
                  for p in range(3)}
    coincident.update({3: list(coincident[0]), 4: list(coincident[1])})
    grid = Trajectories({p: [tuple(float(rng.randint(0, 2)) for _ in range(2))
                             for _ in range(5)] for p in range(5)})
    return {"random_2d": two_d, "random_3d": three_d,
            "coincident": Trajectories(coincident), "integer_grid": grid}


def band_levels(monkeypatch, tr, dim_cap):
    """The thresholds at which vineyard lays out its bands.  The sweep derives
    most layouts from the band above and calls canonical_layout only as their
    reference on checked bands, so every band is checked here."""
    asked = []

    def recording(tr_, delta, cap=2):
        asked.append(delta)
        return canonical_layout(tr_, delta, cap)
    with monkeypatch.context() as m:
        m.setattr(dpc, "canonical_layout", recording)
        vineyard(tr, dim_cap=dim_cap, check_every=1)
    return asked


class TestLayoutAgainstReference:
    @pytest.mark.parametrize("dim_cap", [1, 2])
    @pytest.mark.parametrize("name", ["random_2d", "random_3d", "coincident",
                                      "integer_grid"])
    def test_every_band_matches(self, monkeypatch, name, dim_cap):
        tr = reference_clouds()[name]
        levels = band_levels(monkeypatch, tr, dim_cap)
        assert len(levels) > 10
        tied = 0
        for delta in levels:
            got = canonical_layout(tr, delta, dim_cap)
            want = reference_layout(tr, delta, dim_cap)
            assert got.prefix == want.prefix
            assert got.batches == want.batches
            assert got.suffix == want.suffix
            assert got.moves() == want.moves()
            edges = [s for s in want.prefix if s.dimension == 1]
            ends = sorted(s for s in want.suffix if s.dimension == 1)
            assert edge_signature(tr, delta) == (
                tuple(edges), tuple((k, pq) for _, k, pq, _ in want.batches),
                tuple(ends))
            times = [b[0] for b in got.batches]
            tied += len(set(times)) < len(times)
            # each batch's change lies inside the run it is tagged with,
            # which makes a change of its kind
            runs = dpc._table(tr, dim_cap).runs
            for (t, kind, pq, _), r in zip(got.batches, got.runs):
                times, values = runs[pq]
                assert times[r] < t < times[r + 1]
                assert values[r] != values[r + 1] and (values[r + 1] < values[r]) == (kind == ADD)
        if name in ("coincident", "integer_grid"):
            assert tied, "no band with tied change times"

    @pytest.mark.parametrize("dim_cap", [1, 2])
    @pytest.mark.parametrize("name", ["random_2d", "random_3d", "coincident",
                                      "integer_grid"])
    def test_derived_layouts_match_canonical(self, monkeypatch, name, dim_cap):
        # the sweep's chain of layouts, each from the band above, against
        # canonical_layout at every derived band: the same shape, and the
        # event pairs' batches with their run tags at both thresholds
        tr = reference_clouds()[name]

        def tagged(layout, pq):
            return [(batch[1:], run) for batch, run in zip(layout.batches, layout.runs)
                    if batch[2] == pq]
        events, _ = detect_events(tr, dim_cap)
        real, derived = dpc._derive, []

        def checked(table, event, hi, delta_hi, delta_lo):
            below, span, script = real(table, event, hi, delta_hi, delta_lo)
            # compile_event's own test: a tied or degenerate band is not cleared
            if not (event.kind in dpc._DERIVED
                    and table.critical.only(event.pairs, delta_lo, delta_hi)):
                return below, span, script
            derived.append(event)
            above = canonical_layout(tr, delta_hi, dim_cap)
            want = canonical_layout(tr, delta_lo, dim_cap)
            assert dpc._same_shape(below, want)
            for pq in event.pairs:
                assert tagged(hi, pq) == tagged(above, pq)
                assert tagged(below, pq) == tagged(want, pq)
            start, end = span  # past end, the moves above, shifted
            shift = len(hi.moves()) - len(below.moves())
            assert below.moves()[:start] == hi.moves()[:start]
            assert below.moves()[end:] == hi.moves()[end + shift:]
            # a pair index handed down from hi is the one its batches give
            if below._own is not None:
                rebuilt = Layout(below.prefix, below.batches, below.suffix)
                rebuilt.own(event.pairs[0])  # builds the whole index
                assert below._own == rebuilt._own
            return below, span, script
        monkeypatch.setattr(dpc, "_derive", checked)
        swept = list(dpc.sweep(tr, events, dim_cap))
        assert sum(band.derived for band in swept) == len(derived)
        if name.startswith("random"):
            assert len(derived) > (len(swept) - 1) / 2  # more than half the events

    def test_touch_at_an_instant_is_no_window(self):
        # (0,1) arrives and (0,2) leaves at t = 0.5 exactly: the triangle is
        # full only at that instant, each tied batch keeps its own edge, and
        # the batches follow their pairs, not their kinds
        tr = traj({0: [(0, 0), (0, 0)], 1: [(4, 0), (2, 0)], 2: [(2, 0), (4, 0)]})
        got = canonical_layout(tr, 3.0)
        assert got == reference_layout(tr, 3.0)
        assert got.batches == [(0.5, ADD, (0, 1), [Simplex((0, 1))]),
                               (0.5, DELETE, (0, 2), [Simplex((0, 2))])]
        assert Simplex((0, 1, 2)) not in got.prefix + got.suffix

    def test_tied_group_goes_to_the_first_pair_of_each_kind(self, monkeypatch):
        # 3 and 4 copy 0 and 1: every change of (0, k) ties with (3, k)
        tr = reference_clouds()["coincident"]
        owned = 0
        for delta in band_levels(monkeypatch, tr, 2):
            batches = canonical_layout(tr, delta).batches
            times = [b[0] for b in batches]
            seen = set()
            for t, kind, pq, batch in batches:
                if (t, kind) in seen:
                    assert batch == []
                seen.add((t, kind))
                owned += bool(batch) and times.count(t) > 1
        assert owned


# sha256 of vineyard(tr, dim_cap).to_text() and the numbers of derived and
# transformed bands, for each reference cloud and dim_cap
REFERENCE_SWEEPS = {
    ("random_2d", 1): ("b3e948001d92a3ede42fe959fa0449db70a6a93e4c5453b49fa38f46a529f65c", 144, 0),
    ("random_2d", 2): ("55e6382b73925cdca8557b0d1ef09c9d993706c1bf97f5957dd0c1fdee2821db", 144, 0),
    ("random_3d", 1): ("27816aa859a32a865f9427bb9f1a0f9224da9dca1e8ecc7b1051274d1893a0b1", 147, 0),
    ("random_3d", 2): ("d598cafe224e1f36e5bbdca1d368713d965f7418296986e8eb75a4a50ebb398c", 147, 0),
    ("coincident", 1): ("8d98aa9d01397896bd2cddd5a38e289bcb4e09cade35ca0098da94bd0c4a7ddc", 0, 29),
    ("coincident", 2): ("39508bc737d829fc7e18142fd8777792aaae33eb50ec087f86bb3bac682c0252", 0, 29),
    ("integer_grid", 1): ("40b1b89b87bb09758b9a096e17346ab19b4918eaefbf62b63087f47680784ae0",
                          0, 35),
    ("integer_grid", 2): ("4033be21c4bc037c80f11008747007f0470445ce8e888bab59a3bc49f250862d",
                          0, 35),
}

# the same sweeps without the vine-id column: the bars alone, which hold
# when a change of script renumbers only the vines of transformed bands
REFERENCE_BARCODES = {
    ("random_2d", 1): "ac47a67d978c0d63ce63e9032dd72016a327192da6d7542c875dd960e971e5da",
    ("random_2d", 2): "1bffd821a8592ea6fa1894eaaf9da906ebd1f5211e08207dc598f4b026a73ab2",
    ("random_3d", 1): "ab807bb2e10e9544b94882a090233cc92de51deee2bba593e511fd36c4301c68",
    ("random_3d", 2): "aeceea3d40693a4c6a83dbb714889d2b51b426406302f697c39bb85eb5d11a44",
    ("coincident", 1): "06950ecf11117dd6ade8061d855e7dc8594af3c054261622f827aa577dea9a76",
    ("coincident", 2): "13f36d50c623b57f918f3856d74f614935db31f6448f43cb63fd5686bf5010a2",
    ("integer_grid", 1): "f8fb8fa0725cdf9f4685054165d987f55326e4afbc0ce671c08129efcedfdb6f",
    ("integer_grid", 2): "25491b0e6eb408c833c6ced0c87ac060f589e4c53c7cb0ec9ca8d1d5bdb0cd42",
}


def barcode_text(bands):
    """Vineyard.to_text() with the vine-id column dropped."""
    return "".join(
        band.text().split("\n", 1)[0] + "\n"
        + "".join(f"{dim} {b} {d}\n" for dim, b, d in sorted(band.interval_ids.values()))
        for band in bands)


@pytest.mark.parametrize("name, dim_cap", sorted(REFERENCE_SWEEPS))
def test_reference_sweeps_are_unchanged(name, dim_cap):
    # the degenerate clouds' tied and uncleared bands included
    tr = reference_clouds()[name]
    events, _ = detect_events(tr, dim_cap)
    swept = list(dpc.sweep(tr, events, dim_cap))
    text = dpc.Vineyard([band.band for band in swept]).to_text()
    assert text == vineyard(tr, dim_cap).to_text()
    bars = barcode_text([band.band for band in swept])
    assert hashlib.sha256(bars.encode()).hexdigest() == REFERENCE_BARCODES[name, dim_cap]
    assert (hashlib.sha256(text.encode()).hexdigest(),
            sum(band.derived for band in swept),
            sum(band.transformed for band in swept)) == REFERENCE_SWEEPS[name, dim_cap]


def golden_cloud():
    rng = random.Random(2112)
    return Trajectories({p: [(rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0))
                             for _ in range(6)] for p in range(6)})


class TestGolden:
    def test_vineyard_text_is_unchanged(self):
        vy = vineyard(golden_cloud())
        assert len(vy.bands) == 471
        assert hashlib.sha256(vy.to_text().encode()).hexdigest() == \
            "421eb67eb87437360663810494564b391d1599e565c8f8a08d42f2ee0a1b2d55"

    def test_every_band_compiles_directly_and_most_layouts_are_derived(self):
        tr = golden_cloud()
        events, _ = detect_events(tr)
        swept = list(dpc.sweep(tr, events))
        assert not any(band.transformed for band in swept)
        assert any(ev.kind == LOCAL_MAX for ev in events)
        assert sum(not band.derived for band in swept) == 1  # band 0

    def test_an_unchecked_sweep_lays_out_band_0_alone(self, monkeypatch):
        # every later layout is derived, window openings included: one
        # canonical_layout, which solves each of the 15 pairs once
        calls = dict.fromkeys(("canonical_layout", "presence_times"), 0)
        for name in calls:
            def counting(*args, _name=name, _real=getattr(dpc, name)):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(dpc, name, counting)
        vineyard(golden_cloud())
        assert calls == {"canonical_layout": 1, "presence_times": 15}


class TestBandGrouping:
    def test_a_group_of_close_events_compiles_event_by_event(self, monkeypatch):
        # a tolerance that merges only the golden cloud's closest two events:
        # an opposite crossing and a local min sharing the pair (0, 1)
        tr = golden_cloud()
        events, _ = detect_events(tr)
        gaps = sorted(a.delta - b.delta for a, b in zip(events, events[1:]))
        scale = max(ev.delta for ev in events)
        monkeypatch.setattr(dpc, "REL_EPS", (gaps[0] + gaps[1]) / 2 / (10 * scale))
        groups, _ = dpc.group_events(events)
        (merged,) = [group for group in groups if len(group) > 1]
        assert [ev.kind for ev in merged] == [OPPOSITE_CROSSING, LOCAL_MIN]
        assert set(merged[0].pairs) & set(merged[1].pairs) == {(0, 1)}
        swept = list(dpc.sweep(tr, events, 2, check_every=1))
        assert not any(band.transformed for band in swept)
        assert next(band for band in swept if band.band.event is merged[0]).derived


    def test_a_group_whose_later_event_fails_applies_none_of_its_ops(self, monkeypatch):
        # the merged group above, whose second event now fails to derive:
        # the band reaches transform with the filtration of the band above
        tr = golden_cloud()
        events, _ = detect_events(tr)
        gaps = sorted(a.delta - b.delta for a, b in zip(events, events[1:]))
        scale = max(ev.delta for ev in events)
        monkeypatch.setattr(dpc, "REL_EPS", (gaps[0] + gaps[1]) / 2 / (10 * scale))
        groups, evals = dpc.group_events(events)
        (g,) = [g for g, group in enumerate(groups) if len(group) > 1]
        above = canonical_layout(tr, evals[g])
        sim = above.to_filtration()
        em = Emitter(sim, lambda sop: apply_to_filtration(sim, sop))
        real, derived, reached = dpc._derive, [], []

        def second_fails(*args):
            derived.append(args[1])
            if len(derived) == 2:
                raise ContractViolation("the second event does not fit")
            return real(*args)

        def recording(f1, f2):
            reached.append(dpc._holds(f1, above.moves()))
            return transform(f1, f2)
        monkeypatch.setattr(dpc, "_derive", second_fails)
        monkeypatch.setattr(dpc, "transform", recording)
        layout, was_derived, transformed, _, _ = compile_event(
            em, tr, groups[g], above, evals[g], evals[g + 1], 2, False)
        assert derived == groups[g] and reached == [True]
        assert transformed and not was_derived and dpc._holds(sim, layout.moves())

    def test_events_within_the_tolerance_share_one_band_in_both_sweeps(self, monkeypatch):
        from zzpers.cli import bench_run
        tr = random_traj(random.Random(77), 4, 3)
        events, diagnostics = detect_events(tr, 2)
        scale = max(ev.delta for ev in events)
        first = events[0]
        twin = dpc.Event(first.delta - 1e-11 * scale, first.time, first.kind, first.pairs)
        assert 1e-11 * scale > 1e-12  # an absolute 1e-12 would split the two
        doubled = [first, twin] + events[1:]
        monkeypatch.setattr(dpc, "detect_events", lambda *args: (doubled, diagnostics))
        groups, evals = dpc.group_events(doubled)
        assert groups[0] == [first, twin] and len(groups) == len(events)
        assert band_levels(monkeypatch, tr, 2) == evals
        swept = list(dpc.sweep(tr, doubled, 2))
        assert [band.transformed for band in swept].count(True) == 1 and swept[1].transformed
        asked = []

        def recording(tr_, delta, cap=2):
            asked.append(delta)
            return canonical_layout(tr_, delta, cap)
        monkeypatch.setattr(dpc, "canonical_layout", recording)
        bench_run(tr, 2)
        assert asked == evals
