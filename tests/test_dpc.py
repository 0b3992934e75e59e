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
                        compile_event, detect_events, edge_signature,
                        filtration_at, pair_distance_curve, presence_times,
                        vineyard)
from zzpers.errors import ContractViolation
from zzpers.filtration import ADD, DELETE
from zzpers.fzz import barcode_from_scratch

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

    def test_identical_constant_curves_are_silent(self):
        # three collinear static points: no general-position events at all
        tr = traj({0: [(0, 0), (0, 0)], 1: [(1, 0), (1, 0)], 2: [(2, 0), (2, 0)]})
        events, _ = detect_events(tr)
        assert events == []

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
                script = compile_event(tr, event, evals[g], evals[g + 1], 2, current)
                for sop in script:
                    from zzpers.planner import apply_to_filtration
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
        script = compile_event(tr, event, above, below, 2, current)
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
            script = compile_event(tr, event, evals[g], evals[g + 1], 1, current)
            for sop in script:
                from zzpers.planner import apply_to_filtration
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
        vineyard(tr, check_every=1)
        assert fallbacks == []

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
    """The thresholds at which vineyard lays out its bands."""
    asked = []

    def recording(tr_, delta, cap=2):
        asked.append(delta)
        return canonical_layout(tr_, delta, cap)
    with monkeypatch.context() as m:
        m.setattr(dpc, "canonical_layout", recording)
        vineyard(tr, dim_cap=dim_cap)
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
        if name in ("coincident", "integer_grid"):
            assert tied, "no band with tied change times"

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


class TestGolden:
    def test_vineyard_text_is_unchanged(self):
        rng = random.Random(2112)
        tr = Trajectories({p: [(rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0))
                               for _ in range(6)] for p in range(6)})
        vy = vineyard(tr)
        assert len(vy.bands) == 471
        assert hashlib.sha256(vy.to_text().encode()).hexdigest() == \
            "421eb67eb87437360663810494564b391d1599e565c8f8a08d42f2ee0a1b2d55"


class TestBandGrouping:
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
        asked = []

        def recording(tr_, delta, cap=2):
            asked.append(delta)
            return canonical_layout(tr_, delta, cap)
        monkeypatch.setattr(dpc, "canonical_layout", recording)
        bench_run(tr, 2)
        assert asked == evals
