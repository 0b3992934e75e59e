"""Vineyards for dynamic point clouds.

Points move along piecewise-linear trajectories, so squared pairwise
distances are piecewise quadratic in time.  For a distance threshold the
time-varying Rips complex is a zigzag filtration; sweeping the threshold
downward, the filtration changes only at critical values of the
distance-time curves.  Each critical value is compiled to a short script of
atomic operations, which the representative engine applies band by band.

compile_event is the sweep's step for each band after band 0.  Within it,
_derive derives, event by event, the band's layout from the band above's
and the script of ops that reaches it, as data; only once the band's whole
script is derived does compile_event emit it, through the planner's
Emitter.  _derive finds batches by the monotone run of their pair's curve
that their changes lie on, and solves no roots.  canonical_layout lays out
band 0, and after it only the reference of a band with simultaneous
events, tied curves or another critical value between its thresholds, and
of every checked band.  Where there is a reference, the derived layout
must have its shape before any op runs.  A pair at a constant distance gets
an event at that distance, and a run of segments at a constant distance is
read past for its events.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import combinations
from operator import itemgetter
from typing import Iterable, Iterator, Optional

from . import fzz
from .chains import Simplex
from .errors import CheckFailed, ContractViolation
from .filtration import ADD, DELETE, ZigzagFiltration
from .planner import Emitter, ScriptOp, state_from_filtration, transform
from .rep_updates import PersistenceState, apply_op

REL_EPS = 1e-9

# event kinds
INCREASING_CROSSING = "increasing_crossing"    # two deletions swap order
DECREASING_CROSSING = "decreasing_crossing"    # two additions swap order
OPPOSITE_CROSSING = "opposite_crossing"        # an addition and a deletion swap
LOCAL_MIN = "local_min"                        # a presence window vanishes
LOCAL_MAX = "local_max"                        # a presence window splits
BOUNDARY_SHRINK = "boundary_shrink"            # presence detaches from t=0 or t=s
BOUNDARY_VANISH = "boundary_vanish"            # presence window at the boundary dies
TANGENT = "tangent"                            # degenerate contact: no-op, diagnostic


@dataclass
class Trajectories:
    """Point positions sampled at integer times, linearly interpolated."""
    positions: dict[int, list[tuple[float, ...]]]

    def __post_init__(self):
        if not self.positions:
            raise ContractViolation("a cloud needs at least one point")
        lengths = {len(v) for v in self.positions.values()}
        if len(lengths) > 1:
            raise ContractViolation("all points need the same number of samples")
        dims = {len(p) for v in self.positions.values() for p in v}
        if len(dims) > 1:
            raise ContractViolation("mixed coordinate dimensions")
        for pid, track in self.positions.items():
            if not all(math.isfinite(c) for p in track for c in p):
                raise ContractViolation(f"point {pid}: coordinates must be finite")
        self._curves: dict[tuple[int, int], list[tuple[float, float, float]]] = {}
        self._tables: dict[int, _Table] = {}  # the layouts' tables, by dim_cap
        # finite coordinates can still square past the largest float
        for p, q in combinations(self.points, 2):
            for k, coefficients in enumerate(pair_distance_curve(self, p, q)):
                if not all(map(math.isfinite, coefficients)):
                    raise ContractViolation(
                        f"points {p} and {q}: squared distance overflows on segment {k}")

    @property
    def points(self) -> list[int]:
        return sorted(self.positions)

    @property
    def spans(self) -> int:
        """Number of unit time segments."""
        any_track = next(iter(self.positions.values()))
        return len(any_track) - 1

    @classmethod
    def from_csv(cls, text: str) -> "Trajectories":
        rows = [r.strip() for r in text.splitlines() if r.strip()]
        if not rows:
            raise ContractViolation("empty trajectory file")
        header = [h.strip() for h in rows[0].split(",")]
        if header[:2] != ["t", "id"] or header[2:] not in (["x", "y"], ["x", "y", "z"]):
            raise ContractViolation("expected header t,id,x,y[,z]")
        samples: dict[int, dict[int, tuple[float, ...]]] = {}
        for lineno, row in enumerate(rows[1:], start=2):
            parts = [p.strip() for p in row.split(",")]
            if len(parts) != len(header):
                raise ContractViolation(f"line {lineno}: expected {len(header)} fields")
            try:
                t = int(parts[0])
                pid = int(parts[1])
                coords = tuple(float(p) for p in parts[2:])
            except ValueError:
                raise ContractViolation(f"line {lineno}: bad number") from None
            track = samples.setdefault(pid, {})
            if t in track:
                raise ContractViolation(
                    f"line {lineno}: duplicate sample for point {pid} at t={t}")
            track[t] = coords
        positions = {}
        times = sorted({t for track in samples.values() for t in track})
        if times != list(range(len(times))):
            raise ContractViolation("sample times must be 0,1,...,s")
        for pid, track in samples.items():
            if sorted(track) != times:
                raise ContractViolation(f"point {pid} is missing samples")
            positions[pid] = [track[t] for t in times]
        return cls(positions)

    def to_csv(self) -> str:
        dim = len(next(iter(self.positions.values()))[0])
        head = "t,id,x,y" + (",z" if dim == 3 else "")
        lines = [head]
        for t in range(self.spans + 1):
            for pid in self.points:
                coords = ",".join(repr(c) for c in self.positions[pid][t])
                lines.append(f"{t},{pid},{coords}")
        return "\n".join(lines) + "\n"


def pair_distance_curve(tr: Trajectories, p: int, q: int) -> list[tuple[float, float, float]]:
    """Per unit segment k, coefficients (a, b, c) with d^2(k+u) = a u^2 + b u + c."""
    if p == q:
        raise ContractViolation("distinct points required")
    for pid in (p, q):
        if pid not in tr.positions:
            raise ContractViolation(f"unknown point id {pid}")
    cache = tr._curves
    key = (p, q) if p < q else (q, p)
    if key in cache:
        return cache[key]
    out = []
    pp, qq = tr.positions[p], tr.positions[q]
    for k in range(tr.spans):
        d0 = [a - b for a, b in zip(pp[k], qq[k])]
        d1 = [a - b for a, b in zip(pp[k + 1], qq[k + 1])]
        v = [y - x for x, y in zip(d0, d1)]
        a = sum(x * x for x in v)
        b = 2.0 * sum(x * y for x, y in zip(d0, v))
        c = sum(x * x for x in d0)
        out.append((a, b, c))
    cache[key] = out
    return out


def _curve_value(curve, t: float) -> float:
    k = min(int(t), len(curve) - 1)
    a, b, c = curve[k]
    u = t - k
    return (a * u + b) * u + c


def _curve_slope(curve, t: float, side: int) -> float:
    """One-sided derivative of d^2 at t; side=+1 right, -1 left."""
    k = min(int(t), len(curve) - 1)
    if side < 0 and t == int(t) and t > 0:
        k = int(t) - 1
    a, b, c = curve[k]
    u = t - k
    return 2.0 * a * u + b


@dataclass
class Event:
    delta: float              # distance value at which the filtration changes
    time: float
    kind: str
    pairs: tuple[tuple[int, int], ...]
    note: str = ""

    def sort_key(self):
        return (-self.delta, self.pairs, self.kind, self.time)


@dataclass
class Band:
    index: int
    delta_hi: float
    delta_lo: float
    barcode: list[tuple[int, int, int]]
    interval_ids: dict[int, tuple[int, int, int]]
    event: Optional[Event] = None

    def text(self) -> str:
        """The band's header line, then one 'dim b d vine' line per bar."""
        lines = [_band_name(self.index, self.delta_hi, self.delta_lo)]
        rows = sorted(((dim, b, d, vid) for vid, (dim, b, d)
                       in self.interval_ids.items()))
        for dim, b, d, vid in rows:
            lines.append(f"{dim} {b} {d} {vid}")
        return "\n".join(lines) + "\n"


def _band_name(index: int, hi: float, lo: float) -> str:
    return f"band {index} delta_hi {hi:.9g} delta_lo {lo:.9g}"


@dataclass
class Vineyard:
    bands: list[Band]
    diagnostics: list[Event] = field(default_factory=list)

    def to_text(self) -> str:
        return "".join(band.text() for band in self.bands)


def detect_events(tr: Trajectories, dim_cap: int = 2) -> tuple[list[Event], list[Event]]:
    """All critical points of the distance-time curves, sorted by falling
    distance value; returns (events, diagnostics)."""
    s = tr.spans
    if s < 1:
        raise ContractViolation("a cloud needs at least two samples to move")
    pairs = list(combinations(tr.points, 2))
    curves = {pq: pair_distance_curve(tr, *pq) for pq in pairs}
    raw: list[Event] = []
    diagnostics: list[Event] = []

    # a slope gate is relative to the curves it reads, a pair's own largest
    # coefficient, so a far point cannot flatten a near pair's curve
    tols = {pq: REL_EPS * max(abs(c) for seg in curves[pq] for c in seg) for pq in pairs}
    scale = max((abs(c) for cur in curves.values() for seg in cur for c in seg),
                default=1.0) or 1.0
    # scale is a squared distance: a distance compares with its square root
    delta_tol = REL_EPS * math.sqrt(scale)

    for pq in pairs:
        curve, tol = curves[pq], tols[pq]
        flat = [abs(a) <= tol and abs(b) <= tol for a, b, _ in curve]
        if all(flat):
            # a constant distance: the window over all of [0, s] dies at
            # both ends at once
            raw.append(Event(_safe_sqrt(curve[0][2]), 0.0, BOUNDARY_VANISH, (pq,)))
            continue
        # interior extrema of each quadratic piece
        for k, (a, b, c) in enumerate(curve):
            if abs(a) > tol:
                u = -b / (2.0 * a)
                if REL_EPS < u < 1.0 - REL_EPS:  # u is a fraction of the segment
                    val = (a * u + b) * u + c
                    kind = LOCAL_MIN if a > 0 else LOCAL_MAX
                    raw.append(Event(_safe_sqrt(val), k + u, kind, (pq,)))
        # kinks at the integer sample times; a run of flat segments from t
        # to end is one kink, read at t by the slopes into and out of it
        for t in range(1, s):
            end = t
            while end < s and flat[end]:
                end += 1
            if flat[t - 1] or end == s:
                continue  # the boundary test reads past a run at t = 0 or s
            left = _curve_slope(curve, float(t), -1)
            right = _curve_slope(curve, float(end), +1)
            value = _safe_sqrt(_curve_value(curve, t))
            if left < -tol and right > tol:
                raw.append(Event(value, float(t), LOCAL_MIN, (pq,)))
            elif left > tol and right < -tol:
                raw.append(Event(value, float(t), LOCAL_MAX, (pq,)))
            elif end > t or (abs(left) <= tol) != (abs(right) <= tol):
                # a run passed monotonically, or a kink with one flat side
                diagnostics.append(Event(value, float(t), TANGENT, (pq,), note="flat kink"))
        # domain boundaries, past a flat run at either end
        slope0 = _curve_slope(curve, float(flat.index(False)), +1)
        if abs(slope0) > tol:
            kind = BOUNDARY_VANISH if slope0 > 0 else BOUNDARY_SHRINK
            raw.append(Event(_safe_sqrt(_curve_value(curve, 0.0)), 0.0, kind, (pq,)))
        slope_s = _curve_slope(curve, float(s - flat[::-1].index(False)), -1)
        if abs(slope_s) > tol:
            kind = BOUNDARY_VANISH if slope_s < 0 else BOUNDARY_SHRINK
            raw.append(Event(_safe_sqrt(_curve_value(curve, float(s))), float(s),
                             kind, (pq,)))

    # pairwise curve crossings
    for na in range(len(pairs)):
        for nb in range(na + 1, len(pairs)):
            e1, e2 = pairs[na], pairs[nb]
            c1, c2 = curves[e1], curves[e2]
            tol = max(tols[e1], tols[e2])
            for k in range(s):
                da = c1[k][0] - c2[k][0]
                db = c1[k][1] - c2[k][1]
                dc = c1[k][2] - c2[k][2]
                for u in _unit_roots(da, db, dc, tol):
                    t = k + u
                    v1 = _curve_slope(c1, t, +1 if u < 1.0 else -1)
                    v2 = _curve_slope(c2, t, +1 if u < 1.0 else -1)
                    val = _curve_value(c1, t)
                    if abs(v1) <= tol or abs(v2) <= tol:
                        diagnostics.append(Event(_safe_sqrt(val), t, TANGENT,
                                                 (e1, e2), note="tangent crossing"))
                        continue
                    if v1 > 0 and v2 > 0:
                        kind, ordered = INCREASING_CROSSING, (e1, e2)
                    elif v1 < 0 and v2 < 0:
                        kind, ordered = DECREASING_CROSSING, (e1, e2)
                    else:
                        # list the deleted (rising) edge first
                        ordered = (e1, e2) if v1 > 0 else (e2, e1)
                        kind = OPPOSITE_CROSSING
                    raw.append(Event(_safe_sqrt(val), t, kind, ordered))

    events = [ev for ev in raw if ev.delta > delta_tol]
    events.sort(key=Event.sort_key)
    deduped: list[Event] = []
    for ev in events:
        if deduped and _same_event(deduped[-1], ev, delta_tol, REL_EPS * s):
            continue
        deduped.append(ev)
    return deduped, diagnostics


def _same_event(a: Event, b: Event, delta_tol: float, time_tol: float) -> bool:
    return (a.kind == b.kind and a.pairs == b.pairs
            and abs(a.delta - b.delta) <= delta_tol and abs(a.time - b.time) <= time_tol)


def _safe_sqrt(v: float) -> float:
    return math.sqrt(v) if v > 0 else 0.0


def _unit_roots(a: float, b: float, c: float, tol: float) -> list[float]:
    """Simple roots of a u^2 + b u + c in (0, 1); tol gates a and b alone."""
    if abs(a) <= tol:
        if abs(b) <= tol:
            return []
        u = -c / b
        return [u] if REL_EPS < u < 1.0 - REL_EPS else []
    disc = b * b - 4.0 * a * c
    if disc <= tol * tol:
        return []
    r = math.sqrt(disc)
    out = [(-b - r) / (2.0 * a), (-b + r) / (2.0 * a)]
    return sorted(u for u in out if REL_EPS < u < 1.0 - REL_EPS)


# ----------------------------------------------------------------------
# canonical filtrations per threshold


def presence_times(curve, delta: float, s: int) -> list[tuple[float, float]]:
    """Closed intervals of t in [0, s] where the squared distance <= delta^2."""
    thr = delta * delta
    cuts: list[float] = [0.0, float(s)]
    k = 0
    for a, b, c in curve:
        c -= thr  # simple roots of a u^2 + b u + c in (0, 1)
        if a == 0.0:
            if b != 0.0:
                u = -c / b
                if 0.0 < u < 1.0:
                    cuts.append(k + u)
        else:
            disc = b * b - 4.0 * a * c
            if disc > 0.0:
                r = math.sqrt(disc)
                u = (-b - r) / (2.0 * a)
                if 0.0 < u < 1.0:
                    cuts.append(k + u)
                u = (-b + r) / (2.0 * a)
                if 0.0 < u < 1.0:
                    cuts.append(k + u)
        k += 1
    cuts = sorted(set(cuts))
    last = len(curve) - 1
    intervals: list[tuple[float, float]] = []
    lo = cuts[0]
    for hi in cuts[1:]:
        mid = (lo + hi) / 2.0
        k = min(int(mid), last)
        a, b, c = curve[k]
        u = mid - k
        if (a * u + b) * u + c <= thr:
            if intervals and intervals[-1][1] == lo:
                intervals[-1] = (intervals[-1][0], hi)
            else:
                intervals.append((lo, hi))
        lo = hi
    return intervals


def _edge_changes(pairs, curves, delta: float, s: int):
    """Each pair's presence windows at delta, read once: the pairs present
    at t = 0, the changes (t, pair, kind) sorted, the pairs present at t = s."""
    start: list[tuple[int, int]] = []
    changes: list[tuple[float, tuple[int, int], str]] = []
    end: list[tuple[int, int]] = []
    for pq, curve in zip(pairs, curves):
        for lo, hi in presence_times(curve, delta, s):
            if lo == 0.0:
                start.append(pq)
            else:
                changes.append((lo, pq, ADD))
            if hi == s:
                end.append(pq)
            else:
                changes.append((hi, pq, DELETE))
    changes.sort()
    return start, changes, end


@dataclass
class Layout:
    """The canonical shape of the filtration at one threshold.  runs[j] tags
    batch j with the run of its pair's curve its change lies on (see
    _Table); == ignores the tags.  A derived layout keeps each batch's time
    as it was laid out or created: only comparisons read it."""
    prefix: list[Simplex]
    batches: list[tuple[float, str, tuple[int, int], list[Simplex]]]
    suffix: list[Simplex]
    runs: list[int] = field(default_factory=list, compare=False, repr=False)
    _moves: Optional[list[tuple[str, Simplex]]] = field(default=None, compare=False,
                                                        repr=False)
    _own: Optional[dict[tuple[int, int], list[int]]] = field(default=None, compare=False,
                                                             repr=False)

    def moves(self) -> list[tuple[str, Simplex]]:
        if self._moves is None:
            self._moves = ([(ADD, s) for s in self.prefix]
                           + [(kind, s) for _, kind, _, batch in self.batches
                              for s in batch]
                           + [(DELETE, s) for s in self.suffix])
        return self._moves

    def to_filtration(self) -> ZigzagFiltration:
        return ZigzagFiltration.from_moves(self.moves())

    def batch_start(self, index: int) -> int:
        return len(self.prefix) + sum(map(len, map(_SIMPLICES, self.batches[:index])))

    def own(self, pq: tuple[int, int]) -> list[int]:
        """pq's batch indices, in order: built on first use, unless _derive handed one down."""
        if self._own is None:
            self._own = {}
            for j, batch in enumerate(self.batches):
                self._own.setdefault(batch[2], []).append(j)
        return self._own.get(pq, [])


_SIMPLICES = itemgetter(3)


def _add_order(simplices: Iterable[Simplex]) -> list[Simplex]:
    return sorted(simplices, key=lambda s: (s.dimension, tuple(s)))


def _delete_order(simplices: Iterable[Simplex]) -> list[Simplex]:
    return list(reversed(_add_order(simplices)))


class _Table:
    """What the layouts need of one cloud at one dimension cap: every
    simplex in add order with its edges, how many edges each needs, for
    each edge its cofaces (itself included) by index, in add order and in
    reverse, and each edge's distance curve with its monotone runs.

    runs[pq] = (times, values): run r of pq's curve spans times[r] to
    times[r + 1], which are 0, s and its exact local extremes (vertices, and
    sample times where the slope changes sign or vanishes), at squared
    distances values[r] and values[r + 1].  A threshold between the two
    makes an ADD on a falling run, a DELETE on a rising one, and the change
    keeps its run until a threshold reaches a run end: a critical value."""

    def __init__(self, tr: Trajectories, dim_cap: int):
        pts = tr.points
        self.spans = tr.spans
        self.pairs = list(combinations(pts, 2))
        self.curves = [pair_distance_curve(tr, *pq) for pq in self.pairs]
        self.curve = dict(zip(self.pairs, self.curves))
        self.runs = {pq: _monotone_runs(curve, self.spans)  # one sample: no runs
                     for pq, curve in self.curve.items() if curve}
        self.simplices = [Simplex(combo) for size in range(1, dim_cap + 2)
                          for combo in combinations(pts, size)]
        self.edges = [list(combinations(s, 2)) for s in self.simplices]
        self.needs = list(map(len, self.edges))
        self.cofaces: dict[tuple[int, int], list[int]] = {pq: [] for pq in self.pairs}
        for idx, edges in enumerate(self.edges):
            for pq in edges:
                self.cofaces[pq].append(idx)
        self.rcofaces = {pq: idx[::-1] for pq, idx in self.cofaces.items()}
        self.moves = {kind: [(kind, s) for s in self.simplices] for kind in (ADD, DELETE)}
        self._critical: Optional[_Critical] = None

    @property
    def critical(self) -> "_Critical":
        if self._critical is None:
            self._critical = _Critical(self.pairs, self.curves, self.runs)
        return self._critical


def _monotone_runs(curve, s: int) -> tuple[list[float], list[float]]:
    """The monotone runs of a distance curve on [0, s], as _Table keeps them."""
    times, values = [0.0], [curve[0][2]]
    for k, (a, b, c) in enumerate(curve):
        if k and _curve_slope(curve, k, -1) * _curve_slope(curve, k, 1) <= 0.0:
            times.append(float(k))
            values.append(c)
        if a != 0.0 and 0.0 < (u := -b / (2.0 * a)) < 1.0:
            times.append(k + u)
            values.append((a * u + b) * u + c)
    times.append(float(s))
    values.append(_curve_value(curve, s))
    return times, values


def _table(tr: Trajectories, dim_cap: int) -> _Table:
    table = tr._tables.get(dim_cap)
    if table is None:
        table = tr._tables[dim_cap] = _Table(tr, dim_cap)
    return table


def canonical_layout(tr: Trajectories, delta: float, dim_cap: int = 2) -> Layout:
    """Prefix/event-batch/suffix structure of the Rips zigzag at threshold delta.

    A simplex is present while all its edges are; presence windows are
    closed.  One sorted pass over the edges' changes keeps a count of
    present edges per simplex:

    - the prefix holds the simplices present at t = 0, in add order
      (dimension, then vertices); the suffix those present at t = s, in
      delete order (the reverse);
    - every edge change (t, kind, pair) is one batch, in order of (t, pair):
      an ADD holds the simplices it completes, in add order, a DELETE the
      ones it breaks, in delete order;
    - changes at exactly the same t form one group, judged on the edges
      present just before t and just after it.  A simplex full only at the
      instant t has no window of positive length and is left out.  The
      group's starting simplices go to the batch of its smallest ADD pair,
      its ending ones to that of its smallest DELETE pair, and the group's
      other batches stay empty.

    The layout's moves() list is built in the same pass, and each batch is
    tagged with its run by bisecting its change time in its pair's runs.
    After band 0 the sweep derives every band's layout from the band
    above's (see _derive) and calls this function only as the reference of
    a checked or uncleared band, or as the target of planner.transform.
    """
    table = _table(tr, dim_cap)
    if not table.spans:
        return Layout([], [], [], _moves=[])  # one sample: no window of positive length
    simplices, needs = table.simplices, table.needs
    cofaces, rcofaces = table.cofaces, table.rcofaces
    add_moves, del_moves = table.moves[ADD], table.moves[DELETE]
    start, changes, _ = _edge_changes(table.pairs, table.curves, delta, table.spans)
    count = [0] * len(simplices)
    for pq in start:
        for c in cofaces[pq]:
            count[c] += 1
    full = [c for c, n in enumerate(count) if n == needs[c]]
    prefix = [simplices[c] for c in full]
    moves = [add_moves[c] for c in full]
    batches = []
    i, n_changes = 0, len(changes)
    while i < n_changes:
        t, pq, kind = changes[i]
        j = i + 1
        while j < n_changes and changes[j][0] == t:
            j += 1
        if j > i + 1:
            _tied_changes(table, count, changes[i:j], batches, moves)
        elif kind == ADD:
            batch = []
            for c in cofaces[pq]:
                count[c] += 1
                if count[c] == needs[c]:
                    batch.append(simplices[c])
                    moves.append(add_moves[c])
            batches.append((t, kind, pq, batch))
        else:
            batch = []
            for c in rcofaces[pq]:
                if count[c] == needs[c]:
                    batch.append(simplices[c])
                    moves.append(del_moves[c])
                count[c] -= 1
            batches.append((t, kind, pq, batch))
        i = j
    full = [c for c in range(len(simplices) - 1, -1, -1) if count[c] == needs[c]]
    suffix = [simplices[c] for c in full]
    moves.extend([del_moves[c] for c in full])
    runs = [_run_at(table.runs[pq][0], t) for t, _, pq, _ in batches]
    return Layout(prefix, batches, suffix, runs, moves)


def _run_at(times: list[float], t: float) -> int:
    """The run whose times hold t (the later of two that meet at t)."""
    return min(max(bisect_right(times, t) - 1, 0), len(times) - 2)


def _tied_changes(table: _Table, count: list[int],
                  tied: list[tuple[float, tuple[int, int], str]],
                  batches: list, moves: list) -> None:
    """One group of changes at the same t: compare each touched simplex
    before t with after t, and give what starts or ends to the first pair
    of each kind."""
    step: dict[int, int] = {}
    for _, pq, kind in tied:
        sign = 1 if kind == ADD else -1
        for c in table.cofaces[pq]:
            step[c] = step.get(c, 0) + sign
    owed: dict[str, list[int]] = {ADD: [], DELETE: []}
    for c in sorted(step):
        was = count[c] == table.needs[c]
        count[c] += step[c]
        if was != (count[c] == table.needs[c]):
            owed[DELETE if was else ADD].append(c)
    owed[DELETE].reverse()
    for t, pq, kind in tied:
        own = owed.pop(kind, ())
        batches.append((t, kind, pq, [table.simplices[c] for c in own]))
        moves.extend([table.moves[kind][c] for c in own])


def filtration_at(tr: Trajectories, delta: float, dim_cap: int = 2) -> ZigzagFiltration:
    return canonical_layout(tr, delta, dim_cap).to_filtration()


# ----------------------------------------------------------------------
# compiling an event: the layout below it, and the ops that reach it

# how far past a segment's ends a critical point still counts, so a contact
# at a sample time is found from both sides
_MARGIN = 1e-9


def _roots(a: float, b: float, c: float) -> list[float]:
    """The real roots of a u^2 + b u + c, by the cancellation-free formula."""
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    out = [q / a] if a != 0.0 else []
    if q != 0.0:
        out.append(c / q)
    return out


class _Critical:
    """Every distance at which a layout can change shape, with the pairs
    involved: the extreme values of each pair's curve on [0, s], where its
    presence windows appear, vanish, split or leave a boundary, and the
    values at which two pairs' curves meet, where their changes can swap.
    Two curves equal on a whole segment meet at every value they take
    there, and their changes can tie: such a cloud is marked `tied`.

    No tolerance applies, unlike in detect_events, so a contact that
    detect_events reads as degenerate or tangent still shows here."""

    def __init__(self, pairs, curves, runs):
        points: list[tuple[float, frozenset]] = []
        self.tied = False
        for pq, curve in zip(pairs, curves):
            key = frozenset((pq,))
            # the ends of its monotone runs, and vertices just past a segment
            points += [(_safe_sqrt(v), key) for v in runs[pq][1]]
            for a, b, c in curve:
                if a != 0.0 and not 0.0 < (u := -b / (2.0 * a)) < 1.0 \
                        and -_MARGIN <= u <= 1.0 + _MARGIN:
                    points.append((_safe_sqrt((a * u + b) * u + c), key))
        for (p, c1), (q, c2) in combinations(zip(pairs, curves), 2):
            key = frozenset((p, q))
            for (a, b, c), (a2, b2, c2_) in zip(c1, c2):
                if (a, b, c) == (a2, b2, c2_):
                    self.tied = True
                    continue
                for u in _roots(a - a2, b - b2, c - c2_):
                    if -_MARGIN <= u <= 1.0 + _MARGIN:
                        points.append((_safe_sqrt((a * u + b) * u + c), key))
        # a flat run's value is found once per flat segment and sample time
        points = sorted(dict.fromkeys(points), key=lambda point: point[0])
        self.deltas = [d for d, _ in points]
        self.keys = [key for _, key in points]

    def only(self, pairs: Iterable[tuple[int, int]], lo: float, hi: float) -> bool:
        """Whether the cloud has no tied curves and exactly one critical value
        lies in [lo, hi], one of these pairs' (a single pair's extreme or
        the two's meeting)."""
        i = bisect_left(self.deltas, lo)
        return (not self.tied and bisect_right(self.deltas, hi) == i + 1
                and self.keys[i] == frozenset(pairs))


def _has_edge(simplex: Simplex, pq: tuple[int, int]) -> bool:
    return pq[0] in simplex and pq[1] in simplex


def _swapped(own: dict, j: int, first: tuple[int, int], second: tuple[int, int]) -> dict:
    """A pair index once batches j, first's, and j + 1, second's, trade places."""
    own = dict(own)
    own[first] = [j + 1 if k == j else k for k in own[first]]
    own[second] = [j if k == j + 1 else k for k in own[second]]
    return own


def _batch_on(layout: Layout, pq: tuple[int, int], run: int, kind: str) -> int:
    """The index of pq's batch of this kind on its run `run`."""
    for j in layout.own(pq):
        if layout.runs[j] == run and layout.batches[j][1] == kind:
            return j
    raise ContractViolation(f"no {kind} batch of pair {pq} on its run {run}")


def _run_from(table: _Table, pq: tuple[int, int], t: float, side: int) -> int:
    """The run of pq's curve that ends (side -1) or starts (side +1) at t,
    read past flat segments."""
    times, values = table.runs[pq]
    i = bisect_left(times, t)
    if i < len(times) and times[i] == t:
        for r in (range(i - 1, -1, -1) if side < 0 else range(i, len(times) - 1)):
            if values[r] != values[r + 1]:
                return r
    raise ContractViolation(f"pair {pq} has no run {'to' if side < 0 else 'from'} t={t}")


def _fit(table: _Table, changes: list[tuple[tuple[int, int], int, bool, bool]],
         delta_hi: float, delta_lo: float) -> None:
    """Raise ContractViolation unless each change (pq, run, above, below) is
    on pq's run at delta_hi just when above, and at delta_lo just when below:
    when that threshold's square lies strictly between the run's ends."""
    for pq, run, above, below in changes:
        v, w = sorted(table.runs[pq][1][run:run + 2])
        if (v < delta_hi * delta_hi < w, v < delta_lo * delta_lo < w) != (above, below):
            raise ContractViolation(f"the event does not fit run {run} of pair {pq}")


# the event kinds _derive compiles
_DERIVED = (DECREASING_CROSSING, INCREASING_CROSSING, OPPOSITE_CROSSING, LOCAL_MIN,
            LOCAL_MAX, BOUNDARY_SHRINK, BOUNDARY_VANISH)


def _derive(table: _Table, event: Event, hi: Layout, delta_hi: float, delta_lo: float
            ) -> tuple[Layout, tuple[int, int], list[ScriptOp]]:
    """Compile a single event against the layout above it, hi: derive the
    layout below, the span [a, b) of its moves that differ from hi's (past
    b they are hi's, shifted) and the script of ops that takes hi's
    filtration to it.  Applies nothing; returns the three.

    The event's batches are its pairs' batches on the runs that hold the
    event time t, or end or start at it.  A window opening's two new
    batches go on the runs that end and start at t, at the place bisection
    finds, and hold pq's cofaces whose other edges are present at t.  No
    roots are solved: each change the event touches must fit its run at
    both thresholds (_fit).  Raises ContractViolation when the event does
    not fit hi."""
    kind, t, pairs = event.kind, event.time, event.pairs
    prefix, batches, suffix, runs = hi.prefix, list(hi.batches), hi.suffix, list(hi.runs)
    moves, own = hi.moves(), None  # a swap hands hi's pair index down, patched
    if kind in (DECREASING_CROSSING, INCREASING_CROSSING):
        way = ADD if kind == DECREASING_CROSSING else DELETE
        changes = [(pq, _run_at(table.runs[pq][0], t), True, True) for pq in pairs]
        j1, j2 = (_batch_on(hi, pq, run, way) for pq, run, _, _ in changes)
        if abs(j1 - j2) != 1:
            raise ContractViolation("crossing batches are not adjacent")
        j = min(j1, j2)
        (ta, _, a, first), (tb, _, b, second) = batches[j:j + 2]
        # a simplex with both edges goes to the later addition, or to the
        # earlier deletion: the one the edges meet in last, or first
        if way == ADD:
            shared = [s for s in second if _has_edge(s, a)]
            second = [s for s in second if not _has_edge(s, a)]
            first = _add_order(first + shared)
        else:
            shared = [s for s in first if _has_edge(s, b)]
            first = [s for s in first if not _has_edge(s, b)]
            second = _delete_order(second + shared)
        batches[j:j + 2] = [(tb, way, b, second), (ta, way, a, first)]
        runs[j:j + 2] = runs[j + 1], runs[j]
        own = _swapped(hi._own, j, a, b)
        start, old = hi.batch_start(j), len(first) + len(second)
        new = [(way, s) for s in second + first]
        script = _bubbled(start, moves[start:start + old], new, "fs" if way == ADD else "bs")
    elif kind in (OPPOSITE_CROSSING, LOCAL_MIN):
        e_del, e_add = pairs if kind == OPPOSITE_CROSSING else pairs * 2
        if kind == OPPOSITE_CROSSING:
            ra, rd = (_run_at(table.runs[pq][0], t) for pq in (e_add, e_del))
        else:
            ra, rd = _run_from(table, e_add, t, -1), _run_from(table, e_del, t, 1)
        stays = kind == OPPOSITE_CROSSING
        changes = [(e_add, ra, True, stays), (e_del, rd, True, stays)]
        ja = _batch_on(hi, e_add, ra, ADD)
        if _batch_on(hi, e_del, rd, DELETE) != ja + 1:
            raise ContractViolation(f"{kind} batches are not adjacent")
        (ta, _, _, adds), (td, _, _, dels) = batches[ja:ja + 2]
        if kind == LOCAL_MIN and dels != adds[::-1]:
            raise ContractViolation("vanishing window is not in canonical order")
        start, old = hi.batch_start(ja), len(adds) + len(dels)
        script = (_compile_opposite(start, adds, dels) if kind == OPPOSITE_CROSSING
                  else _contract_adjacent(start, len(adds)))
        # the two batches trade places and drop what they share, which for
        # a vanishing window is everything
        shared = set(adds) & set(dels)
        adds = [s for s in adds if s not in shared]
        dels = [s for s in dels if s not in shared]
        if kind == OPPOSITE_CROSSING:
            batches[ja:ja + 2] = [(td, DELETE, e_del, dels), (ta, ADD, e_add, adds)]
            runs[ja:ja + 2] = runs[ja + 1], runs[ja]
            own = _swapped(hi._own, ja, e_add, e_del)
        else:
            del batches[ja:ja + 2], runs[ja:ja + 2]
        new = [(DELETE, s) for s in dels] + [(ADD, s) for s in adds]
    elif kind == LOCAL_MAX:
        (pq,) = pairs
        rd, ra = _run_from(table, pq, t, -1), _run_from(table, pq, t, 1)
        changes = [(pq, rd, False, True), (pq, ra, False, True)]
        thr = delta_lo * delta_lo

        def later(j: int) -> bool:
            # whether batch j's change at delta_lo is after t: by run or by value
            _, change, p, _ = batches[j]
            t0, t1 = table.runs[p][0][runs[j]:runs[j] + 2]
            if t1 <= t or t0 >= t:
                return t0 >= t
            return (_curve_value(table.curve[p], t) > thr) == (change == ADD)
        j = bisect_left(range(len(batches)), True, key=later)
        dels = [table.simplices[c] for c in table.rcofaces[pq]
                if all(_curve_value(table.curve[e], t) <= thr
                       for e in table.edges[c] if e != pq)]
        batches[j:j] = [(t, DELETE, pq, dels), (t, ADD, pq, dels[::-1])]
        runs[j:j] = [rd, ra]
        start, old = hi.batch_start(j), 0
        new = [(DELETE, s) for s in dels] + [(ADD, s) for s in dels[::-1]]
        script = _open_window(start, dels)
    elif kind in (BOUNDARY_SHRINK, BOUNDARY_VANISH) and t in (0.0, float(table.spans)):
        (pq,) = pairs
        at_start = t == 0.0
        edge = prefix if at_start else suffix
        gone = [s for s in edge if _has_edge(s, pq)]
        keep = [s for s in edge if not _has_edge(s, pq)]
        way = ADD if at_start else DELETE
        # the gone simplices move to the inner end of the prefix (suffix) ...
        start, old = (0 if at_start else len(moves) - len(edge)), len(edge)
        new = [(way, s) for s in (keep + gone if at_start else gone + keep)]
        script = _bubbled(start, moves[start:start + old], new, "fs" if at_start else "bs")
        if kind == BOUNDARY_SHRINK:
            # ... and leave it as a new first (last) batch
            j = 0 if at_start else len(batches)
            batches.insert(j, (t, way, pq, gone))
            runs.insert(j, _run_from(table, pq, t, 1 if at_start else -1))
            changes = [(pq, runs[j], False, True)]
        else:
            # ... and cancel against the first (last) batch, which ends
            # (starts) the window at the boundary
            j = 0 if at_start else len(batches) - 1
            if not batches or batches[j][1:3] != (DELETE if at_start else ADD, pq) \
                    or batches[j][3] != gone[::-1]:
                raise ContractViolation("boundary window is not in canonical order")
            changes = [(pq, runs.pop(j), True, False)]
            del batches[j]
            if not at_start:
                start -= len(gone)
            old += len(gone)
            script += _contract_adjacent(len(keep) if at_start else start, len(gone))
            new = [(way, s) for s in keep]
        if at_start:
            prefix = keep
        else:
            suffix = keep
    else:
        raise ContractViolation(f"no derived layout for {kind}")
    _fit(table, changes, delta_hi, delta_lo)
    lo = Layout(prefix, batches, suffix, runs, moves[:start] + new + moves[start + old:], own)
    return lo, (start, start + len(new)), script


def _same_shape(a: Layout, b: Layout) -> bool:
    """Equal prefix, suffix, moves and batches, batch times aside."""
    return (a.prefix == b.prefix and a.suffix == b.suffix and a.moves() == b.moves()
            and [batch[1:] for batch in a.batches] == [batch[1:] for batch in b.batches])


def _bubbled(start: int, block: list[tuple[str, Simplex]],
             target: list[tuple[str, Simplex]], kind: str) -> list[ScriptOp]:
    """The adjacent swaps of this kind that reorder block, the moves from
    start on, into target order."""
    block = list(block)
    script = []
    for k, want in enumerate(target):
        p = block.index(want, k)
        script += [ScriptOp(kind, start + q) for q in range(p, k, -1)]
        block.insert(k, block.pop(p))
    return script


def _timed_layout(tr: Trajectories, delta: float, dim_cap: int) -> tuple[Layout, float]:
    tic = time.perf_counter()
    return canonical_layout(tr, delta, dim_cap), time.perf_counter() - tic


def compile_event(em: Emitter, tr: Trajectories, group: list[Event], above: Layout,
                  delta_hi: float, delta_lo: float, dim_cap: int, checked: bool
                  ) -> tuple[Layout, bool, bool, float, float]:
    """The sweep's step for one band: emit through em the ops that take the
    filtration of the layout above, at delta_hi, to the layout at delta_lo,
    past the group of events between the two.  Returns that layout, whether
    it was derived from the one above (or laid out by canonical_layout),
    whether the ops came from planner.transform, the perf_counter seconds
    of deciding whether the band is cleared and of compiling and applying
    its ops (canonical_layout's seconds not counted) and the seconds spent
    in canonical_layout.

    The band's script is derived first, and only then emitted.  The group
    is derived event by event by _derive: a group of events at distinct
    deltas splits the band midway between consecutive ones, and each event
    derives from the layout the one before left.  The band is cleared when
    each event is the only critical value of its part; then the layout is
    derived, and an unchecked cleared band never calls canonical_layout.
    Otherwise canonical_layout's layout is the reference and becomes the
    band's layout.  One gate compares the derived layout's shape with the
    reference, when there is one, before any op runs: on a checked cleared
    band a mismatch raises CheckFailed, on an uncleared band it is a
    ContractViolation.  The filtration is then compared with the layout
    below over the steps the ops touched or the derivation changed, plus
    its length (all of it when the layout was laid out from scratch, the
    band is checked or it holds several events).  A ContractViolation
    anywhere in that, or an uncleared group of several events, sends the
    band to planner.transform towards canonical_layout's layout, from
    wherever the filtration got to: a failed derivation leaves it as it
    was, and a failed op leaves it where the ops before it took it."""
    tic = time.perf_counter()
    table = _table(tr, dim_cap)
    group = sorted(group, key=lambda ev: -ev.delta)
    # a group of events at distinct deltas splits the band midway between them
    cuts = [delta_hi] + [(a.delta + b.delta) / 2.0 for a, b in zip(group, group[1:])] + [delta_lo]
    cleared = len({ev.delta for ev in group}) == len(group) and all(
        ev.kind in _DERIVED and table.critical.only(ev.pairs, lo, hi)
        for ev, hi, lo in zip(group, cuts, cuts[1:]))
    reference, layout_s = (None, 0.0) if cleared and not checked else \
        _timed_layout(tr, delta_lo, dim_cap)
    try:
        if len(group) > 1 and not cleared:
            raise ContractViolation("simultaneous events")
        layout_lo, script = above, []
        for ev, hi, lo in zip(group, cuts, cuts[1:]):
            layout_lo, span, part = _derive(table, ev, layout_lo, hi, lo)
            script += part
        if reference is not None and not _same_shape(layout_lo, reference):
            if cleared:
                raise CheckFailed("derived layout differs from canonical_layout")
            raise ContractViolation("derived layout differs from canonical_layout")
        if not cleared:
            layout_lo = reference
        for sop in script:
            em.emit(sop)
        moves = layout_lo.moves()
        lo, hi = 0, len(moves)
        if cleared and len(group) == 1 and not checked:
            lo = max(0, min(em.first, span[0]))
            hi -= max(0, min(em.tail, len(moves) - span[1]))
        if not _holds(em.sim, moves, lo, hi):
            raise ContractViolation("compiled script missed the target layout")
        return layout_lo, cleared, False, time.perf_counter() - tic - layout_s, layout_s
    except ContractViolation:
        if reference is None:
            reference, layout_s = _timed_layout(tr, delta_lo, dim_cap)
        for sop in transform(em.sim, reference.to_filtration()):
            em.emit(sop)
        return reference, False, True, time.perf_counter() - tic - layout_s, layout_s


def _holds(f: ZigzagFiltration, moves: list[tuple[str, Simplex]],
           lo: int = 0, hi: Optional[int] = None) -> bool:
    """Whether f has as many steps as there are moves, and its steps lo:hi
    are exactly moves lo:hi (all of them by default)."""
    return len(f.steps) == len(moves) and all(
        step.direction == kind and step.simplex == simplex
        for step, (kind, simplex) in zip(f.steps[lo:hi], moves[lo:hi]))


def _open_window(start: int, dels: list[Simplex]) -> list[ScriptOp]:
    """A window opening's outward expansions at start: the new deletion
    batch, dels, then its reverse, the new addition batch."""
    return [ScriptOp("oe", start + idx, simplex) for idx, simplex in enumerate(dels)]


def _compile_opposite(start: int, adds: list[Simplex], dels: list[Simplex]
                      ) -> list[ScriptOp]:
    """The addition batch at start and the deletion batch after it swap past
    each other; shared simplices cancel through inward contractions."""
    adds = list(adds)
    script = []
    for tau in dels:
        # the deletion of tau sits right after the remaining adds
        pos = start + len(adds)
        if tau in adds:
            k = adds.index(tau)
            script += [ScriptOp("os", q) for q in range(pos, start + k + 1, -1)]
            script.append(ScriptOp("ic", start + k + 1))
            adds.remove(tau)
        else:
            script += [ScriptOp("os", q) for q in range(pos, start, -1)]
            start += 1
    return script


def _contract_adjacent(add_start: int, count: int) -> list[ScriptOp]:
    """Contract [adds][reversed deletes] blocks pairwise from the middle."""
    return [ScriptOp("ic", add_start + count - r) for r in range(count)]


# ----------------------------------------------------------------------
# the vineyard pipeline


def group_events(events: list[Event]) -> tuple[list[list[Event]], list[float]]:
    """The sorted events grouped into band boundaries (an event joins a group
    whose first delta is within 10 * REL_EPS * the largest delta), and the
    thresholds each band is laid out at: above the first boundary, midway
    between each two and at half the last."""
    groups: list[list[Event]] = []
    scale = max((ev.delta for ev in events), default=1.0) or 1.0
    tol = 10 * REL_EPS * scale
    for ev in events:
        if groups and abs(groups[-1][0].delta - ev.delta) <= tol:
            groups[-1].append(ev)
        else:
            groups.append([ev])
    boundaries = [g[0].delta for g in groups]
    evals = [boundaries[0] + 1.0 if boundaries else 1.0]
    for hi, lo in zip(boundaries, boundaries[1:]):
        evals.append((hi + lo) / 2.0)
    if boundaries:
        evals.append(boundaries[-1] / 2.0)
    return groups, evals


@dataclass
class SweptBand:
    """One band as the sweep reaches it: the ops that led to it from the band
    above, by kind; the filtration length after them; the perf_counter
    seconds of the band's update outside canonical_layout (compile_event's
    seconds, the cleared test included; for band 0, state_from_filtration's),
    of the apply_op calls among those (in all, and by op kind; none on band
    0) and of the band's snapshot; the oracle call's seconds on a checked
    band (else None); the seconds in canonical_layout, as reference,
    transform target or band 0's layout;
    whether its layout was derived from the band above's (or laid out by
    canonical_layout); and whether its ops came from planner.transform."""
    band: Band
    ops: list[str]
    length: int
    update_s: float
    apply_s: float
    snapshot_s: float
    oracle_s: Optional[float]
    layout_s: float = 0.0
    apply_by_op: dict[str, float] = field(default_factory=dict)
    derived: bool = False
    transformed: bool = False


def sweep(tr: Trajectories, events: list[Event], dim_cap: int = 2,
          check_every: int = 0) -> Iterator[SweptBand]:
    """Sweep the distance threshold from above the largest critical value
    down to zero, maintaining one persistence state across all bands, and
    yield each band as soon as its ops are applied, band 0 first.

    compile_event is each band's step: it derives the band's script, then
    emits it, each op applied to the state and checked by apply_op itself.

    With check_every = K > 0, bands 0, K, 2K, ... are checked: a derived
    layout must have the shape of canonical_layout's, the whole filtration
    must equal it and be valid, and its from-scratch barcode must equal the
    band's, or the sweep raises: CheckFailed, naming the band, for a
    mismatch.  Raises ContractViolation for a negative dim_cap or
    check_every."""
    for name, value in (("dim_cap", dim_cap), ("check_every", check_every)):
        if value < 0:
            raise ContractViolation(f"{name} must not be negative, got {value}")
    groups, evals = group_events(events)
    boundaries = [g[0].delta for g in groups] + [0.0]
    layout, layout_s = _timed_layout(tr, evals[0], dim_cap)
    tic = time.perf_counter()
    state = state_from_filtration(layout.to_filtration())
    update_s = time.perf_counter() - tic
    band, snapshot_s = _snapshot(state, 0, math.inf, boundaries[0], None)
    yield SweptBand(band, [], len(state.filtration.steps), update_s, 0.0, snapshot_s,
                    _check(state, band, check_every), layout_s)
    by_op: dict[str, float] = {}

    def apply(sop: ScriptOp) -> None:
        tic = time.perf_counter()
        apply_op(state, sop.op, sop.pos, sop.simplex)
        by_op[sop.op] = by_op.get(sop.op, 0.0) + time.perf_counter() - tic

    for g, group in enumerate(groups):
        by_op = {}
        em = Emitter(state.filtration, apply)
        try:
            layout, derived, transformed, update_s, layout_s = compile_event(
                em, tr, group, layout, evals[g], evals[g + 1], dim_cap,
                _due(g + 1, check_every))
        except CheckFailed as exc:
            raise CheckFailed(f"{_band_name(g + 1, boundaries[g], boundaries[g + 1])}: "
                              f"{exc}") from None
        ops, length = [sop.op for sop in em.script], len(state.filtration.steps)
        # state.barcode() stays the last work of an unchecked band: perfbench
        # reads per-band latency at its return
        band, snapshot_s = _snapshot(state, g + 1, boundaries[g], boundaries[g + 1], group[0])
        yield SweptBand(band, ops, length, update_s, sum(by_op.values()), snapshot_s,
                        _check(state, band, check_every), layout_s, by_op, derived,
                        transformed)


def _snapshot(state: PersistenceState, index: int, hi: float, lo: float,
              event: Optional[Event]) -> tuple[Band, float]:
    """The state's band, whose bars share their row tuples with the state,
    and the perf_counter seconds of taking it, up to state.barcode()'s
    return."""
    tic = time.perf_counter()
    ids = dict(state.refresh_rows())
    bars = state.barcode()
    seconds = time.perf_counter() - tic
    return Band(index, hi, lo, bars, ids, event), seconds


def _check(state: PersistenceState, band: Band, check_every: int) -> Optional[float]:
    """When the band is due a check, compare the band's barcode with the
    from-scratch oracle's, whose one pass also validates the state's
    filtration and words a fault as validate() does, raising on either
    failure; the seconds of the oracle call, or None when not due."""
    if not _due(band.index, check_every):
        return None
    tic = time.perf_counter()
    # through the module, so a replaced fzz.barcode_from_scratch (perfbench's
    # tests corrupt it) is the oracle checked here too
    fresh = fzz.barcode_from_scratch(state.filtration)
    seconds = time.perf_counter() - tic
    if fresh != band.barcode:
        raise CheckFailed(f"{_band_name(band.index, band.delta_hi, band.delta_lo)}: "
                          "barcode disagrees with the oracle")
    return seconds


def _due(index: int, check_every: int) -> bool:
    return check_every > 0 and index % check_every == 0


def vineyard(tr: Trajectories, dim_cap: int = 2, check_every: int = 0) -> Vineyard:
    """Every band of the sweep (see sweep()), with the degenerate contacts
    found on the way as diagnostics."""
    events, diagnostics = detect_events(tr, dim_cap)
    bands = [swept.band for swept in sweep(tr, events, dim_cap, check_every)]
    return Vineyard(bands, diagnostics)
