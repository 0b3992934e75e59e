"""Vineyards for dynamic point clouds.

Points move along piecewise-linear trajectories, so squared pairwise
distances are piecewise quadratic in time.  For a distance threshold the
time-varying Rips complex is a zigzag filtration; sweeping the threshold
downward, the filtration changes only at critical values of the
distance-time curves.  Each critical value is compiled to a short script of
atomic operations, which the representative engine applies band by band.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Iterator, Optional

from . import fzz
from .chains import Simplex
from .errors import ContractViolation
from .filtration import ADD, DELETE, ZigzagFiltration
from .planner import ScriptOp, apply_to_filtration, state_from_filtration, transform
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
        self._tables: dict[int, _Table] = {}  # canonical_layout's, by dim_cap

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
            samples.setdefault(pid, {})[t] = coords
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
        lines = [f"band {self.index} delta_hi {self.delta_hi:.9g} "
                 f"delta_lo {self.delta_lo:.9g}"]
        rows = sorted(((dim, b, d, vid) for vid, (dim, b, d)
                       in self.interval_ids.items()))
        for dim, b, d, vid in rows:
            lines.append(f"{dim} {b} {d} {vid}")
        return "\n".join(lines) + "\n"


@dataclass
class Vineyard:
    bands: list[Band]
    diagnostics: list[Event] = field(default_factory=list)

    def to_text(self) -> str:
        return "".join(band.text() for band in self.bands)


def detect_events(tr: Trajectories, dim_cap: int = 2,
                  rel_eps: float = REL_EPS) -> tuple[list[Event], list[Event]]:
    """All critical points of the distance-time curves, sorted by falling
    distance value; returns (events, diagnostics)."""
    s = tr.spans
    if s < 1:
        raise ContractViolation("a cloud needs at least two samples to move")
    pairs = list(combinations(tr.points, 2))
    curves = {pq: pair_distance_curve(tr, *pq) for pq in pairs}
    raw: list[Event] = []
    diagnostics: list[Event] = []

    scale = max((abs(c) for cur in curves.values() for seg in cur for c in seg),
                default=1.0) or 1.0
    tol = rel_eps * scale

    for pq in pairs:
        curve = curves[pq]
        # interior extrema of each quadratic piece
        for k, (a, b, c) in enumerate(curve):
            if abs(a) > tol:
                u = -b / (2.0 * a)
                if tol < u < 1.0 - tol:
                    val = (a * u + b) * u + c
                    kind = LOCAL_MIN if a > 0 else LOCAL_MAX
                    raw.append(Event(_safe_sqrt(val), k + u, kind, (pq,)))
        # kinks at the integer sample times
        for t in range(1, s):
            left = _curve_slope(curve, float(t), -1)
            right = _curve_slope(curve, float(t), +1)
            if left < -tol and right > tol:
                raw.append(Event(_safe_sqrt(_curve_value(curve, t)), float(t),
                                 LOCAL_MIN, (pq,)))
            elif left > tol and right < -tol:
                raw.append(Event(_safe_sqrt(_curve_value(curve, t)), float(t),
                                 LOCAL_MAX, (pq,)))
            elif abs(left) <= tol or abs(right) <= tol:
                if abs(left) > tol or abs(right) > tol:
                    diagnostics.append(Event(_safe_sqrt(_curve_value(curve, t)),
                                             float(t), TANGENT, (pq,),
                                             note="flat kink"))
        # domain boundaries
        slope0 = _curve_slope(curve, 0.0, +1)
        if abs(slope0) > tol:
            kind = BOUNDARY_VANISH if slope0 > 0 else BOUNDARY_SHRINK
            raw.append(Event(_safe_sqrt(_curve_value(curve, 0.0)), 0.0, kind, (pq,)))
        slope_s = _curve_slope(curve, float(s), -1)
        if abs(slope_s) > tol:
            kind = BOUNDARY_VANISH if slope_s < 0 else BOUNDARY_SHRINK
            raw.append(Event(_safe_sqrt(_curve_value(curve, float(s))), float(s),
                             kind, (pq,)))

    # pairwise curve crossings
    for na in range(len(pairs)):
        for nb in range(na + 1, len(pairs)):
            e1, e2 = pairs[na], pairs[nb]
            c1, c2 = curves[e1], curves[e2]
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

    events: list[Event] = []
    for ev in raw:
        if ev.delta <= tol:
            continue
        events.append(ev)
    events.sort(key=Event.sort_key)
    deduped: list[Event] = []
    for ev in events:
        if deduped and _same_event(deduped[-1], ev, tol):
            continue
        deduped.append(ev)
    return deduped, diagnostics


def _same_event(a: Event, b: Event, tol: float) -> bool:
    return (a.kind == b.kind and a.pairs == b.pairs
            and abs(a.delta - b.delta) <= 10 * tol and abs(a.time - b.time) <= 10 * tol)


def _safe_sqrt(v: float) -> float:
    return math.sqrt(v) if v > 0 else 0.0


def _unit_roots(a: float, b: float, c: float, tol: float) -> list[float]:
    """Roots of a u^2 + b u + c in (0, 1), simple roots only."""
    if abs(a) <= tol:
        if abs(b) <= tol:
            return []
        u = -c / b
        return [u] if tol < u < 1.0 - tol else []
    disc = b * b - 4.0 * a * c
    if disc <= tol * tol:
        return []
    r = math.sqrt(disc)
    out = [(-b - r) / (2.0 * a), (-b + r) / (2.0 * a)]
    return sorted(u for u in out if tol < u < 1.0 - tol)


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
    """The canonical shape of the filtration at one threshold."""
    prefix: list[Simplex]
    batches: list[tuple[float, str, tuple[int, int], list[Simplex]]]
    suffix: list[Simplex]
    _moves: Optional[list[tuple[str, Simplex]]] = field(default=None, compare=False,
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
        pos = len(self.prefix)
        for _, _, _, simplices in self.batches[:index]:
            pos += len(simplices)
        return pos


def _add_order(simplices: Iterable[Simplex]) -> list[Simplex]:
    return sorted(simplices, key=lambda s: (s.dimension, tuple(s)))


def _delete_order(simplices: Iterable[Simplex]) -> list[Simplex]:
    return list(reversed(_add_order(simplices)))


class _Table:
    """What canonical_layout needs of one cloud at one dimension cap: every
    simplex in add order, how many edges each needs, and for each edge its
    cofaces (itself included) by index, in add order and in reverse."""

    def __init__(self, tr: Trajectories, dim_cap: int):
        pts = tr.points
        self.spans = tr.spans
        self.pairs = list(combinations(pts, 2))
        self.curves = [pair_distance_curve(tr, *pq) for pq in self.pairs]
        self.simplices = [Simplex(combo) for size in range(1, dim_cap + 2)
                          for combo in combinations(pts, size)]
        self.needs = [len(s) * (len(s) - 1) // 2 for s in self.simplices]
        self.cofaces: dict[tuple[int, int], list[int]] = {pq: [] for pq in self.pairs}
        for idx, simplex in enumerate(self.simplices):
            for pq in combinations(simplex, 2):
                self.cofaces[pq].append(idx)
        self.rcofaces = {pq: idx[::-1] for pq, idx in self.cofaces.items()}
        self.moves = {kind: [(kind, s) for s in self.simplices] for kind in (ADD, DELETE)}


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

    The layout's moves() list is built in the same pass.
    """
    table = tr._tables.get(dim_cap)
    if table is None:
        table = tr._tables[dim_cap] = _Table(tr, dim_cap)
    if not table.spans:
        return Layout([], [], [], [])  # one sample: no window of positive length
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
    return Layout(prefix, batches, suffix, moves)


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


def edge_signature(tr: Trajectories, delta: float) -> tuple:
    """Combinatorial shape of the edge-level zigzag (for scan-based checks)."""
    pairs = list(combinations(tr.points, 2))
    start, changes, end = _edge_changes(
        pairs, [pair_distance_curve(tr, *pq) for pq in pairs], delta, tr.spans)
    return (tuple(start), tuple((kind, pq) for _, pq, kind in changes), tuple(end))


# ----------------------------------------------------------------------
# compiling events to operation scripts


class _Emitter:
    """Applies operations to a scratch filtration as they are emitted, so
    every position is interpreted against the current state."""

    def __init__(self, filtration: ZigzagFiltration):
        self.sim = filtration.copy()
        self.script: list[ScriptOp] = []

    def emit(self, op: str, pos: int, simplex: Optional[Simplex] = None) -> None:
        sop = ScriptOp(op, pos, simplex)
        apply_to_filtration(self.sim, sop)
        self.script.append(sop)

    def step_key(self, idx: int) -> tuple[str, Simplex]:
        s = self.sim.steps[idx]
        return (s.direction, s.simplex)

    def bubble_block(self, lo: int, target: list[tuple[str, Simplex]],
                     opkind: str) -> None:
        """Reorder the block starting at lo into target order with adjacent swaps."""
        n = len(target)
        for k, want in enumerate(target):
            p = next(idx for idx in range(lo + k, lo + n)
                     if self.step_key(idx) == want)
            for q in range(p, lo + k, -1):
                self.emit(opkind, q)


def _batch_index(layout: Layout, pq: tuple[int, int], kind: str, t: float) -> int:
    best = None
    for idx, (time, k, pair, _) in enumerate(layout.batches):
        if pair == pq and k == kind:
            if best is None or abs(time - t) < abs(layout.batches[best][0] - t):
                best = idx
    if best is None:
        raise ContractViolation(f"no {kind} batch for pair {pq} near t={t}")
    return best


def compile_event(tr: Trajectories, event: Event, delta_above: float,
                  delta_below: float, dim_cap: int,
                  current: ZigzagFiltration,
                  layout_hi: Optional[Layout] = None,
                  layout_lo: Optional[Layout] = None) -> list[ScriptOp]:
    """Ops transforming the filtration just above the event into the one
    just below it; falls back to the universal planner for degenerate cases."""
    if layout_hi is None:
        layout_hi = canonical_layout(tr, delta_above, dim_cap)
    if not _holds(current, layout_hi.moves()):
        raise ContractViolation("state filtration does not match the band above")
    if layout_lo is None:
        layout_lo = canonical_layout(tr, delta_below, dim_cap)
    em = _Emitter(current)
    try:
        _compile_into(em, tr, event, layout_hi, layout_lo)
        if not _holds(em.sim, layout_lo.moves()):
            raise ContractViolation("compiled script missed the target layout")
    except ContractViolation:
        # degenerate geometry: fall back to the universal transformation
        em = _Emitter(current)
        for sop in transform(current, layout_lo.to_filtration()):
            em.emit(sop.op, sop.pos, sop.simplex)
    return em.script


def _holds(f: ZigzagFiltration, moves: list[tuple[str, Simplex]]) -> bool:
    """Whether the steps of f are exactly these (direction, simplex) moves."""
    return len(f.steps) == len(moves) and all(
        step.direction == kind and step.simplex == simplex
        for step, (kind, simplex) in zip(f.steps, moves))


def _compile_into(em: _Emitter, tr: Trajectories, event: Event,
                  layout_hi: Layout, layout_lo: Layout) -> None:
    t = event.time
    if event.kind == DECREASING_CROSSING:
        e1, e2 = event.pairs
        j1 = _batch_index(layout_hi, e1, ADD, t)
        j2 = _batch_index(layout_hi, e2, ADD, t)
        if abs(j1 - j2) != 1:
            raise ContractViolation("crossing batches are not adjacent")
        _compile_batch_swap(em, layout_hi, layout_lo, min(j1, j2), "fs", t)
    elif event.kind == INCREASING_CROSSING:
        e1, e2 = event.pairs
        j1 = _batch_index(layout_hi, e1, DELETE, t)
        j2 = _batch_index(layout_hi, e2, DELETE, t)
        if abs(j1 - j2) != 1:
            raise ContractViolation("crossing batches are not adjacent")
        _compile_batch_swap(em, layout_hi, layout_lo, min(j1, j2), "bs", t)
    elif event.kind == OPPOSITE_CROSSING:
        e_del, e_add = event.pairs
        ja = _batch_index(layout_hi, e_add, ADD, t)
        jd = _batch_index(layout_hi, e_del, DELETE, t)
        if jd != ja + 1:
            raise ContractViolation("opposite crossing batches are not adjacent")
        _compile_opposite(em, layout_hi, ja)
    elif event.kind == LOCAL_MIN:
        (pq,) = event.pairs
        ja = _batch_index(layout_hi, pq, ADD, t)
        jd = _batch_index(layout_hi, pq, DELETE, t)
        if jd != ja + 1:
            raise ContractViolation("vanishing window batches are not adjacent")
        adds = layout_hi.batches[ja][3]
        dels = layout_hi.batches[jd][3]
        if dels != list(reversed(adds)):
            raise ContractViolation("vanishing window is not in canonical order")
        _contract_adjacent(em, layout_hi.batch_start(ja), len(adds))
    elif event.kind == LOCAL_MAX:
        (pq,) = event.pairs
        jd = _batch_index(layout_lo, pq, DELETE, t)
        ja = _batch_index(layout_lo, pq, ADD, t)
        dels = layout_lo.batches[jd][3]
        adds = layout_lo.batches[ja][3]
        if ja != jd + 1 or dels != list(reversed(adds)):
            raise ContractViolation("window opening is not in canonical order")
        # the batches before the opening are the same above and below it
        pos = layout_lo.batch_start(jd)
        for idx, simplex in enumerate(dels):
            em.emit("oe", pos + idx, simplex)
    elif event.kind == BOUNDARY_SHRINK:
        if t == 0.0:
            gone = set(layout_hi.prefix) - set(layout_lo.prefix)
            keep = [s for s in layout_hi.prefix if s not in gone]
            target = [(ADD, s) for s in keep + _add_order(gone)]
            em.bubble_block(0, target, "fs")
        else:
            gone = set(layout_hi.suffix) - set(layout_lo.suffix)
            keep = [s for s in layout_hi.suffix if s not in gone]
            lo = len(em.sim.steps) - len(layout_hi.suffix)
            target = [(DELETE, s) for s in _delete_order(gone) + keep]
            em.bubble_block(lo, target, "bs")
    elif event.kind == BOUNDARY_VANISH:
        (pq,) = event.pairs
        if t == 0.0:
            gone = set(layout_hi.prefix) - set(layout_lo.prefix)
            keep = [s for s in layout_hi.prefix if s not in gone]
            jd = _batch_index(layout_hi, pq, DELETE, 0.0)
            if jd != 0 or layout_hi.batches[jd][3] != _delete_order(gone):
                raise ContractViolation("boundary window is not in canonical order")
            target = [(ADD, s) for s in keep + _add_order(gone)]
            em.bubble_block(0, target, "fs")
            _contract_adjacent(em, len(keep), len(gone))
        else:
            gone = set(layout_hi.suffix) - set(layout_lo.suffix)
            keep = [s for s in layout_hi.suffix if s not in gone]
            ja = _batch_index(layout_hi, pq, ADD, float(tr.spans))
            if ja != len(layout_hi.batches) - 1 or \
                    layout_hi.batches[ja][3] != _add_order(gone):
                raise ContractViolation("boundary window is not in canonical order")
            lo = len(em.sim.steps) - len(layout_hi.suffix)
            target = [(DELETE, s) for s in _delete_order(gone) + keep]
            em.bubble_block(lo, target, "bs")
            _contract_adjacent(em, layout_hi.batch_start(ja), len(gone))
    else:
        raise ContractViolation(f"no direct compilation for {event.kind}")


def _compile_batch_swap(em: _Emitter, layout_hi: Layout, layout_lo: Layout,
                        first: int, opkind: str, t: float) -> None:
    """Swap two adjacent same-direction batches into the lower layout's order."""
    a = layout_hi.batches[first]
    b = layout_hi.batches[first + 1]
    lo = layout_hi.batch_start(first)
    la = _batch_index(layout_lo, b[2], b[1], t)
    lb = _batch_index(layout_lo, a[2], a[1], t)
    target = [(b[1], s) for s in layout_lo.batches[la][3]]
    target += [(a[1], s) for s in layout_lo.batches[lb][3]]
    have = sorted(em.step_key(lo + k) for k in range(len(target)))
    if have != sorted(target):
        raise ContractViolation("crossing batches do not hold the same steps")
    em.bubble_block(lo, target, opkind)


def _compile_opposite(em: _Emitter, layout_hi: Layout, ja: int) -> None:
    """Addition batch then deletion batch swap past each other; shared
    simplices cancel through inward contractions."""
    adds = list(layout_hi.batches[ja][3])
    dels = list(layout_hi.batches[ja + 1][3])
    start = layout_hi.batch_start(ja)
    for tau in dels:
        # the deletion of tau currently sits right after the remaining adds
        pos = start + len(adds)
        if tau in adds:
            k = adds.index(tau)
            for q in range(pos, start + k + 1, -1):
                em.emit("os", q)
            em.emit("ic", start + k + 1)
            adds.remove(tau)
        else:
            for q in range(pos, start, -1):
                em.emit("os", q)
            start += 1


def _contract_adjacent(em: _Emitter, add_start: int, count: int) -> None:
    """Contract [adds][reversed deletes] blocks pairwise from the middle."""
    for r in range(count):
        em.emit("ic", add_start + count - r)


# ----------------------------------------------------------------------
# the vineyard pipeline


def group_events(events: list[Event], rel_eps: float = REL_EPS
                 ) -> tuple[list[list[Event]], list[float]]:
    """The sorted events grouped into band boundaries (an event joins a group
    whose first delta is within 10 * rel_eps * the largest delta), and the
    thresholds each band is laid out at: above the first boundary, midway
    between each two and at half the last."""
    groups: list[list[Event]] = []
    scale = max((ev.delta for ev in events), default=1.0) or 1.0
    tol = 10 * rel_eps * scale
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
    seconds of their compile_event and apply_op calls; and the seconds of
    the oracle call when the band was checked (None when it was not)."""
    band: Band
    ops: list[str]
    length: int
    update_s: float
    oracle_s: Optional[float]


def sweep(tr: Trajectories, events: list[Event], dim_cap: int = 2,
          check_every: int = 0, rel_eps: float = REL_EPS) -> Iterator[SweptBand]:
    """Sweep the distance threshold from above the largest critical value
    down to zero, maintaining one persistence state across all bands, and
    yield each band as soon as its ops are applied, band 0 first.

    With check_every = K > 0, bands 0, K, 2K, ... are checked: the
    filtration must be valid and its from-scratch barcode must equal the
    band's, or the sweep raises."""
    groups, evals = group_events(events, rel_eps)
    boundaries = [g[0].delta for g in groups] + [0.0]
    layout = canonical_layout(tr, evals[0], dim_cap)
    state = state_from_filtration(layout.to_filtration())
    band = _snapshot(state, 0, math.inf, boundaries[0], None)
    yield SweptBand(band, [], len(state.filtration.steps), 0.0,
                    _check(state, band, check_every))
    for g, group in enumerate(groups):
        layout_lo = canonical_layout(tr, evals[g + 1], dim_cap)
        tic = time.perf_counter()
        if len(group) == 1:
            script = compile_event(tr, group[0], evals[g], evals[g + 1], dim_cap,
                                   state.filtration, layout, layout_lo)
        else:
            # simultaneous events: use the universal transformation
            script = transform(state.filtration, layout_lo.to_filtration())
        for sop in script:
            apply_op(state, sop.op, sop.pos, sop.simplex)
        update_s = time.perf_counter() - tic
        layout = layout_lo
        ops, length = [sop.op for sop in script], len(state.filtration.steps)
        # state.barcode() stays the last work of an unchecked band: perfbench
        # reads per-band latency at its return
        band = _snapshot(state, g + 1, boundaries[g], boundaries[g + 1], group[0])
        yield SweptBand(band, ops, length, update_s, _check(state, band, check_every))


def _snapshot(state: PersistenceState, index: int, hi: float, lo: float,
              event: Optional[Event]) -> Band:
    ids = {iv.id: (iv.dim, iv.b, iv.d) for iv in state.intervals.values()}
    return Band(index, hi, lo, state.barcode(), ids, event)


def _check(state: PersistenceState, band: Band, check_every: int) -> Optional[float]:
    """When the band is due a check, validate the state's filtration and
    compare the band's barcode with the from-scratch oracle's, raising on
    either failure; the seconds of the oracle call, or None when not due."""
    if not check_every or band.index % check_every:
        return None
    bad = state.filtration.validate()
    if bad:
        raise ContractViolation("invalid filtration: " + "; ".join(bad))
    tic = time.perf_counter()
    # through the module, so a replaced fzz.barcode_from_scratch (perfbench's
    # tests corrupt it) is the oracle checked here too
    fresh = fzz.barcode_from_scratch(state.filtration, validate=False)
    seconds = time.perf_counter() - tic
    if fresh != band.barcode:
        raise AssertionError(f"band {band.index} disagrees with the oracle")
    return seconds


def vineyard(tr: Trajectories, dim_cap: int = 2, check_every: int = 0,
             rel_eps: float = REL_EPS) -> Vineyard:
    """Every band of the sweep (see sweep()), with the degenerate contacts
    found on the way as diagnostics."""
    events, diagnostics = detect_events(tr, dim_cap, rel_eps)
    bands = [swept.band for swept in sweep(tr, events, dim_cap, check_every, rel_eps)]
    return Vineyard(bands, diagnostics)
