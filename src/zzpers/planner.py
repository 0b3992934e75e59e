"""Operation scripts: reduce any filtration to empty, transform one into
another, build a certified persistence state, and sample random legal
operations for fuzzing.

One script empties a filtration: reduce_to_empty contracts each bar as its
deletion arrives, switching that deletion outward past only the additions
whose lifetimes cross the bar's.  Those additions outlive the bar, so they
are neither its faces nor its cofaces, and every switch is legal.  The
script's inverse builds a filtration up from empty, so transform runs one
script down and another's inverse up, and a state is built by replaying
the inverse from an empty state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .chains import Simplex, SimplicialComplex
from .errors import ContractViolation, Exhausted
from .filtration import ADD, DELETE, ZigzagFiltration
from .ops import CONTRACT, EXPAND, EXPANSIONS, OPS, TABLE, check, edit, inverse, violation
from .rep_updates import PersistenceState, apply_op


@dataclass(frozen=True)
class ScriptOp:
    op: str
    pos: int
    # expansions need the simplex; contractions may carry it for invertibility
    simplex: Optional[Simplex] = None

    def text(self) -> str:
        if self.op in EXPANSIONS and self.simplex is not None:
            return f"{self.op} {self.pos} {self.simplex.text()}"
        return f"{self.op} {self.pos}"


def script_to_text(script: Iterable[ScriptOp]) -> str:
    lines = [s.text() for s in script]
    return "\n".join(lines) + ("\n" if lines else "")


def script_from_text(text: str) -> list[ScriptOp]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if toks[0] not in OPS:
            raise ContractViolation(f"line {lineno}: unknown op {toks[0]!r}")
        if len(toks) < 2:
            raise ContractViolation(f"line {lineno}: missing position")
        try:
            pos = int(toks[1])
        except ValueError:
            raise ContractViolation(f"line {lineno}: bad position {toks[1]!r}") from None
        simplex = None
        if len(toks) > 2:
            if toks[0] not in EXPANSIONS:
                raise ContractViolation(f"line {lineno}: {toks[0]} takes no simplex")
            try:
                verts = [int(t) for t in toks[2:]]
            except ValueError:
                raise ContractViolation(f"line {lineno}: bad vertex id") from None
            simplex = Simplex(verts)
        elif toks[0] in EXPANSIONS:
            raise ContractViolation(f"line {lineno}: {toks[0]} needs a simplex")
        out.append(ScriptOp(toks[0], pos, simplex))
    return out


def apply_to_filtration(f: ZigzagFiltration, op: ScriptOp) -> None:
    """Apply one operation to a bare filtration (no persistence bookkeeping)."""
    check(f, op.op, op.pos, op.simplex)
    edit(f, op.op, op.pos, op.simplex)


class Emitter:
    """Applies each op it is given, through `apply`, to whatever owns the
    filtration `sim`, so every position is read against the current state,
    and records it in `script`.  It keeps the span the ops touched: no op
    reached a position before `first` or one of the last `tail` positions."""

    def __init__(self, sim: ZigzagFiltration, apply: Callable[[ScriptOp], object]):
        self.sim = sim
        self.apply = apply
        self.script: list[ScriptOp] = []
        self.first = self.tail = len(sim.steps)

    def emit(self, sop: ScriptOp) -> None:
        self.apply(sop)
        self.script.append(sop)
        # an op at pos touches steps pos-1, pos (an expansion inserts two at pos)
        self.first = min(self.first, sop.pos - 1)
        self.tail = min(self.tail, len(self.sim.steps) - sop.pos - 2)


def _require_valid(f: ZigzagFiltration) -> None:
    bad = f.validate()
    if bad:
        raise ContractViolation("invalid filtration: " + "; ".join(bad))


def reduce_to_empty(f: ZigzagFiltration) -> list[ScriptOp]:
    """A script of atomic operations taking f to the empty filtration.

    One pass over f's steps contracts each bar as its deletion arrives.  The
    bars deleted earlier are gone by then, so the steps before the deletion
    of sigma are the pending additions, in order: the deletion switches
    outward past those made after sigma's, then contracts inward with
    sigma's own addition.  Each addition passed belongs to a simplex that
    outlives sigma, so it is neither a face nor a coface of sigma and every
    op is legal.  The script holds one ic per bar and one os per pair of
    lifetimes that cross, and f is only read.
    """
    _require_valid(f)
    pending: list[Simplex] = []  # the live simplices, in order of addition
    script: list[ScriptOp] = []
    for step in f.steps:
        if step.is_add:
            pending.append(step.simplex)
            continue
        p = pending.index(step.simplex)
        script.extend(ScriptOp("os", k) for k in range(len(pending), p + 1, -1))
        script.append(ScriptOp("ic", p + 1, pending.pop(p)))
    return script


def invert_script(script: list[ScriptOp]) -> list[ScriptOp]:
    """The reversed script of inverse operations."""
    return [ScriptOp(*inverse(sop.op, sop.pos, sop.simplex)) for sop in reversed(script)]


def transform(f1: ZigzagFiltration, f2: ZigzagFiltration) -> list[ScriptOp]:
    """A script taking f1 to f2, step for step."""
    down = reduce_to_empty(f1)
    up = invert_script(reduce_to_empty(f2))
    return down + up


def state_from_filtration(f: ZigzagFiltration) -> PersistenceState:
    """Build a certified persistence state by replaying the inverse of
    reduce_to_empty(f), which validates f; apply_op checks each op."""
    state = PersistenceState()
    for sop in invert_script(reduce_to_empty(f)):
        apply_op(state, sop.op, sop.pos, sop.simplex)
    if state.filtration.moves() != f.moves():
        raise AssertionError("construction script did not reproduce the filtration")
    return state


# ----------------------------------------------------------------------
# randomized scripts


def legal_ops_at(f: ZigzagFiltration, pos: int, vertex_pool: list[int],
                 dim_cap: int, allow_expand: bool) -> list[ScriptOp]:
    """All legal operations anchored at one position."""
    steps = f.steps
    m = len(steps)
    out: list[ScriptOp] = []
    if 1 <= pos <= m - 1:
        for op, spec in TABLE.items():
            if spec.shape != EXPAND:
                sigma = steps[pos - 1].simplex if spec.shape == CONTRACT else None
                if violation(f, op, pos, sigma) is None:
                    out.append(ScriptOp(op, pos, sigma))
    if allow_expand and 0 <= pos <= m:
        cx = f.complex_at(pos)
        for s in sorted(cx):
            if not cx.has_cofaces(s):
                out.append(ScriptOp("oe", pos, s))
        for s in _addable_simplices(cx, vertex_pool, dim_cap):
            out.append(ScriptOp("ie", pos, s))
    return out


def _addable_simplices(cx: SimplicialComplex, vertex_pool: list[int],
                       dim_cap: int) -> list[Simplex]:
    out = []
    for v in vertex_pool:
        s = Simplex([v])
        if s not in cx:
            out.append(s)
    verts = sorted({v for s in cx for v in s})
    frontier = [s for s in cx if s.dimension < dim_cap]
    for s in frontier:
        top = s[-1]
        for v in verts:
            if v <= top:
                continue
            cand = Simplex(list(s) + [v])
            if cx.can_add(cand):
                out.append(cand)
    return sorted(set(out))


def random_script(f: ZigzagFiltration, k: int, seed: int,
                  vertex_pool: Optional[list[int]] = None, dim_cap: int = 2,
                  max_length: Optional[int] = None) -> list[ScriptOp]:
    """k legal operations sampled at uniformly chosen positions."""
    _require_valid(f)
    rng = random.Random(seed)
    sim = f.copy()
    if vertex_pool is None:
        vertex_pool = sorted({v for s in sim.steps for v in s.simplex}) or [0, 1, 2]
    script: list[ScriptOp] = []
    for _ in range(k):
        m = len(sim.steps)
        allow = max_length is None or m < max_length
        positions = list(range(0, m + 1))
        rng.shuffle(positions)
        chosen: Optional[ScriptOp] = None
        for pos in positions:
            ops = legal_ops_at(sim, pos, vertex_pool, dim_cap, allow)
            if ops:
                kinds = sorted({o.op for o in ops})
                kind = rng.choice(kinds)
                chosen = rng.choice([o for o in ops if o.op == kind])
                break
        if chosen is None:
            raise Exhausted(f"no legal operation after {len(script)} steps")
        apply_to_filtration(sim, chosen)
        script.append(chosen)
    return script


def random_filtration(rng: random.Random, vertex_pool: list[int], dim_cap: int = 2,
                      max_simplices: int = 12, max_length: int = 40) -> ZigzagFiltration:
    """A random valid filtration: a random walk of adds/deletes, then teardown."""
    f = ZigzagFiltration()
    cx = SimplicialComplex()
    budget = rng.randrange(0, max_length // 2 + 1)
    seen: set[Simplex] = set()
    for _ in range(budget):
        adds = [] if len(seen) >= max_simplices else \
            _addable_simplices(cx, vertex_pool, dim_cap)
        adds = [s for s in adds if len(seen | {s}) <= max_simplices]
        dels = [s for s in sorted(cx) if not cx.has_cofaces(s)]
        if len(f.steps) + 2 * len(cx) + 2 > max_length:
            break
        moves = [(ADD, s) for s in adds] + [(DELETE, s) for s in dels]
        if not moves:
            break
        direction, s = rng.choice(moves)
        if direction == ADD:
            cx.add(s)
            seen.add(s)
        else:
            cx.delete(s)
        f.steps.append(f.new_step(direction, s))
    while len(cx):
        s = max(cx.simplices, key=lambda t: (t.dimension, t))
        cx.delete(s)
        f.steps.append(f.new_step(DELETE, s))
    assert f.is_valid()
    return f
