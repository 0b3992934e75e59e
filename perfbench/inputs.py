"""Seeded input generator for the benchmark.

Every input is a file the program parses: point clouds as CSV
(`Trajectories.to_csv`), start filtrations as filtration text
(`dpc.filtration_at(...).to_text()`) and op streams as script text
(`planner.script_to_text`).  The same seed and size give byte-identical
files, and `digest()` names them, so two commits can be shown to have run
the same inputs.
"""

from __future__ import annotations

import hashlib
import random
from collections import deque
from pathlib import Path

from zzpers import dpc
from zzpers.chains import Simplex
from zzpers.errors import Exhausted
from zzpers.planner import (EXPANSIONS, ScriptOp, apply_to_filtration, invert_script,
                            legal_ops_at, script_to_text)

DIM_CAP = 2
CONTRACTIONS = ("oc", "ic")
EXPANSION_OF = {"oc": "oe", "ic": "ie"}

# Per workload and size: cloud shape, start length and the exact number of
# ops of each kind in the forward stream.  A fixed mix keeps the share of
# costly kinds (expansions, contractions) the same for every seed; the
# seed picks their order, positions and simplices.  One pass is the
# forward stream followed by its inverse, so every pass returns the
# filtration to the start and passes can repeat for as long as a run
# measures.  With fixed_start, every seed starts from the same filtration
# and the seed draws only the op stream: the start's shape sets what
# contractions cost, and they dominate a pass.
SIZES = {
    "full": {
        "sweep": {"clouds": 8, "points": 6, "samples": 6},
        "rep_edits": {"points": 8, "samples": 20, "length": 1400,
                      "fixed_start": True,
                      "mix": {"fs": 3600, "bs": 3600, "os": 1200, "is": 1200,
                              "oe": 100, "oc": 100, "ie": 100, "ic": 100}},
        "crosscheck": {"points": 7, "samples": 10, "length": 470, "fixed_start": True,
                       "mix": {"fs": 70, "bs": 70, "os": 24, "is": 24,
                               "ie": 6, "ic": 6}},
    },
    "tiny": {
        "sweep": {"clouds": 2, "points": 4, "samples": 3},
        "rep_edits": {"points": 5, "samples": 4, "length": 60, "fixed_start": True,
                      "mix": {"fs": 40, "bs": 40, "os": 12, "is": 12,
                              "oe": 4, "oc": 4, "ie": 4, "ic": 4}},
        "crosscheck": {"points": 5, "samples": 4, "length": 60, "fixed_start": True,
                       "mix": {"fs": 8, "bs": 8, "os": 4, "is": 4, "ie": 2, "ic": 2}},
    },
}


def cloud(rng: random.Random, points: int, samples: int) -> dpc.Trajectories:
    """Points placed uniformly in a 10 x 10 square at every sample time."""
    return dpc.Trajectories({
        p: [tuple(rng.uniform(0.0, 10.0) for _ in range(2)) for _ in range(samples)]
        for p in range(points)})


def band_filtration(tr: dpc.Trajectories, length: int):
    """The first band filtration, by rising threshold, at least `length` long,
    or None when no band of this cloud is that long.

    Length rises with the threshold and falls again once every edge is
    present all the time, so a coarse scan finds the rising side and a
    bisection the band on it."""
    events, _ = dpc.detect_events(tr, DIM_CAP)
    deltas = sorted({ev.delta for ev in events})
    mids = [(a + b) / 2.0 for a, b in zip(deltas, deltas[1:])]

    def steps(k: int) -> int:
        return len(dpc.filtration_at(tr, mids[k], DIM_CAP).steps)

    grid = range(0, len(mids), max(1, len(mids) // 32))
    hi = next((k for k in grid if steps(k) >= length), None)
    if hi is None:
        return None
    lo = max(0, hi - grid.step)
    while lo < hi:
        mid = (lo + hi) // 2
        if steps(mid) < length:
            lo = mid + 1
        else:
            hi = mid
    return dpc.filtration_at(tr, mids[lo], DIM_CAP)


def _expansion(f, pos: int, kind: str, pool: list[int], rng: random.Random):
    """A random legal expansion at pos, or None after a few misses."""
    cx = f.complex_at(pos)
    present = sorted(cx)
    for _ in range(8):
        if kind == "oe":
            if not present:
                return None
            s = rng.choice(present)
            if not cx.has_cofaces(s):
                return ScriptOp("oe", pos, s)
        else:
            bases = [s for s in present if s.dimension < DIM_CAP]
            base = rng.choice(bases + [()])
            v = rng.choice(pool)
            if v in base:
                continue
            s = Simplex(sorted(base + (v,)))
            if cx.can_add(s):
                return ScriptOp("ie", pos, s)
    return None


def _draw(f, kind: str, pool: list[int], rng: random.Random):
    """One legal op of the given kind at a uniformly drawn position, or None.

    Switches take the first legal uniform position, contractions a uniform
    one of their sites; legality is `planner.legal_ops_at`'s."""
    m = len(f.steps)
    if kind in EXPANSIONS:
        return _expansion(f, rng.randrange(m + 1), kind, pool, rng)
    if kind in CONTRACTIONS:
        sites = [o for p in range(1, m)
                 for o in legal_ops_at(f, p, pool, DIM_CAP, False) if o.op == kind]
        return rng.choice(sites) if sites else None
    for _ in range(64):
        hits = [o for o in legal_ops_at(f, rng.randrange(1, max(m, 2)), pool, DIM_CAP, False)
                if o.op == kind]
        if hits:
            return hits[0]
    return None


def op_stream(f, mix: dict[str, int], rng: random.Random) -> list[ScriptOp]:
    """mix[kind] ops of each kind, in seeded order; a kind with no legal op
    at its turn waits for a later turn.  A contraction left without any
    site becomes the matching expansion, so the stream never runs dry."""
    queue = deque(k for k in sorted(mix) for _ in range(mix[k]))
    rng.shuffle(queue)
    sim = f.copy()
    pool = sorted({v for step in sim.steps for v in step.simplex})
    script: list[ScriptOp] = []
    misses = 0
    while queue:
        kind = queue.popleft()
        op = _draw(sim, kind, pool, rng)
        if op is None:
            misses += 1
            if misses > len(queue) + 64:
                if kind not in CONTRACTIONS:
                    raise Exhausted(f"no legal {kind} after {len(script)} ops")
                # every site is gone: the matching expansion takes the turn
                kind, misses = EXPANSION_OF[kind], 0
            queue.append(kind)
            continue
        misses = 0
        apply_to_filtration(sim, op)
        script.append(op)
    return script


def round_trip(f, ops: list[ScriptOp]) -> list[ScriptOp]:
    """The stream followed by its inverse; checks that it ends where it began."""
    full = ops + invert_script(ops)
    sim = f.copy()
    for op in full:
        apply_to_filtration(sim, op)
    if sim.moves() != f.moves():
        raise AssertionError("round trip did not restore the start filtration")
    return full


def generate(workload: str, seed: int, size: str, out: Path) -> None:
    """Write the inputs of one workload and seed into the directory out."""
    spec = SIZES[size][workload]
    out.mkdir(parents=True, exist_ok=True)
    if workload == "sweep":
        for k in range(spec["clouds"]):
            rng = random.Random(f"sweep-{seed}-{k}")
            tr = cloud(rng, spec["points"], spec["samples"])
            (out / f"cloud_{k:03d}.csv").write_text(tr.to_csv())
        return
    f = None
    attempt = 0
    key = workload if spec.get("fixed_start") else f"{workload}-{seed}"
    while f is None:  # a cloud too small for the start length is redrawn
        rng = random.Random(f"{key}-{attempt}")
        tr = cloud(rng, spec["points"], spec["samples"])
        f = band_filtration(tr, spec["length"])
        attempt += 1
    if spec.get("fixed_start"):
        rng = random.Random(f"{workload}-{seed}-ops")
    ops = op_stream(f, spec["mix"], rng)
    (out / "cloud.csv").write_text(tr.to_csv())
    (out / "start.zz").write_text(f.to_text())
    (out / "script.txt").write_text(script_to_text(round_trip(f, ops)))


def digest(directory: Path) -> str:
    """sha256 over the names and bytes of every input file."""
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        if path.is_file():
            h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()
