"""One benchmark run in a fresh process: set up, measure, verify, report.

    python3 perfbench/worker.py WORKLOAD INPUT_DIR SECONDS TRACE

Prints one JSON object as its last line.  run.py starts it once per run, so
peak memory (`ru_maxrss`) belongs to this run alone.

Untraced (TRACE 0): whole passes over the inputs until SECONDS of measured
wall time have passed, then the end-to-end metrics.  Those are timed in the
process's CPU time, so time the host gives to other processes is not
counted; the program is single-threaded and does no I/O while timed.  CPU
time still runs slower while the host is busy, so every timing is scaled to
a nominal host speed read from a fixed piece of reference work run between
the timed calls (`HostSpeed`).
Traced (TRACE 1): one pass untraced, then the same pass with every layer
wrapped, then the per-layer metrics and the trace overhead.  Checks against the oracle and the
certificate run outside the timed regions, except crosscheck's per-op
comparison, which is the work that workload measures.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable

SRC = str(Path(__file__).resolve().parents[1] / "src")
sys.path.insert(0, SRC)
from zzpers import dpc, fzz, planner, rep_updates  # noqa: E402
from zzpers.filtration import ZigzagFiltration  # noqa: E402

from tracer import Tracer, resolve  # noqa: E402

clock = time.perf_counter  # wall: when to stop, and the trace
cpu = time.process_time    # what the end-to-end timings report
DIM_CAP = 2
CHECK_EVERY = 10000     # rep_edits ops between certificate checkpoints
TRACE_TOLERANCE = 0.05  # layer spans must cover the traced wall clock to 5%
OPS8 = ("fs", "bs", "os", "is", "oe", "ie", "oc", "ic")
OPS6 = ("fs", "bs", "os", "is", "ie", "ic")
BAND_END = "zzpers.rep_updates.PersistenceState.barcode"  # last call of each band
PROBE_EVERY = 0.2       # CPU seconds of timed work between host speed probes
REF_NOMINAL_S = 0.0100  # CPU seconds of reference_work() at nominal host speed

# metric prefix, dotted name of the wrapped function, argument that splits
# the span by op kind.  Each is wrapped where its callers look it up.
LAYERS = (
    ("dpc.vineyard", "zzpers.dpc.vineyard", None),
    ("dpc.detect_events", "zzpers.dpc.detect_events", None),
    ("dpc.canonical_layout", "zzpers.dpc.canonical_layout", None),
    ("dpc.compile_event", "zzpers.dpc.compile_event", None),
    ("planner.apply_to_filtration", "zzpers.planner.apply_to_filtration", None),
    ("planner.transform", "zzpers.planner.transform", None),
    ("planner.state_from_filtration", "zzpers.planner.state_from_filtration", None),
    ("rep_updates.apply_op", "zzpers.rep_updates.apply_op", 1),
    ("rep_updates.PersistenceState.barcode",
     "zzpers.rep_updates.PersistenceState.barcode", None),
    ("rep_updates.check_certificate",
     "zzpers.rep_updates.PersistenceState.check_certificate", None),
    ("filtration.complex_at", "zzpers.filtration.ZigzagFiltration.complex_at", None),
    ("chains.has_cofaces", "zzpers.chains.SimplicialComplex.has_cofaces", None),
    ("fzz.FzzEngine.apply", "zzpers.fzz.FzzEngine.apply", 1),
    ("fzz.FzzEngine.barcode", "zzpers.fzz.FzzEngine.barcode", None),
    ("fzz.barcode_from_scratch", "zzpers.fzz.barcode_from_scratch", None),
    ("fzz.convert", "zzpers.fzz.convert", None),
    ("fzz.reduce", "zzpers.fzz.reduce", None),
    ("fzz.map_intervals", "zzpers.fzz.map_intervals", None),
)


# The traced run's metrics, grouped by the end-to-end metric each should
# move (see README.md).  A layer that does not run on a workload reads 0.
PER_LAYER = (
    # sweep: ops_per_s and op latency
    "dpc.canonical_layout.s", "dpc.canonical_layout.n",
    "dpc.compile_event.s", "dpc.compile_event.n",
    "planner.apply_to_filtration.s", "planner.apply_to_filtration.n",
    "dpc.detect_events.s", "dpc.vineyard.self_s",
    "rep_updates.PersistenceState.barcode.s", "rep_updates.PersistenceState.barcode.n",
    "dpc.bands.n", "dpc.max_len",
    "planner.transform.s", "planner.transform.n", "dpc.direct_frac",
    # rep_edits: ops_per_s and op_p99_us; sweep: ops_per_s
    *(f"rep_updates.apply_op.{op}.{x}" for op in OPS8 for x in "sn"),
    # rep_edits, crosscheck: setup_s
    "planner.state_from_filtration.s",
    # sweep, rep_edits: peak_rss_mb
    "reps.ChainStore.size", "reps.ChainStore.merge_count", "dpc.stored_bars.n",
    # rep_edits, crosscheck: op_p99_us, through expansions
    "filtration.complex_at.s", "filtration.complex_at.n",
    "chains.has_cofaces.s", "chains.has_cofaces.n",
    # crosscheck only: ops_per_s and op latency
    *(f"fzz.FzzEngine.apply.{op}.{x}" for op in OPS6 for x in "sn"),
    "fzz.transpositions.n", "fzz.FzzEngine.barcode.s",
    "fzz.barcode_from_scratch.s", "fzz.barcode_from_scratch.n",
    "fzz.convert.s", "fzz.reduce.s", "fzz.map_intervals.s",
    # verification cost, outside every timed region
    "rep_updates.check_certificate.s",
    # the trace itself
    "trace.overhead", "trace.coverage",
)


def unit_of(name: str) -> str:
    if name.endswith((".s", "self_s")):
        return "s"
    if name.endswith(("frac", "overhead", "coverage")):
        return "ratio"
    return "count"


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


_REF = random.Random(7)
_REF_SIMPLICES = [tuple(sorted(_REF.sample(range(40), 3))) for _ in range(400)]
_REF_COLUMNS = [sum(1 << _REF.randrange(700) for _ in range(6)) for _ in range(640)]


def reference_work() -> int:
    """A fixed piece of pure-Python work like the program's own that uses
    nothing of zzpers, so no change to the program changes its cost: the
    rep engine's kind (tuples in frozensets, symmetric differences,
    interning in a dict, sorting) and the FZZ engine's and the oracle's
    kind (reducing columns held as big integers by XOR)."""
    pool: dict = {}
    cur: frozenset = frozenset()
    acc = 0
    for i in range(300):
        cur = cur ^ frozenset(_REF_SIMPLICES[(i * 7 + j) % 400] for j in range(i % 13 + 2))
        pool.setdefault(cur, len(pool))
        if i % 50 == 0:
            acc += len(sorted(cur))
    pivots: dict = {}
    for col in _REF_COLUMNS:
        while col:
            other = pivots.get(col.bit_length())
            if other is None:
                pivots[col.bit_length()] = col
                break
            col ^= other
            acc += 1
    return acc + len(pool)


class HostSpeed:
    """How fast the host runs right now, from the CPU time of reference_work().

    On a shared host CPU time itself stretches while other tenants load the
    same cores, for phases of seconds to minutes.  Probes run between timed
    calls, outside every timed region, and each takes about 2 x 10 ms.  The
    work between two probes is one chunk, and a chunk's CPU time is scaled
    by REF_NOMINAL_S over the median of the probes around it, so timings
    read as at a nominal host speed."""

    def __init__(self):
        self.probes: list[float] = []

    def probe(self) -> float:
        """Times reference_work() after one untimed call that warms the
        caches, with the collector off, so that the program's heap and
        cache footprint do not change what the probe reads."""
        gc.disable()
        try:
            reference_work()
            c = cpu()
            reference_work()
            self.probes.append(cpu() - c)
        finally:
            gc.enable()
        return self.probes[-1]

    def scales(self, chunks: int) -> list[float]:
        """Scale of chunk i, which ran between probes i and i + 1."""
        return [REF_NOMINAL_S / statistics.median(self.probes[max(0, i - 1):i + 3])
                for i in range(chunks)]


class Measured:
    """What one measuring call produced."""

    def __init__(self, speed: HostSpeed | None = None):
        self.units = 0          # ops, or bands for the sweep
        self.busy = 0.0         # wall seconds inside timed regions
        self.cpu = 0.0          # CPU seconds inside timed regions
        self.samples: list[float] = []  # CPU seconds of each op, or of each band
        self.chunk_cpu: list[float] = []  # CPU seconds of timed work per chunk
        self.chunk_of: list[int] = []     # the chunk of each sample
        self.speed = speed
        self.attempted = 0
        self.failed = 0
        self.rss_mb = 0.0       # peak RSS after the first whole pass
        self.info: dict = {}

    def between_calls(self) -> None:
        """Outside the timed regions: start a new chunk, with a speed probe,
        once PROBE_EVERY CPU seconds of work went into the current one."""
        if not self.chunk_cpu or self.chunk_cpu[-1] >= PROBE_EVERY:
            if self.speed:
                self.speed.probe()
            self.chunk_cpu.append(0.0)

    def record(self, dc: float, samples: list[float]) -> None:
        """One timed call of dc CPU seconds, with the samples it produced."""
        self.cpu += dc
        self.chunk_cpu[-1] += dc
        self.samples.extend(samples)
        self.chunk_of.extend([len(self.chunk_cpu) - 1] * len(samples))

    def finish(self) -> None:
        if self.speed:
            self.speed.probe()  # closes the last chunk

    def scaled(self) -> tuple[float, list[float]]:
        """CPU seconds and samples scaled to the nominal host speed."""
        scale = self.speed.scales(len(self.chunk_cpu))
        return (sum(c * k for c, k in zip(self.chunk_cpu, scale)),
                [s * scale[i] for s, i in zip(self.samples, self.chunk_of)])


# ----------------------------------------------------------------------
# workloads


class Sweep:
    """dpc.vineyard on each cloud in turn; one op is one band."""

    def __init__(self, inputs: Path):
        self.texts = [p.read_text() for p in sorted(inputs.glob("cloud_*.csv"))]
        self.captured: list = []

    def setup(self) -> None:
        self.clouds = [dpc.Trajectories.from_csv(t).positions for t in self.texts]

    def run(self, seconds: float, tracer: Tracer | None = None,
            between: Callable[[], None] | None = None,
            speed: HostSpeed | None = None) -> Measured:
        out = Measured(speed)
        self.digests: dict[int, list[str]] = {}
        self.bands: dict[int, int] = {}
        self.stored_bars = 0
        self.max_len = 0
        stamps: list[float] = []
        # untraced, each band's snapshot ends with state.barcode(): stamp its
        # return, so a band's latency is the time since the previous one
        found = None if tracer else resolve(BAND_END)
        if found:
            owner, attr, real = found

            def stamped(state):
                bars = real(state)
                stamps.append(cpu())
                return bars
            setattr(owner, attr, stamped)
        k = 0
        try:
            while not k or k % len(self.clouds) or out.busy < seconds:
                if between and k and not k % len(self.clouds):
                    between()
                i = k % len(self.clouds)
                tr = dpc.Trajectories(self.clouds[i])  # no curve cache from earlier sweeps
                out.between_calls()
                stamps.clear()
                c = cpu()
                t = clock()
                unit = tracer.begin("bench.unit") if tracer else None
                try:
                    vy = dpc.vineyard(tr, dim_cap=DIM_CAP)
                except Exception:  # a sweep that raises fails; the next cloud still runs
                    traceback.print_exc()
                    vy = None
                if tracer:
                    tracer.finish(unit)
                out.busy += clock() - t
                dc = cpu() - c
                k += 1
                if vy is None:
                    out.record(dc, [])
                    out.attempted += 1
                    out.failed += 1
                    continue
                n = len(vy.bands)
                out.units += n
                if len(stamps) == n:
                    out.record(dc, [b - a for a, b in zip([c] + stamps, stamps)])
                else:  # the stamp point is gone: fall back to the sweep's mean
                    out.record(dc, [dc / n] * n)
                    out.info["band_timing"] = "mean per sweep"
                self.bands[i] = n
                self.digests.setdefault(i, []).append(
                    hashlib.sha256(vy.to_text().encode()).hexdigest())
                bars = [len(b.barcode) for b in vy.bands]
                self.stored_bars = max(self.stored_bars, sum(bars))
                self.max_len = max(self.max_len, 2 * max(bars))
                del vy
        finally:
            if found:
                setattr(owner, attr, real)
        out.finish()
        out.rss_mb = peak_rss_mb()
        out.info.update(sweeps=k, clouds=len(self.clouds))
        return out

    def verify(self, out: Measured) -> None:
        """One vineyard(check_every=1) pass per cloud: every band against the
        oracle, then every timed sweep byte for byte against that pass."""
        for i, digests in self.digests.items():
            try:
                ref = dpc.vineyard(dpc.Trajectories(self.clouds[i]), dim_cap=DIM_CAP,
                                   check_every=1)
                want = hashlib.sha256(ref.to_text().encode()).hexdigest()
            except Exception:  # a wrong band raises; count its sweeps as failed
                traceback.print_exc()
                want = None
            out.attempted += self.bands[i] * len(digests)
            out.failed += self.bands[i] * sum(d != want for d in digests)

    def layer_counts(self, tracer_stats: dict) -> dict:
        transforms = tracer_stats.get("planner.transform", (0.0, 0))[1]
        events = sum(self.bands[i] - 1 for i in self.bands)
        sizes = [len(s.store) for s in self.captured]
        return {
            "dpc.bands.n": sum(self.bands.values()),
            "dpc.max_len": self.max_len,
            "dpc.stored_bars.n": self.stored_bars,
            "dpc.direct_frac": 1.0 - transforms / events if events else 0.0,
            "reps.ChainStore.size": max(sizes, default=0),
            "reps.ChainStore.merge_count": sum(s.store.merge_count for s in self.captured),
        }

    def hooks(self) -> dict:
        # the sweep builds its state inside vineyard; keep it to read the store
        return {"planner.state_from_filtration": self.captured.append}


class OpStream:
    """Base for the two op workloads: a start filtration and a round-trip
    script; one pass applies the whole script and ends where it began."""

    def __init__(self, inputs: Path):
        self.f_text = (inputs / "start.zz").read_text()
        self.s_text = (inputs / "script.txt").read_text()

    def setup(self) -> None:
        # drop the previous state first, so peak memory holds one state
        self.f = self.script = self.state = None
        self.f = ZigzagFiltration.from_text(self.f_text)
        self.script = planner.script_from_text(self.s_text)
        self.state = planner.state_from_filtration(self.f)

    def run(self, seconds: float, tracer: Tracer | None = None,
            between: Callable[[], None] | None = None,
            speed: HostSpeed | None = None) -> Measured:
        out = Measured(speed)
        self.merges_before = self.state.store.merge_count
        passes = 0
        try:
            while passes == 0 or out.busy < seconds:
                if between and passes:
                    between()
                self.one_pass(out, tracer)
                passes += 1
                if passes == 1:
                    out.rss_mb = peak_rss_mb()
        except Exception:  # the state is unreliable after a raise: stop here
            traceback.print_exc()
            out.attempted += 1
            out.failed += 1
        out.finish()
        if not out.rss_mb:
            out.rss_mb = peak_rss_mb()
        out.info = {"passes": passes, "start_len": len(self.f.steps),
                    "script_ops": len(self.script)}
        return out

    def verify(self, out: Measured) -> None:
        pass  # checks run inside run(), outside the timed regions

    def layer_counts(self, tracer_stats: dict) -> dict:
        return {
            "reps.ChainStore.size": len(self.state.store),
            "reps.ChainStore.merge_count": self.state.store.merge_count - self.merges_before,
        }

    def hooks(self) -> dict:
        return {}


class RepEdits(OpStream):
    """apply_op under a long stream of all eight ops at a fixed length."""

    def one_pass(self, out: Measured, tracer: Tracer | None) -> None:
        state = self.state
        since_check = 0
        for j, sop in enumerate(self.script):
            out.between_calls()
            c = cpu()
            t = clock()
            unit = tracer.begin("bench.unit") if tracer else None
            rep_updates.apply_op(state, sop.op, sop.pos, sop.simplex)
            if tracer:
                tracer.finish(unit)
            out.busy += clock() - t
            dc = cpu() - c
            out.record(dc, [dc])
            out.units += 1
            out.attempted += 1
            since_check += 1
            if since_check == CHECK_EVERY or j == len(self.script) - 1:
                if not self.certified():
                    out.failed += since_check
                since_check = 0

    def certified(self) -> bool:
        return (not self.state.check_certificate()
                and self.state.barcode() == fzz.barcode_from_scratch(self.state.filtration))


class Crosscheck(OpStream):
    """`zzpers update --engine both --check`: each op through the rep engine,
    then the FZZ engine, then both barcodes against the oracle."""

    def __init__(self, inputs: Path):
        super().__init__(inputs)
        self.transpositions = 0

    def setup(self) -> None:
        self.engine = None
        super().setup()
        self.engine = fzz.FzzEngine(self.f)

    def one_pass(self, out: Measured, tracer: Tracer | None) -> None:
        state, engine = self.state, self.engine
        for sop in self.script:
            out.between_calls()
            c = cpu()
            t = clock()
            unit = tracer.begin("bench.unit") if tracer else None
            rep_updates.apply_op(state, sop.op, sop.pos, sop.simplex)
            engine.apply(sop.op, sop.pos, sop.simplex)
            fresh = fzz.barcode_from_scratch(state.filtration)
            ok = state.barcode() == fresh and engine.barcode() == fresh
            if tracer:
                tracer.finish(unit)
            out.busy += clock() - t
            dc = cpu() - c
            out.record(dc, [dc])
            out.units += 1
            out.attempted += 1
            out.failed += not ok

    def hooks(self) -> dict:
        def count(result) -> None:
            self.transpositions += result.stats.get("transpositions", 0)
        return {"fzz.FzzEngine.apply": count}

    def layer_counts(self, tracer_stats: dict) -> dict:
        return dict(super().layer_counts(tracer_stats),
                    **{"fzz.transpositions.n": self.transpositions})


WORKLOADS = {"sweep": Sweep, "rep_edits": RepEdits, "crosscheck": Crosscheck}


# ----------------------------------------------------------------------
# measuring


IMPORT_PROBE = ("import sys, time; sys.path.insert(0, {src!r}); c = time.process_time(); "
                "import zzpers.dpc, zzpers.fzz, zzpers.planner, zzpers.rep_updates; "
                "print(time.process_time() - c)")


def timed_setup(wl) -> tuple[float, float]:
    """CPU time of importing the package in a fresh interpreter plus that of
    one set-up of the workload (parsing and initial state): scaled to the
    nominal host speed by a speed probe before and one after, and raw."""
    speed = HostSpeed()
    speed.probe()
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE.format(src=SRC)],
                           capture_output=True, text=True, check=True)
    c = cpu()
    wl.setup()
    raw = float(probe.stdout) + cpu() - c
    speed.probe()
    return raw * speed.scales(1)[0], raw


def untraced(wl, seconds: float) -> dict:
    """Set-up is timed before the first pass, between passes and after the
    last, so its repetitions sample the host across the whole run;
    setup_s is their median."""
    speed = HostSpeed()
    setups = [timed_setup(wl)]
    out = wl.run(seconds, between=lambda: setups.append(timed_setup(wl)), speed=speed)
    setups.append(timed_setup(wl))
    wl.verify(out)
    cpu_s, samples = out.scaled()
    metrics = {
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        "peak_rss_mb": (out.rss_mb, "MB"),
        "ops_per_s": (out.units / cpu_s, "1/s"),
        "op_p50_us": (percentile(samples, 50) * 1e6, "us"),
        "op_p99_us": (percentile(samples, 99) * 1e6, "us"),
    }
    out.info.update(units=out.units, cpu_s=cpu_s, raw_cpu_s=out.cpu, busy_s=out.busy,
                    ops_per_raw_cpu_s=out.units / out.cpu,
                    ops_per_wall_s=out.units / out.busy, samples=len(samples),
                    raw_op_p50_us=percentile(out.samples, 50) * 1e6,
                    raw_op_p99_us=percentile(out.samples, 99) * 1e6,
                    setups_s=[s for s, _ in setups], raw_setups_s=[r for _, r in setups],
                    speed_probes=len(speed.probes),
                    speed_probe_s=[min(speed.probes), statistics.median(speed.probes),
                                   max(speed.probes)],
                    fail_frac=out.failed / max(out.attempted, 1))
    return report(out, metrics)


def traced(wl, spans_path: Path | None) -> dict:
    """One pass untraced, then a fresh set-up and the same pass traced, then
    the pass untraced again; the faster untraced pass is the base of the
    trace overhead, so cold caches in the first pass do not hide it."""
    wl.setup()
    first = wl.run(0)
    tracer = Tracer()
    hooks = wl.hooks()
    for name, dotted, split in LAYERS:
        tracer.wrap(dotted, name, split, on_return=hooks.get(name))
    try:
        setup_span = tracer.begin("bench.setup")
        wl.setup()
        tracer.finish(setup_span)
        out = wl.run(0, tracer)
    finally:
        tracer.uninstall()
    wl.verify(out)
    if spans_path is not None:
        tracer.dump(spans_path)

    roots = tracer.roots()
    units = {i for i, sp in enumerate(tracer.spans) if sp[0] == "bench.unit"}
    inside = [i for i, r in enumerate(roots) if r in units and i != r]
    stats = tracer.self_times(inside)
    unit_wall = sum(tracer.spans[u][2] - tracer.spans[u][1] for u in units)
    covered = sum(tracer.spans[i][2] - tracer.spans[i][1]
                  for i in inside if tracer.spans[i][3] in units)

    def whole(name: str) -> float:
        """Inclusive seconds of every call, in set-up, work or checks."""
        return sum(end - start for n, start, end, _ in tracer.spans if n == name)

    values: dict[str, float] = {}
    for label, (seconds, calls) in stats.items():
        values[label + ".s"] = seconds
        values[label + ".n"] = calls
    values["dpc.vineyard.self_s"] = values.get("dpc.vineyard.s", 0.0)
    for name in ("planner.state_from_filtration", "rep_updates.check_certificate"):
        values[name + ".s"] = whole(name)
    values.update(wl.layer_counts(stats))
    base = min(first.busy, wl.run(0).busy)
    values["trace.overhead"] = unit_wall / base if base else 0.0
    values["trace.coverage"] = covered / unit_wall if unit_wall else 0.0
    metrics = {name: (values.get(name, 0), unit_of(name)) for name in PER_LAYER}
    out.info.update(absent=tracer.absent, spans=len(tracer.spans),
                    traced_wall_s=unit_wall, untraced_wall_s=base,
                    tolerance=TRACE_TOLERANCE)
    result = report(out, metrics)
    if abs(1.0 - values["trace.coverage"]) > TRACE_TOLERANCE:
        print(f"error: layer spans cover {values['trace.coverage']:.4f} of the traced "
              f"wall clock, outside 1 +- {TRACE_TOLERANCE}", file=sys.stderr)
        result["correct"] = False
    return result


def report(out: Measured, metrics: dict) -> dict:
    return {
        "correct": out.failed == 0 and out.attempted > 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": out.info,
    }


def main(argv: list[str]) -> int:
    workload, inputs, seconds, trace = argv[0], Path(argv[1]), float(argv[2]), argv[3] == "1"
    wl = WORKLOADS[workload](inputs)
    if trace:
        result = traced(wl, inputs / "spans.jsonl")
    else:
        result = untraced(wl, seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
