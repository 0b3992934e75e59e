"""Command-line interface: barcodes, scripted updates, vineyards, benchmarks.

Exit codes: 0 success, 2 input validation error, 3 operation unsupported by
the chosen engine.
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import Counter

from . import dpc
from .errors import ContractViolation, UnsupportedOnFzzPath
from .filtration import ZigzagFiltration
from .fzz import FzzEngine, barcode_from_scratch
from .planner import script_from_text, state_from_filtration
from .rep_updates import apply_op
from .results import CREATED, DESTROYED


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _barcode_lines(barcode) -> str:
    return "\n".join(f"{dim} {b} {d}" for dim, b, d in barcode) + ("\n" if barcode else "")


def cmd_barcode(args) -> int:
    f = ZigzagFiltration.from_text(_read(args.filtration))
    bad = f.validate()
    if bad:
        for msg in bad:
            print(f"error: {msg}", file=sys.stderr)
        return 2
    sys.stdout.write(_barcode_lines(barcode_from_scratch(f)))
    return 0


def cmd_update(args) -> int:
    f = ZigzagFiltration.from_text(_read(args.filtration))
    bad = f.validate()
    if bad:
        for msg in bad:
            print(f"error: {msg}", file=sys.stderr)
        return 2
    script = script_from_text(_read(args.script))
    engines = {}
    if args.engine in ("rep", "both"):
        engines["rep"] = state_from_filtration(f)
    if args.engine in ("fzz", "both"):
        engines["fzz"] = FzzEngine(f)
    for k, sop in enumerate(script):
        print(f"op {k} {sop.text()}")
        results = {}
        for name, eng in engines.items():
            if name == "rep":
                results[name] = apply_op(eng, sop.op, sop.pos, sop.simplex)
            else:
                results[name] = eng.apply(sop.op, sop.pos, sop.simplex)
        shown = results.get("rep") or results.get("fzz")
        for old_id in sorted(shown.vines):
            new = shown.vines[old_id]
            if new == CREATED:
                print(f"vine created {old_id}")
            elif new == DESTROYED:
                print(f"vine {old_id} destroyed")
            else:
                print(f"vine {old_id} {new}")
        if args.check:
            fresh = barcode_from_scratch(next(iter(engines.values())).filtration)
            for name, eng in engines.items():
                if eng.barcode() != fresh:
                    print(f"error: {name} engine disagrees with the oracle after op {k}",
                          file=sys.stderr)
                    return 2
    barcodes = {name: eng.barcode() for name, eng in engines.items()}
    if len(set(map(tuple, barcodes.values()))) > 1:
        print("error: engines disagree on the final barcode", file=sys.stderr)
        return 2
    print("barcode")
    sys.stdout.write(_barcode_lines(next(iter(barcodes.values()))))
    return 0


def cmd_vineyard(args) -> int:
    tr = dpc.Trajectories.from_csv(_read(args.points))
    events, diagnostics = dpc.detect_events(tr, args.dim_cap)
    for swept in dpc.sweep(tr, events, args.dim_cap, args.check_every):
        sys.stdout.write(swept.band.text())
    for ev in diagnostics:
        print(f"# degenerate: {ev.kind} {ev.pairs} at t={ev.time:.6g} "
              f"delta={ev.delta:.6g} ({ev.note})", file=sys.stderr)
    return 0


def cmd_bench(args) -> int:
    if args.points:
        tr = dpc.Trajectories.from_csv(_read(args.points))
    else:
        try:
            n_points, n_times = (int(tok) for tok in args.random.split(","))
        except ValueError:
            raise ContractViolation(
                f"--random takes P,T (two integers), got {args.random!r}") from None
        rng = random.Random(args.seed)
        tr = dpc.Trajectories({
            p: [tuple(rng.uniform(0.0, 10.0) for _ in range(2))
                for _ in range(n_times)]
            for p in range(n_points)})
    counts, mlen, t_up, t_fs = bench_run(tr, args.dim_cap)
    print("fw_sw bw_sw ow_sw iw_con ow_exp MLen T_UP T_FS")
    print(f"{counts['fs']} {counts['bs']} {counts['os']} {counts['ic']} "
          f"{counts['oe']} {mlen} {t_up:.4f}s {t_fs:.4f}s")
    return 0


def bench_run(tr, dim_cap: int):
    """Time the incremental sweep against from-scratch recomputation, with
    every band checked against the oracle."""
    events, _ = dpc.detect_events(tr, dim_cap)
    counts: Counter = Counter()
    mlen = 0
    t_up = 0.0
    t_fs = 0.0
    for swept in dpc.sweep(tr, events, dim_cap, check_every=1):
        counts.update(swept.ops)
        mlen = max(mlen, swept.length)
        t_up += swept.update_s
        t_fs += swept.oracle_s
    return counts, mlen, t_up, t_fs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="zzpers",
                                     description="zigzag persistence under filtration edits")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("barcode", help="barcode of a filtration file")
    p.add_argument("filtration")
    p.set_defaults(func=cmd_barcode)

    p = sub.add_parser("update", help="apply an operation script")
    p.add_argument("filtration")
    p.add_argument("script")
    p.add_argument("--engine", choices=("rep", "fzz", "both"), default="rep")
    p.add_argument("--check", action="store_true",
                   help="verify against the from-scratch oracle after each op")
    p.set_defaults(func=cmd_update)

    p = sub.add_parser("vineyard", help="vineyard of a dynamic point cloud")
    p.add_argument("points")
    p.add_argument("--dim-cap", type=int, default=2)
    p.add_argument("--check-every", type=int, default=0)
    p.set_defaults(func=cmd_vineyard)

    p = sub.add_parser("bench", help="incremental vs from-scratch timing")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--points")
    group.add_argument("--random", metavar="P,T",
                       help="random cloud with P points over T samples")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dim-cap", type=int, default=2)
    p.set_defaults(func=cmd_bench)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnsupportedOnFzzPath as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ContractViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
