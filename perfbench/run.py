"""zzpers benchmark: one seeded run of one workload.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Generates the workload's inputs from the seed under .bench_out/, measures
them in a fresh child process (perfbench/worker.py), and prints one line
per metric followed by a JSON line with the keys correct, attempted,
failed and metrics.  --trace 0 gives the end-to-end metrics, --trace 1
the per-layer metrics of a traced pass.  Exits 1 when any output
disagrees with the oracle or the certificate, and 2 when the zzpers
sources are missing.  Run it from anywhere; paths are resolved against
the repository root (the parent of this directory).
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "rep_edits", "crosscheck")
CHILD_TIMEOUT_S = 150  # input generation plus the child stay under 180 s
DIGESTS = HERE / "digests.json"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the same code on small inputs, for tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "zzpers" / "__init__.py").is_file():
        print(f"error: no zzpers sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import inputs

    inputs_dir = ROOT / ".bench_out" / f"{args.workload}-{args.size}-seed{args.seed}"
    if inputs_dir.exists():
        shutil.rmtree(inputs_dir)
    inputs.generate(args.workload, args.seed, args.size, inputs_dir)
    digest = inputs.digest(inputs_dir)

    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(inputs_dir),
           repr(args.seconds), str(args.trace)]
    try:
        child = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                               timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: worker ran longer than {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if child.returncode != 0:
        print(f"error: worker exited with {child.returncode}", file=sys.stderr)
        return 1
    result = json.loads(child.stdout.strip().splitlines()[-1])

    info = result.pop("info")
    info.update(workload=args.workload, seed=args.seed, size=args.size,
                seconds=args.seconds, trace=args.trace, inputs_sha256=digest)
    recorded = json.loads(DIGESTS.read_text()).get(args.size, {}).get(
        f"{args.workload}/{args.seed}")
    if recorded is not None:
        info["inputs_match_recorded"] = recorded == digest
    (inputs_dir / f"result-trace{args.trace}.json").write_text(
        json.dumps(dict(result, info=info), indent=1) + "\n")

    print(f"# {args.workload} seed {args.seed}: inputs sha256 {digest}"
          + ("" if recorded is None else
             " (matches the recorded digest)" if recorded == digest else
             " (DIFFERS from the recorded digest: not the inputs of earlier runs)"))
    fail_frac = result["failed"] / max(result["attempted"], 1)
    print(f"# fail_frac {fail_frac:.6g} ({result['failed']} of {result['attempted']})")
    for name in info.get("absent", []):
        print(f"# absent: {name} (its metrics read 0)")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
