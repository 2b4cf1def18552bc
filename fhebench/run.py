"""The FHE stack's benchmark: one command per workload and seed.

    python3 fhebench/run.py --workload bootstrap --seed 1 --seconds 20
    python3 fhebench/run.py --workload serve_mixed --seed 1 --trace 1

Run from a checkout that holds ``src/repro``.  Untraced runs
(``--trace 0``) print every end-to-end metric; traced runs print every
per-layer metric and write a Chrome trace next to the native-kernel
cache under ``.bench_build/fhebench``.  The last line of standard
output is the result object; the line before it stamps the host.
``--baseline FILE`` compares with a saved run's output and refuses one
recorded under a different modmath backend.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse(argv: list[str]) -> argparse.Namespace:
    from fhebench.catalog import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", type=Path,
                        help="saved output of an earlier run to compare with")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    args = parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"fhebench: {ROOT / 'src' / 'repro'} not found; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    # The native modmath kernels build here, and traces land here: the
    # benchmark writes nothing outside its checkout.
    out_dir = ROOT / ".bench_build" / "fhebench"
    out_dir.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_NATIVE_CACHE"] = str(out_dir)

    from fhebench import bench

    if args.setup_only:
        print(bench.setup_seconds(args.workload, args.seed))
        return 0
    host = bench.host_stamp()
    try:
        baseline = (bench.load_baseline(args.baseline, host)
                    if args.baseline else None)
        result = bench.run(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    except bench.BenchmarkError as exc:
        print(f"fhebench: {exc}", file=sys.stderr)
        return 1
    if baseline is not None:
        for line in bench.compare(baseline, result["metrics"]):
            print(line)
    print(json.dumps({"host": host, "workload": args.workload,
                      "seed": args.seed, "trace": args.trace}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
