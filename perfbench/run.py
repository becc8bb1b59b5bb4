"""Run one benchmark workload and print its result as the last line of stdout.

    python3 perfbench/run.py --workload czd-L7 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: flaglp is imported from ./src, never
from an installed copy, and the command fails without printing a result
when ./src/flaglp is missing.  --trace 1 records spans and prints the
per-layer metrics instead of the end-to-end ones.  The result, with the
set-up and per-operation times and, for a traced run, the per-unit trace
tables, is also written to perfbench/out/<workload>-seed<n>-trace<0|1>.json.
"""

import os

# one thread for every BLAS/OpenMP pool; must precede the numpy import
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "flaglp", "__init__.py")):
        print(f"no flaglp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import flaglp
    if not os.path.abspath(flaglp.__file__).startswith(SRC + os.sep):
        print(f"flaglp imported from {flaglp.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import bench
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    result, details = bench.run_workload(args.workload, args.seed, args.seconds, args.trace,
                                         io_dir=f"{stem}-blocks-{os.getpid()}")
    line = json.dumps(result)
    with open(stem + ".json", "w") as fh:
        json.dump(dict(result, **details), fh, indent=1)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
