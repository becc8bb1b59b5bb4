"""Time flaglp layer by layer and write the record BENCH_<label>.json.

    PYTHONPATH=src python tools/bench_layers.py --label NAME

For each grid size L (default 7, 8 and 10; n = m = 1, the default N=3
annulus bank, input gen_corpus(grid, 1, seed=101)) the record holds one
entry per layer: bank build, analyze, the first T application on a fresh
bank (which builds the bank's operator plan), one T and one R
application, the Neumann inverse at tol 1e-8, synthesize_discrete,
g_flag, strong_maximal, cmo_norm with 64 candidates and kernel sampling
(K0 truncated at 2h).  For L <= 8 it also times two end-to-end CLI runs,
`flaglp cz-decompose --alpha 0.05` and `flaglp verify --suite roundtrip`.
Kernel validation (K0, budget 256) does not depend on L and is timed once.

best_s is the best of 3 wall times; the solve, the first T application
and the end-to-end runs are single runs.  Timed runs are untraced.  The
counts (FFT calls and points, T applications, Neumann iterations, scalar
kernel evaluations) come from one more run, traced with the spans of
perfbench/tracer.py.
"""

import os

# one thread for every BLAS/OpenMP pool, as in the benchmark; must precede numpy
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import sys
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import flaglp  # noqa: E402
import flaglp.cli  # noqa: E402
from tracer import Tracer  # noqa: E402

SCHEMA = 1
N_OFFSET = 3
SEED = 101
REPEATS = 3
CANDIDATES = 64
VALIDATION_BUDGET = 256
E2E_MAX_L = 8
CZD_ALPHA = 0.05
K0_EXPRESSION = "-i*y/(x*(x**2+y**2))"

# record field -> metric of the traced counting call
COUNTS = {
    "fft_calls": "fft.calls",
    "fft_points": "fft.points",
    "t_applications": "transform.reconstruction_apply.calls",
    "iterations": "transform.neumann_inverse.iterations",
    "kernel_evals": "kernels.kernel_evals",
}


def machine():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": 1,
    }


def measure(run, repeats, setup=lambda: None):
    """Best wall time of `repeats` calls run(setup()), and the counts of one more, traced call.

    setup runs untimed before every call, so a call can get fresh state.
    """
    times = []
    for _ in range(repeats):
        state = setup()
        start = time.perf_counter()
        run(state)
        times.append(time.perf_counter() - start)
    state = setup()
    tracer = Tracer().install(flaglp)
    tracer.unit = "counted"
    try:
        run(state)
    finally:
        tracer.unit = None
        tracer.uninstall()
    table = tracer.unit_tables().get("counted", {})
    entry = {"best_s": min(times), "runs": repeats}
    entry.update({field: int(table[name]) for field, name in COUNTS.items() if name in table})
    return entry


def layers(L, k0):
    grid = flaglp.make_grid(1, 1, L)
    bank = flaglp.build_filter_bank(grid, N=N_OFFSET)
    f = flaglp.gen_corpus(grid, 1, SEED, bank=bank)[0][0]
    coeffs = flaglp.analyze(f, bank)
    candidates = flaglp.generate_candidates(coeffs, CANDIDATES)
    flaglp.reconstruction_apply(f, bank)  # builds the operator plan of `bank`
    g = flaglp.neumann_inverse(f, bank, tol=1e-8)[0]

    def fresh_bank():
        return flaglp.build_filter_bank(grid, N=N_OFFSET)

    return {
        "bank_build": measure(lambda _: fresh_bank(), REPEATS),
        "analyze": measure(lambda _: flaglp.analyze(f, bank), REPEATS),
        "first_t_application": measure(lambda fresh: flaglp.reconstruction_apply(f, fresh), 1,
                                       setup=fresh_bank),
        "t_application": measure(lambda _: flaglp.reconstruction_apply(f, bank), REPEATS),
        "r_application": measure(lambda _: flaglp.remainder_apply(f, bank), REPEATS),
        "neumann_inverse": measure(lambda _: flaglp.neumann_inverse(f, bank, tol=1e-8), 1),
        "synthesize_discrete": measure(
            lambda _: flaglp.synthesize_discrete(flaglp.analyze(g, bank)), REPEATS),
        "g_flag": measure(lambda _: flaglp.g_flag(f, bank), REPEATS),
        "strong_maximal": measure(lambda _: flaglp.strong_maximal(f), REPEATS),
        "cmo_norm": measure(lambda _: flaglp.cmo_norm(f, bank, 1.0, candidates), REPEATS),
        "kernel_sampling": measure(
            lambda _: flaglp.kernels.sample_truncated_kernel(k0, grid, 2 * grid.spacing), REPEATS),
    }


def end_to_end(L, workdir):
    """Single timed runs of two CLI commands; a nonzero exit is an error."""
    grid = flaglp.make_grid(1, 1, L)
    bank = flaglp.build_filter_bank(grid, N=N_OFFSET)
    source = os.path.join(workdir, f"corpus-L{L}.bin")
    flaglp.write_block(source, flaglp.gen_corpus(grid, 1, SEED, bank=bank)[0][0])
    commands = {
        "cz_decompose": ["cz-decompose", source, "--alpha", str(CZD_ALPHA)],
        "verify_roundtrip": ["verify", "--suite", "roundtrip", "--L", str(L)],
    }
    out = {}
    for name, argv in commands.items():
        def run(_, argv=argv + ["--out", os.path.join(workdir, f"{name}-L{L}")]):
            code = flaglp.cli.main(argv)
            if code != 0:
                raise SystemExit(f"flaglp {' '.join(argv)} exited {code}")

        out[name] = measure(run, 1)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="record name: writes BENCH_<label>.json")
    parser.add_argument("--L", type=int, nargs="+", default=[7, 8, 10], help="grid sizes")
    parser.add_argument("--out", default=".", help="directory of the record (default: .)")
    args = parser.parse_args(argv)

    k0 = flaglp.custom_kernel(K0_EXPRESSION, "flag")
    record = {
        "schema": SCHEMA,
        "label": args.label,
        "machine": machine(),
        "input": {"n": 1, "m": 1, "N": N_OFFSET, "seed": SEED, "repeats": REPEATS,
                  "candidates": CANDIDATES, "validation_budget": VALIDATION_BUDGET,
                  "cz_alpha": CZD_ALPHA},
        "layers": {},
        "end_to_end": {},
    }
    with tempfile.TemporaryDirectory() as workdir:
        for L in args.L:
            record["layers"][str(L)] = layers(L, k0)
            if L <= E2E_MAX_L:
                record["end_to_end"][str(L)] = end_to_end(L, workdir)
    record["kernel_validation"] = measure(
        lambda _: flaglp.validate_flag_kernel(k0, VALIDATION_BUDGET), REPEATS)
    path = os.path.join(args.out, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
