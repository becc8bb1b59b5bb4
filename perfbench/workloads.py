"""The benchmark's three workloads: inputs from a seed, and one round of operations.

A workload's set-up builds everything an operation reads (grid, filter bank,
corpus, kernels) and passes the corpus through the binary block format
once.  A round is a fixed list of operations; each operation calls public
flaglp functions only and is paired with an untimed check of its outputs.
"""

import os
import shutil
from dataclasses import dataclass
from typing import Callable

import numpy as np

import flaglp
import checks

N_OFFSET = 3
# One round of czd-L7 or companions-L9 takes about 28 s at the reference
# speed, so a 40 s run holds exactly one round even on a host 30% faster,
# and a run stays under a minute on a host 20% slower.  czd-L7 needs many
# functions because its cost depends on the function (33-57 Neumann
# iterations): with four per round the seed-to-seed spread of ops_per_s
# was near 10%.  companions-L9 costs about the same for every function.
CZD_CORPUS = 24
COMPANIONS_CORPUS = 6
# the sample budget of `flaglp kernel validate`
VALIDATION_BUDGET = 2048
CANDIDATE_BUDGET = 64
K0_EXPRESSION = "-i*y/(x*(x**2+y**2))"


@dataclass
class Op:
    label: str
    run: Callable[[], dict]
    check: Callable[[dict], list]


def _corpus_through_blocks(grid, bank, seed, count, io_dir):
    """Generate the corpus, write each function as a block and read it back.

    Returns the read-back functions and whether they equal the generated
    ones bit for bit; the generated copies are not kept.
    """
    functions, _ = flaglp.gen_corpus(grid, count, seed, bank=bank, N=N_OFFSET)
    os.makedirs(io_dir, exist_ok=True)
    read = []
    try:
        for index, f in enumerate(functions):
            path = os.path.join(io_dir, f"corpus-{index}.blk")
            flaglp.write_block(path, f)
            read.append(flaglp.read_block(path))
    finally:
        shutil.rmtree(io_dir, ignore_errors=True)
    return read, blocks_identical(functions, read)


def blocks_identical(written, read):
    return all(a.values.tobytes() == b.values.tobytes() for a, b in zip(written, read))


# -- czd-L7 -------------------------------------------------------------------


def alpha_for(f, bank):
    """A tenth of the peak of f's discrete square function.

    The level sets of cz_decompose are {S > alpha 2^l}, so a threshold tied
    to f's own peak gives every corpus function several level sets; a flat
    threshold leaves some functions with none.
    """
    peak = float(np.max(flaglp.g_flag_discrete(flaglp.analyze(f, bank)).values.real))
    return peak / 10.0


def czd_setup(seed, L, io_dir):
    grid = flaglp.make_grid(1, 1, L)
    bank = flaglp.build_filter_bank(grid, N=N_OFFSET)
    corpus, identical = _corpus_through_blocks(grid, bank, seed, CZD_CORPUS, io_dir)
    alphas = [alpha_for(f, bank) for f in corpus]
    return {"bank": bank, "corpus": corpus, "blocks_identical": identical, "alphas": alphas}


def czd_round(state):
    bank = state["bank"]

    def run(f, alpha):
        g, b, report = flaglp.cz_decompose(f, bank, alpha)
        violations = flaglp.support_violations(report, bank)
        return {"g": g, "b": b, "report": report, "violations": violations}

    return [Op(f"cz_decompose[{i}]",
               lambda f=f, a=a: run(f, a),
               lambda out, f=f: checks.check_czd(f, out))
            for i, (f, a) in enumerate(zip(state["corpus"], state["alphas"]))]


# -- companions-L9 ------------------------------------------------------------


def companions_setup(seed, L, io_dir):
    grid = flaglp.make_grid(1, 1, L)
    bank = flaglp.build_filter_bank(grid, N=N_OFFSET)
    corpus, identical = _corpus_through_blocks(grid, bank, seed, COMPANIONS_CORPUS, io_dir)
    return {"bank": bank, "corpus": corpus, "blocks_identical": identical}


def analyze_slot_keys(bank):
    """Coarsest, middle and finest live anchored channels."""
    live = [(j, k) for j, k in bank.scales
            if j < bank.j_range[1] and np.any(checks.channel_filter(bank, j, k))]
    return sorted({live[0], live[len(live) // 2], live[-1]})


def companions_round(state):
    bank = state["bank"]
    keys = analyze_slot_keys(bank)

    def run(f):
        coeffs = flaglp.analyze(f, bank)
        out = {"coeffs": coeffs, "budget": CANDIDATE_BUDGET}
        out["g_flag"] = flaglp.g_flag(f, bank).values
        out["hardy_norm"] = flaglp.hardy_norm(f, bank, 1.0)
        candidates = flaglp.generate_candidates(coeffs, CANDIDATE_BUDGET)
        out["candidates"] = candidates
        out["cmo_norm"] = flaglp.cmo_norm(f, bank, 1.0, candidates=candidates)
        out["cp_norm"] = flaglp.cp_norm(coeffs, 1.0, candidates)
        out["sp_norm"] = flaglp.sp_norm(coeffs, 1.0)
        out["strong_maximal"] = flaglp.strong_maximal(f).values
        out["hl_maximal"] = flaglp.hl_maximal(f).values
        return out

    return [Op(f"companions[{i}]",
               lambda f=f: run(f),
               lambda out, f=f: checks.check_companions(f, bank, out, keys))
            for i, f in enumerate(state["corpus"])]


# -- kernels-L8 ---------------------------------------------------------------


def kernels_setup(seed, L, io_dir):
    grid = flaglp.make_grid(1, 1, L)
    bank = flaglp.build_filter_bank(grid, N=N_OFFSET)
    corpus, identical = _corpus_through_blocks(grid, bank, seed, 1, io_dir)
    kernels = {
        "k2-flag": flaglp.builtin_kernel("k2-flag"),
        "k0": flaglp.custom_kernel(K0_EXPRESSION, "flag"),
        "k1-product": flaglp.builtin_kernel("k1-product"),
    }
    return {"grid": grid, "corpus": corpus, "blocks_identical": identical, "kernels": kernels}


def kernels_round(state):
    grid, kernels = state["grid"], state["kernels"]
    f = state["corpus"][0]
    h = grid.spacing
    # k2-flag's flag verdict is timed but not asserted: certification does
    # not test the joint cancellation condition that k2-flag breaks
    ops = [
        Op("validate_flag_kernel[k2-flag]",
           lambda: {"report": flaglp.validate_flag_kernel(kernels["k2-flag"], VALIDATION_BUDGET)},
           lambda out: checks.check_validation(out["report"], "k2-flag", "flag", False)),
        Op("validate_flag_kernel[k0]",
           lambda: {"report": flaglp.validate_flag_kernel(kernels["k0"], VALIDATION_BUDGET)},
           lambda out: checks.check_validation(out["report"], "custom", "flag", True)),
        Op("validate_product_kernel[k1-product]",
           lambda: {"report": flaglp.validate_product_kernel(kernels["k1-product"], VALIDATION_BUDGET)},
           lambda out: checks.check_validation(out["report"], "k1-product", "product", True)),
    ]
    for name in ("k2-flag", "k0"):
        for eps in (4 * h, 2 * h, h):
            ops.append(Op(
                f"convolution_operator_norm[{name},{eps / h:g}h]",
                lambda name=name, eps=eps: {
                    "norm": flaglp.convolution_operator_norm(kernels[name], grid, eps)},
                lambda out, name=name, eps=eps: checks.check_operator_norm(
                    name, grid, eps, out["norm"])))
    eps = 2 * h
    ops.append(Op("flag_convolve[k0,2h]",
                  lambda: {"values": flaglp.flag_convolve(f, kernels["k0"], eps).values},
                  lambda out: checks.check_flag_convolve("k0", f, eps, out["values"])))
    ops.append(Op("majorant_check[k0,2h]",
                  lambda: {"report": flaglp.majorant_check(f, kernels["k0"], eps)},
                  lambda out: checks.check_majorant("k0", f, eps, out["report"])))
    return ops


@dataclass(frozen=True)
class Workload:
    L: int
    setup: Callable
    round: Callable


WORKLOADS = {
    "czd-L7": Workload(7, czd_setup, czd_round),
    "companions-L9": Workload(9, companions_setup, companions_round),
    "kernels-L8": Workload(8, kernels_setup, kernels_round),
}
