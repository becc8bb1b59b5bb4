"""Batch command-line front end.

Every subcommand reads sampled functions in the binary block format,
runs one library operation, writes its binary artifacts into `--out` and
returns the fields of its report.  One runner, `run`, writes every
report: it creates `--out`, prefixes the fields with the command, the
library version, the resolved configuration and the grid and bank, and
writes `<subcommand>.json` (`manifest.json` for `gen-corpus`).  Floats
are printed with 17 significant digits and key order is fixed, so
identical invocations produce identical bytes.

Exit codes: 0 success; 1 a failed validation (`kernel validate` or
`verify` reports `passes` false) or a failed computation (divergence,
no convergence, a kernel or quadrature failure); 2 a usage or input
error, including an option value outside its domain.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .blockio import read_block, write_block
from .carleson import cmo_norm, generate_candidates
from .corpus import gen_corpus
from .czd import cz_decompose, support_violations
from .errors import (ConfigurationError, DomainError, FlagLPError, KernelError,
                     RangeError, ResolutionError, ShapeMismatchError,
                     TruncationError)
from .filters import (DEFAULT_OFFSET, FilterProfile, _partition_residual,
                      bank_from_config, build_filter_bank)
from .grid import SampledFunction, lp_norm, make_grid
from .kernels import (VALIDATION_BUDGET, builtin_kernel, convolution_operator_norm,
                      custom_kernel, flag_convolve, project_to_flag,
                      validate_flag_kernel, validate_product_kernel)
from .maximal import hl_maximal, strong_maximal
from .squarefuncs import g_flag, hardy_norm
from .transform import (CoefficientField, analyze, estimate_remainder_norm,
                        low_pass_apply, neumann_inverse, synthesize_discrete)

# errors that exit 2: bad input files and option values outside their
# domain; every other library error is a failed computation and exits 1
USAGE_ERRORS = (OSError, ConfigurationError, DomainError, RangeError,
                ResolutionError, ShapeMismatchError, TruncationError)


def _format_float(x):
    if x != x:
        return "NaN"
    if x in (float("inf"), float("-inf")):
        return '"%s"' % ("Infinity" if x > 0 else "-Infinity")
    return "%.17g" % x


def _format_key(key):
    return ",".join(map(str, key)) if isinstance(key, tuple) else str(key)


def dump_json(obj, indent=0):
    """JSON emitter with insertion-ordered keys and %.17g floats.

    A tuple key (a, b) is written as "a,b".
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join("%s%s: %s" % (inner, json.dumps(_format_key(k)),
                                         dump_json(v, indent + 1))
                           for k, v in obj.items())
        return "{\n%s\n%s}" % (items, pad)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(inner + dump_json(v, indent + 1) for v in obj)
        return "[\n%s\n%s]" % (items, pad)
    if isinstance(obj, (bool, np.bool_)) or obj is None:
        return json.dumps(bool(obj) if obj is not None else None)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return dump_json({"re": float(obj.real), "im": float(obj.imag)},
                         indent)
    return json.dumps(str(obj))


def _bank_for(grid, args):
    """Bank from --config and --bank; --offset supplies N unless n_offset does.

    Records the bank's N in args.offset, so the report shows it.
    """
    text = args.bank
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read() + "\n" + text
    offset = DEFAULT_OFFSET if args.offset is None else args.offset
    bank = bank_from_config(grid, text, offset)
    if args.offset is not None and args.offset != bank.N:
        raise ConfigurationError(
            "--offset %d conflicts with n_offset=%d in the bank configuration"
            % (args.offset, bank.N))
    args.offset = bank.N
    return bank


def _load_input(path):
    if not os.path.exists(path):
        raise FileNotFoundError("input block %r does not exist" % (path,))
    return read_block(path)


# Each cmd_* writes its artifacts into args.out and returns
# (grid, bank, fields); either of grid and bank may be None.

def cmd_analyze(args):
    f = _load_input(args.input)
    bank = _bank_for(f.grid, args)
    coeffs = analyze(f, bank)
    if args.dump_coeffs:
        payload = {"slot_%d_%d" % key: slot
                   for key, slot in coeffs.slots.items()}
        payload["low_pass"] = coeffs.low_pass
        payload["meta"] = np.bytes_(json.dumps({
            "n": f.grid.n, "m": f.grid.m, "L": f.grid.L,
            "offset": bank.N, "bank": bank.config(),
        }).encode("utf-8"))
        np.savez(os.path.join(args.out, "coeffs.npz"), **payload)
    channels = {key: {"shape": list(slot.shape),
                      "energy": float(np.sum(np.abs(slot) ** 2))}
                for key, slot in sorted(coeffs.slots.items())}
    return f.grid, bank, {
        "channels": channels,
        "low_pass_energy": float(np.sum(np.abs(coeffs.low_pass) ** 2)
                                 * f.grid.cell_volume)}


def cmd_synthesize(args):
    try:
        with np.load(args.input) as data:
            meta = json.loads(bytes(data["meta"]).decode("utf-8"))
            grid = make_grid(meta["n"], meta["m"], meta["L"])
            bank = bank_from_config(grid, meta["bank"], meta["offset"])
            slots = {}
            for name in data.files:
                if name.startswith("slot_"):
                    _, j, k = name.split("_")
                    slots[(int(j), int(k))] = data[name]
            coeffs = CoefficientField(bank, slots, data["low_pass"])
        f = synthesize_discrete(coeffs)
    except (KeyError, ValueError, FlagLPError) as exc:
        # everything above reads only the file: an input error, not a failed validation
        raise ConfigurationError("malformed coefficient file %r: %s"
                                 % (args.input, exc)) from None
    write_block(os.path.join(args.out, "synthesized.bin"), f)
    # the bank and its offset come from the coefficient file, not from options
    args.offset = bank.N
    return grid, bank, {"l2_norm": lp_norm(f, 2.0)}


def cmd_squarefunc(args):
    f = _load_input(args.input)
    bank = _bank_for(f.grid, args)
    sf = g_flag(f, bank)
    write_block(os.path.join(args.out, "squarefunc.bin"), sf)
    return f.grid, bank, {"l2_norm": lp_norm(sf, 2.0),
                          "sup": float(np.max(np.abs(sf.values)))}


def cmd_hardy_norm(args):
    f = _load_input(args.input)
    bank = _bank_for(f.grid, args)
    return f.grid, bank, {"p": args.p, "norm": hardy_norm(f, bank, args.p)}


def cmd_cmo_norm(args):
    f = _load_input(args.input)
    bank = _bank_for(f.grid, args)
    candidates = generate_candidates(analyze(f, bank), args.candidates)
    return f.grid, bank, {"p": args.p, "candidate_count": len(candidates),
                          "norm": cmo_norm(f, bank, args.p, candidates)}


def cmd_maximal(args):
    f = _load_input(args.input)
    op = hl_maximal if args.family == "dyadic-cubes" else strong_maximal
    mf = op(f)
    write_block(os.path.join(args.out, "maximal.bin"), mf)
    return f.grid, None, {"family": args.family,
                          "sup": float(np.max(mf.values.real))}


def cmd_cz_decompose(args):
    f = _load_input(args.input)
    bank = _bank_for(f.grid, args)
    good, bad, rep = cz_decompose(f, bank, args.alpha, p=args.p, p1=args.p1,
                                  p2=args.p2, tol=args.tol)
    write_block(os.path.join(args.out, "good.bin"), good)
    write_block(os.path.join(args.out, "bad.bin"), bad)
    residual = lp_norm(good + bad - f, 2.0) / max(rep.f_norm, 1e-300)
    return f.grid, bank, {
        "alpha": rep.alpha,
        "g_norm": rep.g_norm,
        "b_norm": rep.b_norm,
        "f_norm": rep.f_norm,
        "fitted_c_g": rep.fitted_c_g,
        "fitted_c_b": rep.fitted_c_b,
        "neumann_iterations": rep.iterations,
        "level_set_measures": list(rep.level_set_measures),
        "support_violations": support_violations(rep, bank),
        "split_residual": residual}


def cmd_kernel(args):
    try:
        kernel = custom_kernel(args.expr, args.support) if args.expr else builtin_kernel(args.name)
        projected = project_to_flag(kernel) if args.action == "project" else None
    except KernelError as exc:
        # the options name no usable kernel: a usage error, not a failed validation
        raise ConfigurationError(str(exc)) from None
    fields = {"kernel": kernel.name, "action": args.action}
    if args.action == "validate":
        validate = (validate_product_kernel if kernel.singular_support == "product"
                    else validate_flag_kernel)
        fields["result"] = validate(kernel, args.budget)
    elif args.action == "project":
        fields["samples"] = {"%g,%g" % (x, y): projected(x, y)
                             for x in (0.25, 0.5, 1.0) for y in (0.25, 0.5, 1.0)}
    else:
        f = _load_input(args.input)
        eps = args.eps_factor * f.grid.spacing
        result = flag_convolve(f, kernel, eps)
        write_block(os.path.join(args.out, "convolved.bin"), result)
        fields["eps"] = eps
        fields["operator_norm"] = convolution_operator_norm(kernel, f.grid, eps)
        fields["l2_norm"] = lp_norm(result, 2.0)
    return None, None, fields


def _verify_partition(L):
    grid = make_grid(1, 1, L)
    bank = build_filter_bank(grid, FilterProfile(), 2)
    residual = max(_partition_residual(bank.psi1_hat, bank.low_pass1_hat),
                   _partition_residual(bank.psi2_hat, bank.low_pass2_hat))
    return residual, residual <= 1e-10


def _verify_plancherel(L):
    grid = make_grid(1, 1, L)
    bank = build_filter_bank(grid, FilterProfile(), 2)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(11)))
    worst = 0.0
    for _ in range(5):
        f = SampledFunction(grid, rng.standard_normal(grid.shape)
                            + 1j * rng.standard_normal(grid.shape))
        sf = g_flag(f, bank)
        low = low_pass_apply(f, bank)
        total = (np.sum(np.abs(sf.values) ** 2)
                 + np.sum(np.abs(low.values) ** 2)) * grid.cell_volume
        ref = np.sum(np.abs(f.values) ** 2) * grid.cell_volume
        worst = max(worst, abs(total - ref) / ref)
    return worst, worst <= 1e-9


def _verify_remainder_decay(L):
    grid = make_grid(1, 1, L)
    norms = [estimate_remainder_norm(build_filter_bank(grid, FilterProfile(), N))
             for N in (1, 2, 3)]
    ok = all(b < a for a, b in zip(norms, norms[1:]))
    ratios = [a / b for a, b in zip(norms, norms[1:])]
    ok = ok and all(1.5 <= r <= 2.5 for r in ratios)
    return max(norms), ok


def _verify_roundtrip(L):
    grid = make_grid(1, 1, L)
    bank = build_filter_bank(grid, FilterProfile(), 3)
    functions, _ = gen_corpus(grid, 4, 13, bank=bank)
    worst = 0.0
    for f in functions:
        inverted, _ = neumann_inverse(f, bank, tol=1e-8)
        back = synthesize_discrete(analyze(inverted, bank))
        num = lp_norm(back - f, 2.0)
        den = lp_norm(f, 2.0)
        worst = max(worst, num / max(den, 1e-300))
    return worst, worst <= 1e-7


VERIFY_SUITES = {
    "partition": _verify_partition,
    "plancherel": _verify_plancherel,
    "remainder-decay": _verify_remainder_decay,
    "roundtrip": _verify_roundtrip,
}


def cmd_verify(args):
    residual, ok = VERIFY_SUITES[args.suite](args.L)
    return None, None, {"suite": args.suite, "L": args.L,
                        "maxResidual": residual, "passes": ok}


def cmd_gen_corpus(args):
    grid = make_grid(args.n, args.m, args.L)
    functions, manifest = gen_corpus(grid, args.count, args.seed,
                                     bank=_bank_for(grid, args))
    for idx, f in enumerate(functions):
        write_block(os.path.join(args.out, "corpus-%03d.bin" % idx), f)
    return grid, None, {"manifest": manifest}


def _add_out(sub):
    sub.add_argument("--out", default=".", help="output directory")


def _add_bank_options(sub):
    """--out plus the options of the commands that build a filter bank."""
    _add_out(sub)
    sub.add_argument("--offset", type=int, default=None,
                     help="scale offset N of the anchored sampling (default: "
                          "n_offset of the bank configuration, else %d)"
                          % DEFAULT_OFFSET)
    sub.add_argument("--bank", default="",
                     help="bank configuration, comma-separated key=value "
                          "(inner_radius, outer_radius, smoothness, n_offset)")
    sub.add_argument("--config", default="",
                     help="file of key=value lines merged into --bank")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="flaglp",
        description="discrete two-parameter Littlewood-Paley analysis")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("analyze", help="decompose a block into coefficients")
    p.add_argument("input")
    p.add_argument("--dump-coeffs", action="store_true")
    _add_bank_options(p)
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("synthesize", help="rebuild a block from coefficients")
    p.add_argument("input", help="coeffs.npz written by analyze --dump-coeffs")
    _add_out(p)
    p.set_defaults(func=cmd_synthesize)

    p = subs.add_parser("squarefunc", help="pointwise square function")
    p.add_argument("input")
    _add_bank_options(p)
    p.set_defaults(func=cmd_squarefunc)

    p = subs.add_parser("hardy-norm", help="square-function based p-norm")
    p.add_argument("input")
    p.add_argument("--p", type=float, default=1.0)
    _add_bank_options(p)
    p.set_defaults(func=cmd_hardy_norm)

    p = subs.add_parser("cmo-norm", help="Carleson-sum norm lower bound")
    p.add_argument("input")
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--candidates", type=int, default=32)
    _add_bank_options(p)
    p.set_defaults(func=cmd_cmo_norm)

    p = subs.add_parser("maximal", help="dyadic maximal function")
    p.add_argument("input")
    p.add_argument("--family", choices=("dyadic-cubes", "dyadic-rectangles"),
                   default="dyadic-rectangles")
    _add_out(p)
    p.set_defaults(func=cmd_maximal)

    p = subs.add_parser("cz-decompose", help="good/bad split at a threshold")
    p.add_argument("input")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--p", type=float, default=0.9)
    p.add_argument("--p1", type=float, default=2.0)
    p.add_argument("--p2", type=float, default=0.7)
    p.add_argument("--tol", type=float, default=1e-10)
    _add_bank_options(p)
    p.set_defaults(func=cmd_cz_decompose)

    p = subs.add_parser("kernel", help="kernel certification and convolution")
    p.add_argument("action", choices=("validate", "project", "convolve"))
    p.add_argument("input", nargs="?", default="",
                   help="input block (convolve only)")
    p.add_argument("--name", default="k2-flag",
                   help="registry kernel name")
    p.add_argument("--expr", default="",
                   help="custom kernel expression in x, y; write --expr=EXPR "
                        "when it begins with a minus sign")
    p.add_argument("--support", choices=("product", "flag", "none"),
                   default="flag")
    p.add_argument("--budget", type=int, default=VALIDATION_BUDGET)
    p.add_argument("--eps-factor", type=float, default=2.0)
    _add_out(p)
    p.set_defaults(func=cmd_kernel)

    p = subs.add_parser("verify", help="run one acceptance-style suite")
    p.add_argument("--suite", choices=VERIFY_SUITES, required=True)
    p.add_argument("--L", type=int, default=7)
    _add_out(p)
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("gen-corpus", help="deterministic test corpus")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--L", type=int, default=6)
    _add_bank_options(p)
    p.set_defaults(func=cmd_gen_corpus)

    return parser


def run(args):
    """Run a parsed subcommand, write its report and return the exit code."""
    try:
        os.makedirs(args.out, exist_ok=True)
        grid, bank, fields = args.func(args)
        # the output directory does not affect results and would break
        # byte-identical reports across runs; the config is read after the
        # subcommand ran, because _bank_for records the bank's N in it
        config = {key: value for key, value in sorted(vars(args).items())
                  if key not in ("func", "out")}
        report = {"command": args.subcommand, "version": __version__,
                  "config": config}
        if grid is not None:
            report["grid"] = {"n": grid.n, "m": grid.m, "L": grid.L}
        if bank is not None:
            report["bank"] = bank.identifier()
        report.update(fields)
        name = "manifest" if args.subcommand == "gen-corpus" else args.subcommand
        with open(os.path.join(args.out, name + ".json"), "w", encoding="utf-8") as fh:
            fh.write(dump_json(report) + "\n")
    except (OSError, FlagLPError) as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 2 if isinstance(exc, USAGE_ERRORS) else 1
    # kernel validate reports its verdict in result, verify at the top level
    verdict = fields.get("result", fields).get("passes", True)
    return 0 if verdict else 1


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
