import os
import subprocess
import sys

import numpy as np
import pytest

import flaglp
from flaglp import (builtin_kernel, convolution_operator_norm, custom_kernel,
                    flag_convolve, majorant_check, project_to_flag,
                    validate_flag_kernel, validate_product_kernel)
from flaglp.errors import IntegrationError, KernelError, TruncationError
from flaglp.kernels import (FLAG_BLOCKS, PRODUCT_BLOCKS, KernelSpec, bump_family,
                            parse_kernel_expression, sample_truncated_kernel)

from conftest import k2_odd_part, random_function


def test_k2_flag_passes():
    report = validate_flag_kernel(builtin_kernel("k2-flag"))
    assert report["passes"], report["max_ratio"]
    assert not report["diverging"]


CONTRAST_KEYS = ("passes", "max_ratio", "size_ratios")


def test_k1_flag_diverges_product_passes():
    k1 = builtin_kernel("k1-product")
    product = validate_product_kernel(k1)
    assert product["passes"], product["max_ratio"]
    as_flag = KernelSpec("k1-as-flag", k1.evaluator, "flag", FLAG_BLOCKS, 2)
    report = validate_flag_kernel(as_flag)
    assert report["diverging"], report["max_ratio"]
    assert not report["passes"]
    # k1-product is the per-factor contrast of its own flag reading
    assert report["product_contrast"] == {key: product[key] for key in CONTRAST_KEYS}


def test_flag_validation_samples_the_kernel_once():
    # the product contrast refits the flag run's samples, so a flag
    # validation calls the kernel exactly as often as a product validation
    # of the same evaluator, and its contrast is that product report
    k2 = builtin_kernel("k2-flag")
    calls = {"flag": 0, "product": 0}

    def counting(label):
        def evaluator(x, y):
            calls[label] += 1
            return k2.evaluator(x, y)
        return evaluator

    flag = validate_flag_kernel(KernelSpec("k2", counting("flag"), "flag", FLAG_BLOCKS, 2), 256)
    product = validate_product_kernel(
        KernelSpec("k2", counting("product"), "product", PRODUCT_BLOCKS, 2), 256)
    assert calls["flag"] == calls["product"] > 0
    assert flag["product_contrast"] == {key: product[key] for key in CONTRAST_KEYS}


def contrast_kernel(label):
    if label == "k2-odd":
        return k2_odd_part()
    if label == "weight-2":
        return KernelSpec("weight-2", lambda x, y: 1.0 / (x * x * (x + 1j * y)), "flag",
                          (((0,), (0,), 2), ((1,), (0, 1), 1)), 2)
    return builtin_kernel(label)


@pytest.mark.parametrize("label, per_factor", [
    ("k2-odd", PRODUCT_BLOCKS), ("smooth-bump", PRODUCT_BLOCKS), ("zero", PRODUCT_BLOCKS),
    ("weight-2", (((0,), (0,), 2), ((1,), (1,), 1)))])
def test_product_contrast_is_product_validation(label, per_factor):
    # the contrast is the product verdict of the same evaluator under one
    # singleton block per variable, with the weight of the first block it loads
    kernel = contrast_kernel(label)
    contrast = validate_flag_kernel(kernel, 256)["product_contrast"]
    product = validate_product_kernel(
        KernelSpec(kernel.name, kernel.evaluator, "product", per_factor, kernel.nargs), 256)
    assert contrast == {key: product[key] for key in CONTRAST_KEYS}


def test_zero_kernel_trivial(tiny):
    grid, _ = tiny
    zero = builtin_kernel("zero")
    f = random_function(grid, 0)
    out = flag_convolve(f, zero, 2 * grid.spacing)
    assert np.max(np.abs(out.values)) == 0.0
    assert convolution_operator_norm(zero, grid, 2 * grid.spacing) == 0.0


def test_smooth_bump_approximate_identity():
    grid = flaglp.make_grid(1, 1, 6)
    bump = builtin_kernel("smooth-bump")
    symbol = np.fft.fftn(sample_truncated_kernel(bump, grid, grid.spacing))
    # unit mass: DC value 1; smoothing: no amplification
    assert abs(symbol[0, 0] - 1.0) <= 5e-3
    assert np.max(np.abs(symbol)) <= 1.0 + 5e-3
    f = flaglp.gen_corpus(grid, 1, 3, kinds=("bump",))[0][0]
    out = flag_convolve(f, bump, grid.spacing)
    ratio = np.linalg.norm(out.values) / np.linalg.norm(f.values)
    assert 0.5 <= ratio <= 1.0 + 1e-9


def test_truncation_below_spacing_rejected(tiny):
    grid, _ = tiny
    with pytest.raises(TruncationError,
                       match=r"^truncation radius eps=0\.03125 is below the grid spacing h=0\.125$"):
        sample_truncated_kernel(builtin_kernel("k2-flag"), grid, 0.25 * grid.spacing)


def per_point_samples(kernel, grid, eps):
    """Reference sampler: one scalar kernel call per kept torus point.

    A point is kept when the kernel has no singular set ("none") or when
    its smallest block norm exceeds eps.
    """
    axes = []
    for size in grid.shape:
        idx = np.arange(size, dtype=np.float64)
        idx[idx >= size / 2] -= size
        axes.append(idx * grid.spacing)
    flat = [c.ravel() for c in np.meshgrid(*axes, indexing="ij")]
    values = np.zeros(flat[0].size, dtype=np.complex128)
    kept = np.zeros(flat[0].size, dtype=bool)
    for idx in range(values.size):
        point = tuple(f[idx] for f in flat)
        if kernel.singular_support == "none" or min(
                sum(abs(point[i]) for i in span) for _, span, _ in kernel.blocks) > eps:
            kept[idx] = True
            values[idx] = kernel(*point)
    return values.reshape(grid.shape) * grid.spacing ** grid.ndim, kept.reshape(grid.shape)


def sampler_kernel(label):
    if label == "k0-parsed":
        return custom_kernel("-i*y/(x*(x**2+y**2))", "flag")
    if label == "k2-odd":
        return k2_odd_part()
    return builtin_kernel(label)


@pytest.mark.parametrize("factor", (1, 2, 4))
@pytest.mark.parametrize("label, n, m, L", [
    ("k2-flag", 1, 1, 5), ("k1-product", 1, 1, 5), ("smooth-bump", 1, 1, 5),
    ("zero", 1, 1, 5), ("k0-parsed", 1, 1, 5), ("k2-odd", 1, 1, 5),
    ("ksharp-smoothed", 2, 1, 4), ("ksharp-smoothed", 1, 2, 4)])
def test_sampler_matches_per_point_loop(label, n, m, L, factor):
    kernel = sampler_kernel(label)
    grid = flaglp.make_grid(n, m, L)
    eps = factor * grid.spacing
    samples = sample_truncated_kernel(kernel, grid, eps)
    reference, kept = per_point_samples(kernel, grid, eps)
    assert samples.shape == grid.shape and samples.dtype == np.complex128
    assert np.all(samples[~kept] == 0.0)
    if label == "k0-parsed":
        # a parsed expression may round differently on arrays than on scalars
        scale = np.max(np.abs(reference))
        assert np.max(np.abs(samples - reference)) <= 1e-12 * scale
    else:
        assert np.array_equal(samples, reference)


def test_sampler_evaluates_once_off_the_truncation():
    grid = flaglp.make_grid(1, 1, 5)
    eps = 2 * grid.spacing
    k2 = builtin_kernel("k2-flag")
    calls = []

    def counting(x, y):
        calls.append(np.size(x))
        # the flag blocks are |x| and |x| + |y|: both exceed eps off the truncation
        assert np.all(np.abs(x) > eps)
        return k2.evaluator(x, y)

    spec = KernelSpec("counted", counting, "flag", k2.blocks, k2.nargs)
    samples = sample_truncated_kernel(spec, grid, eps)
    assert len(calls) == 1
    assert calls[0] == np.count_nonzero(samples)
    assert np.array_equal(samples, sample_truncated_kernel(k2, grid, eps))


def test_truncated_samples_vanish_near_singularity(tiny):
    grid, _ = tiny
    k2 = builtin_kernel("k2-flag")
    eps = 2 * grid.spacing
    samples = sample_truncated_kernel(k2, grid, eps)
    # the singular line x = 0 lies inside every eps-ball around it
    assert np.max(np.abs(samples[0, :])) == 0.0


def test_majorant_check_structure(tiny):
    grid, _ = tiny
    f = random_function(grid, 5)
    report = majorant_check(f, builtin_kernel("k2-flag"), 2 * grid.spacing)
    assert report["fitted_c"] >= 0.0 and np.isfinite(report["fitted_c"])
    assert all(np.isfinite(v) for v in report["per_level"].values())


def expanded_majorant_levels(f, kernel, eps, max_level):
    """Per-level worst ratio, dividing the block means expanded back to the full grid."""
    grid = f.grid
    conv = flag_convolve(f, kernel, eps).values
    majorant = flaglp.strong_maximal(f).values.real
    denominator = np.maximum(majorant, 1e-13 * max(float(np.max(majorant)), 1e-300))
    per_level = {}
    for e1 in range(max_level + 1):
        for e2 in range(max_level + 1):
            sides = [2 ** e1] * grid.n + [2 ** e2] * grid.m
            means = conv
            for axis, side in enumerate(sides):
                split = means.shape[:axis] + (means.shape[axis] // side, side) + means.shape[axis + 1:]
                means = means.reshape(split).mean(axis=axis + 1)
            smoothed = np.abs(means)
            for axis, side in enumerate(sides):
                smoothed = np.repeat(smoothed, side, axis=axis)
            per_level[(e1, e2)] = float(np.max(smoothed / denominator))
    return per_level


def test_majorant_levels_match_full_grid_division():
    grid = flaglp.make_grid(1, 1, 5)
    f = random_function(grid, 6)
    for kernel in (builtin_kernel("k2-flag"), k2_odd_part()):
        report = majorant_check(f, kernel, 2 * grid.spacing)
        expect = expanded_majorant_levels(f, kernel, 2 * grid.spacing, grid.L - 1)
        assert report["per_level"] == expect
        assert report["fitted_c"] == max(expect.values())


def test_projection_separable_bump_oracle():
    # K#(x, u, z) smooth and separable: the projection integral has a
    # dense trapezoid oracle
    def ksharp(x, u, z):
        return np.exp(-x * x - u * u - 2.0 * z * z) + 0j

    spec = KernelSpec("sep-bump", ksharp, "none", (), 3)
    projected = project_to_flag(spec)
    zs = np.linspace(-8.0, 8.0, 16001)
    for x, y in ((0.3, -0.4), (1.0, 0.7)):
        oracle = np.trapezoid(np.exp(-x * x - (y - zs) ** 2 - 2.0 * zs ** 2), zs)
        assert projected(x, y) == pytest.approx(oracle, rel=1e-8)


def test_projection_acts_elementwise():
    def ksharp(x, u, z):
        return np.exp(-x * x - u * u - 2.0 * z * z)

    projected = project_to_flag(KernelSpec("sep-bump", ksharp, "none", (), 3))
    xs = np.array([0.3, 1.0, -0.5])
    ys = np.array([-0.4, 0.7, 0.2])
    values = projected.evaluator(xs, ys)
    assert values.shape == (3,) and values.dtype == np.complex128
    assert np.array_equal(values, [projected(x, y) for x, y in zip(xs, ys)])


# a log-divergent tail (its 64- and 128-panel sums differ by 2 ln 2) and NaN
@pytest.mark.parametrize("ksharp", [lambda x, u, z: 1.0 / np.sqrt(1.0 + z * z),
                                    lambda x, u, z: np.full(np.shape(z), np.nan)],
                         ids=["divergent-tail", "nan"])
def test_projection_refuses_unconverged_integral(ksharp):
    with pytest.raises(IntegrationError):
        project_to_flag(KernelSpec("bad", ksharp, "none", (), 3))(0.25, 0.5)


def test_projection_of_smoothed_product_kernel_finite():
    ksharp = builtin_kernel("ksharp-smoothed")
    projected = project_to_flag(ksharp)
    val = projected(0.25, 0.5)
    assert np.isfinite(val.real) and np.isfinite(val.imag)


def test_projection_needs_three_arguments():
    with pytest.raises(KernelError):
        project_to_flag(builtin_kernel("k2-flag"))


_NO_SCIPY_SCRIPT = """
import sys
import flaglp
import flaglp.cli
from flaglp.errors import KernelError
try:
    flaglp.project_to_flag(flaglp.builtin_kernel("k2-flag"))
except KernelError:
    print("KernelError")
flaglp.project_to_flag(flaglp.builtin_kernel("ksharp-smoothed"))(0.25, 0.5)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_import_and_refused_projection_do_not_load_scipy():
    # neither the import, a refused projection nor a quadrature loads scipy
    src = os.path.dirname(os.path.dirname(flaglp.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True)
    assert run.stdout.splitlines() == ["KernelError", "[]"]


def test_parse_kernel_expression():
    fn = parse_kernel_expression("1/(x*y)")
    assert fn(2.0, 4.0) == pytest.approx(0.125)
    fn = parse_kernel_expression("exp(-abs(x))/sqrt(y*y)")
    assert fn(0.0, 2.0) == pytest.approx(0.5)


def test_parsed_expression_acts_elementwise():
    fn = parse_kernel_expression("exp(-abs(x))/sqrt(y*y)")
    xs = np.array([0.0, -0.5, 1.25, 3.0])
    ys = np.array([2.0, -0.25, 0.75, -4.0])
    values = fn(xs, ys)
    assert values.shape == xs.shape
    assert np.array_equal(values, [fn(x, y) for x, y in zip(xs, ys)])


def test_parse_rejects_unsafe_expressions():
    for text in ("__import__('os')", "x.real", "lambda: 1", "open('f')",
                 "[1,2][0]"):
        with pytest.raises(KernelError):
            parse_kernel_expression(text)


def test_custom_kernel_convolves(tiny):
    grid, _ = tiny
    spec = custom_kernel("1/(x*(x+i*y))", "flag")
    f = random_function(grid, 9)
    out = flag_convolve(f, spec, 2 * grid.spacing)
    reference = flag_convolve(f, builtin_kernel("k2-flag"), 2 * grid.spacing)
    assert np.allclose(out.values, reference.values, rtol=1e-12)


def test_custom_kernel_blocks_follow_the_support():
    # only a product support gets per-factor blocks: a "none" kernel is
    # certified as a flag kernel, like the builtin smooth-bump
    none = custom_kernel("exp(-abs(x))/(1+y*y)", "none")
    assert none.blocks == builtin_kernel("smooth-bump").blocks == FLAG_BLOCKS
    assert custom_kernel("1/(x*y)", "product").blocks == PRODUCT_BLOCKS
    assert custom_kernel("1/(x*(x+i*y))", "flag").blocks == FLAG_BLOCKS


def test_unknown_builtin():
    with pytest.raises(KernelError):
        builtin_kernel("nope")


def test_bump_family_normalized():
    bumps = bump_family()
    assert len(bumps) == 4
    xs = np.linspace(-1.0, 1.0, 4097)
    for fn, scale in bumps:
        vals = scale * fn(xs)
        assert vals[0] == 0.0 and vals[-1] == 0.0
        assert np.max(np.abs(vals)) <= 1.0 + 1e-9
        h = xs[1] - xs[0]
        d2 = np.gradient(np.gradient(vals, h), h)
        assert np.max(np.abs(d2)) <= 1.0 + 1e-9


def test_k2_truncation_norm_is_its_even_part():
    # k2 = 1/(x^2 + y^2) + K0. The sharp-truncation norm of k2 sits at zero
    # frequency, where K0's odd symmetry cancels and the even part sums to
    # about 2 pi ln(1/eps): no bound uniform in eps exists.
    grid = flaglp.make_grid(1, 1, 8)
    h = grid.spacing
    coords = np.fft.fftfreq(grid.samples_per_axis)
    x, y = np.meshgrid(coords, coords, indexing="ij")
    k2 = builtin_kernel("k2-flag")
    k0 = k2_odd_part()
    norms = []
    for factor in (4, 2, 1):
        eps = factor * h
        keep = np.abs(x) > eps
        even = h * h * np.sum(1.0 / (x[keep] ** 2 + y[keep] ** 2))
        # nonzero only because the -1/2 row and column of the torus are
        # unpaired under x -> -x and y -> -y
        k0_dc = np.sum(sample_truncated_kernel(k0, grid, eps))
        assert abs(k0_dc) < 1e-3
        norm = convolution_operator_norm(k2, grid, eps)
        assert norm == pytest.approx(abs(even + k0_dc), rel=1e-12)
        norms.append(norm)
    assert min(np.diff(norms)) >= np.pi * np.log(2.0), norms
