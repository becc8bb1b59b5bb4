"""Closed-form singular kernels and their numerical certification.

Two kernel geometries are supported, both in the scalar two-factor setting.
A product kernel is singular where either factor variable vanishes and obeys
per-factor size bounds; a flag kernel is singular only on the first-factor
hyperplane and obeys the asymmetric bound

    |d_x^a d_y^b K(x, y)| <= C |x|^(-w1-a) (|x| + |y|)^(-w2-b).

Certification samples the kernel once per refinement level: central
differences at every point of a dyadic ladder, and bump pairings in one
variable.  Each bound family (the flag bound, and for flag kernels the
stricter per-factor product contrast) then fits the smallest admissible
constant per derivative order to those same samples, and the fit is
repeated on the deeper ladder of the next level.  A genuine kernel of the
claimed type produces stable fitted constants; a kernel of the wrong type
produces a constant that grows geometrically with the ladder depth, and the
ratio between refinements is the reported evidence.

Cancellation conditions are tested against a fixed family of twice
continuously differentiable bump functions, integrated by symmetric midpoint
quadrature so odd singular parts cancel exactly.  Only single-variable
cancellation is tested: one variable is integrated while the other is held
at the fixed evaluation points 0.25, 0.5 and 1.0.  The joint cancellation
condition, pairing K with a bump in both variables at once, is not tested.
Certification therefore covers the size bounds and single-variable
cancellation only, and a kernel that passes can still have log-divergent
sharp truncations: k2-flag passes, yet its even part 1/(x^2 + y^2) has
nonzero angular mean, and its truncated operator norms grow like
2 pi ln(1/eps).

Kernel evaluators act elementwise on numpy arrays, so the truncated
sampler evaluates a kernel once, on every torus point outside the
truncation, and broadcasts a constant result.  Calling a KernelSpec stays
the scalar entry point, which the certification ladders use.  A projected
kernel runs its quadrature per point, np.vectorize'd over arrays.
"""

import ast
import functools
import math

import numpy as np

from .blocks import block_reduce
from .errors import DomainError, IntegrationError, KernelError, TruncationError
from .grid import SampledFunction
from .maximal import _iterated_mean, strong_maximal

SUPPORT_KINDS = ("product", "flag", "none")

STABLE_LOW = 0.5
STABLE_HIGH = 1.5
DIVERGENCE_RATIO = 4.0

# default sample budget of a certification, the library's and the CLI's
VALIDATION_BUDGET = 2048

# cancellation dilation ladder, 2^-4 .. 2^4
DELTA_LADDER = tuple(2.0 ** e for e in range(-4, 5))

_TINY = 1e-300

# central-difference stencils, (shift in steps, weight) per derivative
# order; the highest order is the certified derivative cap
_STENCILS = {
    0: ((0.0, 1.0),),
    1: ((-1.0, -0.5), (1.0, 0.5)),
    2: ((-1.0, 1.0), (0.0, -2.0), (1.0, 1.0)),
}

# relative accuracy of project_to_flag
_PROJECTION_RTOL = 1e-8

# variable names of expression kernels
_VARIABLES = ("x", "y")

# size descriptors of the two-variable geometries, as KernelSpec blocks: a
# flag kernel is bounded by |x| and |x| + |y|, a product kernel by |x| and |y|
FLAG_BLOCKS = (((0,), (0,), 1), ((1,), (0, 1), 1))
PRODUCT_BLOCKS = (((0,), (0,), 1), ((1,), (1,), 1))


class KernelSpec:
    """A closed-form kernel with its singularity geometry.

    evaluator maps its arguments (one per variable) to complex values and
    must be finite off the singular set.  It must act elementwise on numpy
    arrays of one shape: sample_truncated_kernel calls it once, on all kept
    torus points, and broadcasts a constant scalar result.  Calling the
    spec is the scalar entry point the certification ladders use: it checks
    the arity and returns a Python complex.  Projected kernels np.vectorize
    their scalar quadrature.

    blocks describes the size bound: each entry is (home, span, weight)
    where home lists the argument indices whose derivative orders load this
    block, span lists the indices summed inside the block norm, and weight
    is the homogeneity of the block.
    """

    def __init__(self, name, evaluator, singular_support, blocks, nargs):
        if singular_support not in SUPPORT_KINDS:
            raise KernelError("unknown singular support %r" % (singular_support,))
        if nargs < 1:
            raise KernelError("kernel needs at least one argument")
        for home, span, weight in blocks:
            if not home or not span:
                raise KernelError("empty block in kernel size descriptor")
            if weight <= 0:
                raise KernelError("block weight must be positive")
        self.name = name
        self.evaluator = evaluator
        self.singular_support = singular_support
        self.blocks = tuple((tuple(h), tuple(s), int(w)) for h, s, w in blocks)
        self.nargs = int(nargs)

    def __call__(self, *point):
        if len(point) != self.nargs:
            raise KernelError("kernel %s takes %d arguments, got %d"
                              % (self.name, self.nargs, len(point)))
        return complex(self.evaluator(*point))


def _size_bound(blocks, point, orders):
    """Product over blocks of block norm ** -(weight + orders on its home)."""
    out = 1.0
    for home, span, weight in blocks:
        base = sum(abs(point[i]) for i in span)
        power = weight + sum(orders[i] for i in home)
        out *= base ** (-power)
    return out


def _multi_indices(nargs, cap):
    """All derivative multi-indices of total order <= cap."""
    out = [()]
    for _ in range(nargs):
        out = [idx + (o,) for idx in out for o in range(cap + 1)]
    return [idx for idx in out if sum(idx) <= cap]


def _central_difference(kernel, point, orders, step):
    """Nested central differences, one axis at a time.

    Order 0 uses the point itself, order 1 the two-point stencil, order 2
    the three-point stencil.  Mixed orders tensor the stencils.
    """
    nodes = [((), 1.0)]
    for order in orders:
        scale = step ** (-order) if order else 1.0
        nodes = [(offs + (shift * step,), coef * w * scale)
                 for offs, coef in nodes
                 for shift, w in _STENCILS[order]]
    total = 0.0 + 0.0j
    for offs, coef in nodes:
        shifted = tuple(p + o for p, o in zip(point, offs))
        total += coef * kernel(*shifted)
    return total


def _ladder_points(nargs, depth):
    """Sign-symmetric dyadic lattice 2^e, e in [-depth+1, 1], per axis."""
    exps = [2.0 ** e for e in range(-depth + 1, 2)]
    coords = [s * v for v in exps for s in (1.0, -1.0)]
    pts = [()]
    for _ in range(nargs):
        pts = [p + (c,) for p in pts for c in coords]
    return pts


def _sample_derivatives(kernel, depth):
    """(point, orders, |finite-difference derivative|) over the ladder."""
    orders_list = _multi_indices(kernel.nargs, max(_STENCILS))
    samples = []
    for point in _ladder_points(kernel.nargs, depth):
        # every block norm is at least the smallest |coordinate|; keeping the
        # stencil off every coordinate hyperplane as well means a kernel more
        # singular than its declared type is probed, not hit
        step = min(abs(c) for c in point) / 16.0
        for orders in orders_list:
            value = _central_difference(kernel, point, orders, step)
            if not np.isfinite(value):
                raise KernelError(
                    "kernel %s not finite off its singular set at %r"
                    % (kernel.name, point))
            samples.append((point, orders, abs(value)))
    return samples


def _fit_size_constants(samples, blocks):
    """Largest |finite-difference derivative| / size bound per order."""
    fitted = {}
    for point, orders, value in samples:
        fitted[orders] = max(fitted.get(orders, 0.0),
                             value / _size_bound(blocks, point, orders))
    return fitted


@functools.cache
def bump_family():
    """Fixed family of C2-normalized bumps on [-1, 1].

    The base bump, its first-moment modulation, and two polynomial
    modulations with pinned coefficients; each rescaled so the sampled
    C2 norm is 1.
    """
    rng = np.random.Generator(np.random.Philox(key=20260826))
    poly_a = rng.uniform(-1.0, 1.0, size=3)
    poly_b = rng.uniform(-1.0, 1.0, size=3)

    def base(u):
        u = np.asarray(u, dtype=np.float64)
        out = np.zeros_like(u)
        inside = np.abs(u) < 1.0
        ui = u[inside]
        out[inside] = np.exp(-1.0 / (1.0 - ui * ui))
        return out

    raw = [
        lambda u: base(u),
        lambda u: np.asarray(u) * base(u),
        lambda u: np.polyval(poly_a, np.asarray(u)) * base(u),
        lambda u: np.polyval(poly_b, np.asarray(u)) * base(u),
    ]
    grid = np.linspace(-1.0, 1.0, 4097)
    h = grid[1] - grid[0]
    family = []
    for f in raw:
        vals = f(grid)
        d1 = np.gradient(vals, h)
        d2 = np.gradient(d1, h)
        norm = max(np.max(np.abs(vals)), np.max(np.abs(d1)), np.max(np.abs(d2)))
        family.append((f, 1.0 / norm))
    return family


def _midpoint_nodes(radius, count):
    """Symmetric midpoints +-(q + 1/2) h, never touching the origin."""
    h = radius / count
    half = (np.arange(count) + 0.5) * h
    return np.concatenate([-half[::-1], half]), h


def _sample_pairings(kernel, quad_count):
    """(axis, point with that axis at 0, |bump pairing|) per axis.

    For each variable axis that some block loads, each bump, and each
    dilation in the ladder, integrate K against bump(delta * t) in that
    variable by symmetric midpoint quadrature, with the other variables
    held at each fixed evaluation value.
    """
    samples = []
    eval_values = (0.25, 0.5, 1.0)
    loaded = {i for home, _, _ in kernel.blocks for i in home}
    for axis in range(kernel.nargs):
        if axis not in loaded:
            continue
        for bump, scale in bump_family():
            for delta in DELTA_LADDER:
                nodes, h = _midpoint_nodes(1.0 / delta, quad_count)
                weights = scale * bump(delta * nodes) * h
                for other in eval_values:
                    point = [other] * kernel.nargs
                    total = 0.0 + 0.0j
                    for t, w in zip(nodes, weights):
                        if w == 0.0:
                            continue
                        point[axis] = t
                        total += w * kernel(*point)
                    point[axis] = 0.0
                    samples.append((axis, tuple(point), abs(total)))
    return samples


def _fit_cancellation_constants(samples, blocks):
    """Largest |bump pairing| / size bound with the integrated block removed."""
    fitted = {}
    for axis, point, value in samples:
        remaining = [b for b in blocks if axis not in b[0]]
        bound = _size_bound(remaining, point, (0,) * len(point))
        fitted[axis] = max(fitted.get(axis, 0.0), value / bound)
    return fitted


def _refinement_ratio(coarse, fine):
    """Per-key ratio fine/coarse, with 0/0 counted as exactly stable."""
    ratios = {}
    for key in coarse:
        c, f = coarse[key], fine[key]
        if c < _TINY and f < _TINY:
            ratios[key] = 1.0
        else:
            ratios[key] = f / max(c, _TINY)
    return ratios


def _budget_depth(sample_budget, nargs):
    if sample_budget < 16:
        raise DomainError("sample budget too small to build a ladder")
    depth = int(round(math.log2(sample_budget) / nargs)) + 3
    return max(5, min(12, depth))


def _run_validation(kernel, sample_budget, families):
    """One report per (label, blocks) family, all fitted to one sampling."""
    depth = _budget_depth(sample_budget, kernel.nargs)
    quad = max(128, sample_budget // 8)
    levels = [(d, q, _sample_derivatives(kernel, d), _sample_pairings(kernel, q))
              for d, q in ((depth, quad), (depth + 3, 2 * quad))]
    reports = []
    for label, blocks in families:
        refinements = [{
            "level": level,
            "ladder_depth": d,
            "quadrature_count": q,
            "size_constants": _fit_size_constants(derivatives, blocks),
            "cancellation_constants": _fit_cancellation_constants(pairings, blocks),
        } for level, (d, q, derivatives, pairings) in enumerate(levels)]
        size_ratios = _refinement_ratio(refinements[0]["size_constants"],
                                        refinements[1]["size_constants"])
        canc_ratios = _refinement_ratio(refinements[0]["cancellation_constants"],
                                        refinements[1]["cancellation_constants"])
        all_ratios = list(size_ratios.values()) + list(canc_ratios.values())
        max_ratio = max(all_ratios) if all_ratios else 1.0
        stable = all(STABLE_LOW <= r <= STABLE_HIGH for r in all_ratios)
        reports.append({
            "kernel": kernel.name,
            "bound_type": label,
            "refinements": refinements,
            "size_ratios": size_ratios,
            "cancellation_ratios": canc_ratios,
            "max_ratio": max_ratio,
            "passes": stable,
            "diverging": max_ratio >= DIVERGENCE_RATIO,
        })
    return reports


def validate_product_kernel(kernel, sample_budget=VALIDATION_BUDGET):
    """Certify the per-factor product size and cancellation bounds."""
    if kernel.singular_support not in ("product", "none"):
        raise KernelError("product validation needs a product-type kernel")
    return _run_validation(kernel, sample_budget, (("product", kernel.blocks),))[0]


def validate_flag_kernel(kernel, sample_budget=VALIDATION_BUDGET):
    """Certify the asymmetric flag bounds, plus the product contrast.

    Passing certifies the flag size bounds and single-variable
    cancellation at fixed evaluation points of the other variable; the
    joint cancellation condition is not checked, so a passing kernel
    (k2-flag is one) can still have log-divergent sharp truncations.
    The kernel is sampled once per level, and the contrast fits the same
    samples to the stricter independent per-factor bounds (one singleton
    block per loaded variable), so the report shows both verdicts side by
    side.
    """
    if kernel.singular_support not in ("flag", "none"):
        raise KernelError("flag validation needs a flag-type kernel")
    singletons = {}
    for home, _, weight in kernel.blocks:
        for i in home:
            singletons.setdefault(i, ((i,), (i,), weight))
    report, contrast = _run_validation(
        kernel, sample_budget,
        (("flag", kernel.blocks), ("product-contrast", tuple(singletons.values()))))
    report["product_contrast"] = {
        "passes": contrast["passes"],
        "max_ratio": contrast["max_ratio"],
        "size_ratios": contrast["size_ratios"],
    }
    return report


def project_to_flag(ksharp):
    """Integrate out the lifted variable of a three-argument kernel.

    The input evaluates (x, u, z); the output evaluates (x, y) as the
    integral of ksharp(x, y - z, z) over z.  Each piece between lo =
    min(0, y) - 1, 0, y and hi = max(0, y) + 1, and each tail mapped to
    s in (0, 1) by z = hi + s/(1 - s) or z = lo - s/(1 - s), gets a 32-point
    Gauss-Legendre rule on 64 and on 128 panels, whose nodes miss z = 0 and
    z = y.  The evaluator runs once per point, on all nodes.  The 128-panel
    value is returned unless a part (real, imaginary) is not finite or
    differs between the rules by over 100 * _PROJECTION_RTOL of its size:
    then IntegrationError is raised.
    """
    if ksharp.nargs != 3:
        raise KernelError("projection needs a three-argument kernel")
    # 32-point Gauss-Legendre rules on (0, 1) with 64 and with 128 equal panels
    gauss, gauss_weights = np.polynomial.legendre.leggauss(32)
    rules = [(((np.arange(p)[:, None] + 0.5 * gauss + 0.5) / p).ravel(),
              np.tile(0.5 * gauss_weights / p, p)) for p in (64, 128)]

    def projected(x, y):
        lo, hi = min(0.0, y) - 1.0, max(0.0, y) + 1.0
        edges = np.unique([lo, 0.0, y, hi])
        width = np.diff(edges)[:, None]
        nodes, weights = [], []
        for s, w in rules:
            tail, jacobian = s / (1.0 - s), w / (1.0 - s) ** 2
            finite = edges[:-1, None] + width * s
            nodes.append(np.concatenate([finite.ravel(), hi + tail, lo - tail]))
            weights.append(np.concatenate([(width * w).ravel(), jacobian, jacobian]))
        z = np.concatenate(nodes)
        values = np.broadcast_to(ksharp.evaluator(x, y - z, z), z.shape)
        coarse, fine = (w @ v for w, v in zip(weights, np.split(values, [nodes[0].size])))
        for c, f in ((coarse.real, fine.real), (coarse.imag, fine.imag)):
            if not np.isfinite(f) or abs(f - c) > 100.0 * _PROJECTION_RTOL * abs(f):
                raise IntegrationError("projection quadrature did not converge: value %g, "
                                       "64- and 128-panel rules differ by %g" % (f, abs(f - c)))
        return complex(fine)

    return KernelSpec(ksharp.name + ":projected",
                      np.vectorize(projected, otypes=[complex]), "flag", FLAG_BLOCKS, 2)


def _torus_coordinates(grid):
    """Signed torus coordinates in [-1/2, 1/2), one full-grid array per axis."""
    axes = []
    for size in grid.shape:
        idx = np.arange(size, dtype=np.float64)
        idx[idx >= size / 2] -= size
        axes.append(idx * grid.spacing)
    return np.meshgrid(*axes, indexing="ij")


def sample_truncated_kernel(kernel, grid, eps):
    """Sample the eps-truncated kernel on the torus, integral-weighted.

    The kernel is evaluated once, on the points outside the truncation,
    so no singular point is ever evaluated.  The samples carry the cell
    volume so frequency-side multiplication realizes the convolution
    integral.
    """
    if kernel.nargs != grid.ndim:
        raise KernelError("kernel arity %d does not match grid dimension %d"
                          % (kernel.nargs, grid.ndim))
    if eps < grid.spacing:
        raise TruncationError("truncation radius eps=%g is below the grid "
                              "spacing h=%g" % (eps, grid.spacing))
    coords = _torus_coordinates(grid)
    keep = np.ones(grid.shape, dtype=bool)
    if kernel.singular_support != "none":
        # keep a point when its smallest block norm exceeds eps, that is
        # when every one does
        for _, span, _ in kernel.blocks:
            keep &= sum(np.abs(coords[i]) for i in span) > eps
    values = np.zeros(grid.shape, dtype=np.complex128)
    values[keep] = kernel.evaluator(*(c[keep] for c in coords))
    return values * grid.spacing ** grid.ndim


def flag_convolve(f, kernel, eps):
    """Truncated convolution by frequency-domain multiplication."""
    samples = sample_truncated_kernel(kernel, f.grid, eps)
    symbol = np.fft.fftn(samples)
    out = np.fft.ifftn(symbol * np.fft.fftn(f.values))
    return SampledFunction(f.grid, out)


def convolution_operator_norm(kernel, grid, eps):
    """Exact L2 operator norm of the truncated convolution.

    Frequency multiplication diagonalizes the operator, so the norm is
    the largest symbol magnitude rather than a power-iteration estimate.
    """
    symbol = np.fft.fftn(sample_truncated_kernel(kernel, grid, eps))
    return float(np.max(np.abs(symbol)))


def majorant_check(f, kernel, eps):
    """Fit |block-smoothed K*f| <= C * strong maximal of f pointwise.

    Smoothing runs over dyadic block shapes (the sampled two-parameter
    dilation lattice) with sides up to half the torus; the fitted constant
    is the worst pointwise ratio.  Division is monotone, so a block's worst
    ratio uses its least majorant.
    """
    grid = f.grid
    conv = flag_convolve(f, kernel, eps)
    majorant = strong_maximal(f).values.real
    floor = 1e-13 * max(float(np.max(majorant)), _TINY)
    denominator = np.maximum(majorant, floor)
    per_level = {}
    worst = 0.0
    for e1 in range(grid.L):
        for e2 in range(grid.L):
            sizes = (2 ** e1,) * grid.n + (2 ** e2,) * grid.m
            smoothed = np.abs(_iterated_mean(conv.values, sizes))
            ratio = smoothed / block_reduce(denominator, sizes, np.min)
            per_level[(e1, e2)] = float(np.max(ratio))
            worst = max(worst, per_level[(e1, e2)])
    return {"kernel": kernel.name, "eps": eps,
            "fitted_c": worst, "per_level": per_level}


_ALLOWED_CALLS = {"abs": abs, "exp": np.exp, "sqrt": np.sqrt, "log": np.log}

_ALLOWED_NODES = (
    ast.Expression, ast.BinOp, ast.UnaryOp, ast.Call, ast.Name,
    ast.Constant, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow,
    ast.USub, ast.UAdd, ast.Load,
)


def parse_kernel_expression(text):
    """Compile a small arithmetic expression into a kernel evaluator.

    Allowed: the variables x and y, the imaginary unit i, numeric
    constants, + - * / **, unary minus, and abs/exp/sqrt/log calls.
    """
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise KernelError("cannot parse kernel expression: %s" % (exc,))
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise KernelError("disallowed syntax in kernel expression: %s"
                              % (type(node).__name__,))
        if isinstance(node, ast.Call):
            if (not isinstance(node.func, ast.Name)
                    or node.func.id not in _ALLOWED_CALLS
                    or node.keywords):
                raise KernelError("disallowed call in kernel expression")
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            raise KernelError("assignment not allowed in kernel expression")
        if (isinstance(node, ast.Name) and node.id not in _VARIABLES
                and node.id != "i" and node.id not in _ALLOWED_CALLS):
            raise KernelError("unknown name %r in kernel expression"
                              % (node.id,))
    code = compile(tree, "<kernel>", "eval")
    scope = dict(_ALLOWED_CALLS)
    scope["i"] = 1j

    def evaluator(*args):
        local = dict(scope)
        local.update(zip(_VARIABLES, args))
        return eval(code, {"__builtins__": {}}, local)

    return evaluator


def custom_kernel(text, support):
    """Build a KernelSpec in x, y from an expression and a support descriptor."""
    blocks = PRODUCT_BLOCKS if support == "product" else FLAG_BLOCKS
    return KernelSpec("custom", parse_kernel_expression(text), support, blocks, 2)


def _smooth_bump_2d(x, y):
    r2 = 4.0 * (x * x + y * y)
    inside = r2 < 1.0
    # outside the disc the exponent is taken at 0, then multiplied away
    r2 = r2 * inside
    # mass-normalized so truncated convolution is an approximate identity
    return inside * np.exp(-r2 / (1.0 - r2)) / 0.3170280402818972


def _ksharp_smoothed(x, u, z):
    s = abs(x) + abs(u)
    return 1.0 / ((s * s + 0.01) * np.sqrt(z * z + 0.01))


def builtin_kernel(name):
    """Registry of the named kernels used throughout the test harness."""
    if name == "k1-product":
        return KernelSpec("k1-product", lambda x, y: 1.0 / (x * y),
                          "product", PRODUCT_BLOCKS, 2)
    if name == "k2-flag":
        return KernelSpec("k2-flag", lambda x, y: 1.0 / (x * (x + 1j * y)),
                          "flag", FLAG_BLOCKS, 2)
    if name == "smooth-bump":
        return KernelSpec("smooth-bump", _smooth_bump_2d, "none", FLAG_BLOCKS, 2)
    if name == "zero":
        return KernelSpec("zero", lambda x, y: 0.0j, "flag", FLAG_BLOCKS, 2)
    if name == "ksharp-smoothed":
        return KernelSpec("ksharp-smoothed", _ksharp_smoothed, "product",
                          (((0, 1), (0, 1), 2), ((2,), (2,), 1)), 3)
    raise KernelError("unknown kernel %r" % (name,))
