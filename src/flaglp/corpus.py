"""Deterministic test-function corpora.

Four kinds of function are generated, cycled in order: band-limited
Gaussian random fields with independent coefficients per dyadic frequency
annulus, indicator unions of random dyadic rectangles, single-atom
functions with exactly one nonzero analysis coefficient, and smooth
separable bumps.  The generator is the counter-based Philox algorithm so
identical seeds reproduce identical corpora across platforms, and the
algorithm name is recorded in the manifest.
"""

import math

import numpy as np

from .errors import ConfigurationError
from .filters import DEFAULT_OFFSET, FilterProfile, build_filter_bank
from .grid import DyadicRectangle, SampledFunction, rectangle_index_shape
from .transform import (CoefficientField, anchored_scales, band_projector,
                        synthesize_discrete)

RNG_ALGORITHM = "philox4x64"

DEFAULT_KINDS = ("band-limited", "indicator", "atom", "bump")


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def _annulus_index(grid):
    """Dyadic annulus label per lattice frequency, -1 at the origin."""
    norm = grid.frequency_norm(tuple(range(grid.ndim)))
    with np.errstate(divide="ignore"):
        idx = np.floor(np.log2(np.maximum(norm, 1e-300))).astype(np.int64)
    idx[norm == 0.0] = -1
    return idx


def band_limited_field(grid, bank, rng):
    """Gaussian field supported on the resolvable band.

    Coefficients are iid complex Gaussians scaled per annulus, restricted
    to the band projector, with the second-factor zero hyperplane removed
    so the low-pass channel carries no energy at all.
    """
    mask = band_projector(bank).astype(bool)
    second_axes = tuple(range(grid.n, grid.ndim))
    second_norm = grid.frequency_norm(second_axes)
    mask &= np.broadcast_to(second_norm > 0.0, grid.shape)
    annulus = _annulus_index(grid)
    weights = np.where(annulus >= 0, 2.0 ** (-0.5 * annulus), 0.0)
    coeffs = (rng.standard_normal(grid.shape)
              + 1j * rng.standard_normal(grid.shape))
    spectrum = np.where(mask, coeffs * weights, 0.0)
    values = np.fft.ifftn(spectrum)
    scale = np.sqrt(np.sum(np.abs(values) ** 2) * grid.cell_volume)
    if scale > 0.0:
        values = values / scale
    return SampledFunction(grid, values)


def indicator_union(grid, bank, rng, pieces=3):
    """Indicator of a union of random dyadic rectangles."""
    lo, hi = bank.j_range
    values = np.zeros(grid.shape, dtype=np.complex128)
    for _ in range(pieces):
        j = int(rng.integers(lo, hi + 1))
        k = int(rng.integers(lo, hi + 1))
        # one flat draw over the rectangles in enumerate_rectangles order
        shape = rectangle_index_shape(grid, j, k, bank.N)
        flat = int(rng.integers(0, math.prod(shape)))
        idx = tuple(int(c) for c in np.unravel_index(flat, shape))
        rect = DyadicRectangle(j=j, k=k, N=bank.N, i_idx=idx[:grid.n], j_idx=idx[grid.n:])
        values[rect.sample_slices(grid)] = 1.0
    return SampledFunction(grid, values)


def single_atom(grid, bank, rng):
    """Discrete synthesis of a one-hot coefficient field."""
    scales = anchored_scales(bank)
    hot_key = scales[int(rng.integers(0, len(scales)))]
    slots = {key: np.zeros(rectangle_index_shape(grid, *key, bank.N),
                           dtype=np.complex128)
             for key in scales}
    hot = tuple(int(rng.integers(0, c)) for c in slots[hot_key].shape)
    slots[hot_key][hot] = 1.0
    coeffs = CoefficientField(bank, slots, np.zeros(grid.shape, dtype=np.complex128))
    return synthesize_discrete(coeffs)


def smooth_bump(grid, rng):
    """Separable smooth bump with random center and dyadic widths."""
    values = np.ones(grid.shape, dtype=np.complex128)
    t = np.arange(grid.samples_per_axis) * grid.spacing
    for axis in range(grid.ndim):
        center = float(rng.uniform(0.0, 1.0))
        width = 2.0 ** -int(rng.integers(1, 4))
        # periodic distance to the center
        d = np.abs(t - center)
        d = np.minimum(d, 1.0 - d)
        u = (d / width) ** 2
        axis_vals = np.where(u < 1.0, np.exp(-u / np.maximum(1.0 - u, 1e-300)),
                             0.0)
        shape = [1] * grid.ndim
        shape[axis] = grid.samples_per_axis
        values = values * axis_vals.reshape(shape)
    return SampledFunction(grid, values)


def gen_corpus(grid, count, seed, bank=None, N=None, kinds=DEFAULT_KINDS):
    """Deterministic corpus of tagged test functions with a manifest.

    The functions are built on bank, whose offset is recorded in the
    manifest.  N only chooses the offset of the default-profile bank built
    when none is given (default DEFAULT_OFFSET); with a bank, an N other
    than bank.N raises ConfigurationError.
    """
    if count < 0:
        raise ConfigurationError("corpus count must be nonnegative")
    for kind in kinds:
        if kind not in DEFAULT_KINDS:
            raise ConfigurationError("unknown corpus kind %r" % (kind,))
    if bank is None:
        bank = build_filter_bank(grid, FilterProfile(), DEFAULT_OFFSET if N is None else N)
    elif N is not None and N != bank.N:
        raise ConfigurationError(
            "offset N=%d conflicts with the bank's N=%d" % (N, bank.N))
    rng = _rng(seed)
    entries = []
    functions = []
    for index in range(count):
        kind = kinds[index % len(kinds)]
        if kind == "band-limited":
            f = band_limited_field(grid, bank, rng)
        elif kind == "indicator":
            f = indicator_union(grid, bank, rng)
        elif kind == "atom":
            f = single_atom(grid, bank, rng)
        else:
            f = smooth_bump(grid, rng)
        functions.append(f)
        entries.append({"index": index, "kind": kind})
    manifest = {
        "generator": RNG_ALGORITHM,
        "seed": int(seed),
        "count": int(count),
        "grid": {"n": grid.n, "m": grid.m, "L": grid.L},
        "offset": int(bank.N),
        "bank": bank.identifier(),
        "entries": entries,
    }
    return functions, manifest
