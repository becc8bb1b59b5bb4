"""Dyadic Hardy-Littlewood and strong maximal operators.

Both operators range over dyadic families (DD-M1): cubes use one block
exponent shared by every axis, rectangles use independent per-axis dyadic
side lengths, every side from the whole torus down to one sample.
Averages are per-axis block means, one axis at a time, and the sup runs
from the coarsest block side to the finest, each level taking the max
with the coarser result expanded by 2, so the sup over the declared
family is exact, not sampled.
"""

import numpy as np

from .blocks import block_expand, block_reduce
from .errors import DomainError, ShapeMismatchError
from .grid import Grid, SampledFunction, lp_norm


def _along(ndim: int, axis: int, size: int) -> tuple:
    """Block sides that are `size` along one axis and 1 along the others."""
    return (1,) * axis + (size,) + (1,) * (ndim - axis - 1)


def _iterated_mean(arr: np.ndarray, sizes) -> np.ndarray:
    """Means over aligned blocks with sides `sizes`, taken one axis at a time in axis order."""
    for axis, size in enumerate(sizes):
        if size > 1:
            arr = block_reduce(arr, _along(arr.ndim, axis, size), np.mean)
    return arr


def hl_maximal(f: SampledFunction) -> SampledFunction:
    """Dyadic Hardy-Littlewood maximal function (cube family)."""
    grid = f.grid
    a = np.abs(f.values)
    out = None
    for t in range(grid.L, -1, -1):
        means = _iterated_mean(a, (2**t,) * grid.ndim)
        out = means if out is None else np.maximum(means, block_expand(out, (2,) * grid.ndim))
    return SampledFunction(grid, out)


def strong_maximal(f: SampledFunction) -> SampledFunction:
    """Dyadic strong maximal function (independent per-axis side lengths)."""
    grid = f.grid

    def sup_from(arr: np.ndarray, axis: int) -> np.ndarray:
        """Max over the block sides of axes >= axis, at full resolution along them."""
        if axis == grid.ndim:
            return arr
        out = None
        for t in range(grid.L, -1, -1):
            sup = sup_from(_iterated_mean(arr, _along(grid.ndim, axis, 2**t)), axis + 1)
            out = sup if out is None else np.maximum(sup, block_expand(out, _along(grid.ndim, axis, 2)))
        return out

    return SampledFunction(grid, sup_from(np.abs(f.values), 0))


def dilated_level_set(mask: np.ndarray, grid: Grid) -> np.ndarray:
    """{M_s(indicator of mask) >= 1/2} as a boolean cell mask.

    The closed threshold makes the stopping-time support property exact:
    a rectangle covering at least half its measure inside the mask is a
    member of the maximal family and certifies the bound on all its points.
    """
    if mask.shape != grid.shape:
        raise ShapeMismatchError("mask shape does not match the grid")
    ms = strong_maximal(SampledFunction(grid, mask.astype(float)))
    return ms.values.real >= 0.5


def fs_vector_check(family: list, r: float, p: float) -> dict:
    """Vector-valued maximal ratio ||(sum (M_s f_i)^r)^(1/r)||_p / ||(sum |f_i|^r)^(1/r)||_p."""
    if r <= 1 or p <= 1:
        raise DomainError(f"the vector-valued inequality needs r > 1 and p > 1, got r={r}, p={p}")
    if not family:
        raise DomainError("empty function family")
    grid = family[0].grid
    for f in family:
        if f.grid != grid:
            raise ShapeMismatchError("family members live on different grids")
    num_acc = np.zeros(grid.shape)
    den_acc = np.zeros(grid.shape)
    for f in family:
        num_acc += strong_maximal(f).values.real ** r
        den_acc += np.abs(f.values) ** r
    numerator = lp_norm(SampledFunction(grid, num_acc ** (1.0 / r)), p)
    denominator = lp_norm(SampledFunction(grid, den_acc ** (1.0 / r)), p)
    degenerate = False
    if denominator == 0.0:
        ratio, degenerate = 1.0, True
    else:
        ratio = numerator / denominator
    return {
        "r": r,
        "p": p,
        "count": len(family),
        "numerator": numerator,
        "denominator": denominator,
        "ratio": ratio,
        "degenerate": degenerate,
    }
