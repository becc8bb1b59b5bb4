"""Reductions over aligned dyadic blocks and piecewise-constant expansion.

The only module that reshapes grid arrays into dyadic blocks; every
per-rectangle or per-block reduction in the library goes through it.
"""

import numpy as np

from .grid import Grid, rectangle_counts


def block_sizes(grid: Grid, j: int, k: int, N: int) -> tuple:
    """Samples per rectangle side along every axis at scale (j, k, N)."""
    ci, cj = rectangle_counts(grid, j, k, N)
    M = grid.samples_per_axis
    return (M // ci,) * grid.n + (M // cj,) * grid.m


def block_reduce(arr: np.ndarray, sizes, op) -> np.ndarray:
    """Reduce arr over aligned blocks with sides `sizes`, one per axis.

    op is a numpy reduction accepting an axis tuple (np.max, np.min,
    np.mean, np.sum).  Returns one value per block; at the sizes of a
    scale it is indexed like the coefficient slots.
    """
    split = sum(((n // s, s) for n, s in zip(arr.shape, sizes)), ())
    return op(arr.reshape(split), axis=tuple(range(1, 2 * arr.ndim, 2)))


def block_expand(arr: np.ndarray, sizes) -> np.ndarray:
    """Piecewise-constant extension: every value fills a block with sides `sizes`."""
    for axis, size in enumerate(sizes):
        if size > 1:
            arr = np.repeat(arr, size, axis=axis)
    return arr
