from itertools import product

import numpy as np
import pytest

import flaglp
from flaglp import dilated_level_set, fs_vector_check, hl_maximal, strong_maximal
from flaglp.errors import DomainError, ShapeMismatchError

from conftest import random_function


def exhaustive_strong_maximal(values, cubes_only=False):
    """Max average over every aligned dyadic block containing each point."""
    a = np.abs(values)
    M = a.shape[0]
    levels = int(np.log2(M))
    out = np.zeros(a.shape)
    for t1 in range(levels + 1):
        for t2 in range(levels + 1):
            if cubes_only and t1 != t2:
                continue
            s1, s2 = 2 ** t1, 2 ** t2
            for p0 in range(M):
                for p1 in range(M):
                    b0 = (p0 // s1) * s1
                    b1 = (p1 // s2) * s2
                    block = a[b0:b0 + s1, b1:b1 + s2]
                    # iterated per-axis means, the block-average definition;
                    # accumulation order mirrors a middle-axis then last-axis
                    # numpy reduction so equality can be bitwise
                    col = np.zeros(s2)
                    for r in range(s1):
                        col += block[r]
                    col /= s1
                    out[p0, p1] = max(out[p0, p1], np.ascontiguousarray(col).mean())
    return out


def test_strong_maximal_exhaustive_oracle(tiny):
    grid, _ = tiny
    f = random_function(grid, 17)
    got = strong_maximal(f).values.real
    oracle = exhaustive_strong_maximal(f.values)
    assert np.array_equal(got, oracle)


def test_hl_maximal_exhaustive_oracle(tiny):
    grid, _ = tiny
    f = random_function(grid, 18)
    got = hl_maximal(f).values.real
    oracle = exhaustive_strong_maximal(f.values, cubes_only=True)
    assert np.array_equal(got, oracle)


def enumerated_maximal(values, cubes_only=False):
    """Max mean of |values| over every aligned dyadic block, in any dimension."""
    a = np.abs(values)
    M = a.shape[0]
    exponents = range(int(np.log2(M)) + 1)
    if cubes_only:
        side_tuples = [(2 ** t,) * a.ndim for t in exponents]
    else:
        side_tuples = [tuple(2 ** t for t in ts) for ts in product(exponents, repeat=a.ndim)]
    out = np.zeros(a.shape)
    for sides in side_tuples:
        for corner in product(*(range(0, M, s) for s in sides)):
            block = tuple(slice(c, c + s) for c, s in zip(corner, sides))
            out[block] = np.maximum(out[block], a[block].mean())
    return out


@pytest.mark.parametrize("n,m", [(2, 1), (1, 2)])
@pytest.mark.parametrize("cubes_only", [False, True])
def test_maximal_exhaustive_oracle_beyond_two_dimensions(n, m, cubes_only):
    grid = flaglp.make_grid(n, m, 3)
    f = random_function(grid, 22 + n)
    maximal = hl_maximal if cubes_only else strong_maximal
    got = maximal(f).values.real
    assert np.allclose(got, enumerated_maximal(f.values, cubes_only), rtol=1e-12, atol=0.0)


def test_constant_function_fixed_point(tiny):
    grid, _ = tiny
    f = flaglp.SampledFunction(grid, np.full(grid.shape, 2.5 + 0.0j))
    assert np.allclose(strong_maximal(f).values.real, 2.5)
    assert np.allclose(hl_maximal(f).values.real, 2.5)


def test_strong_dominates_hl(small):
    # the cube family is a subfamily of the rectangle family
    grid, _ = small
    f = random_function(grid, 19)
    assert np.all(strong_maximal(f).values.real
                  >= hl_maximal(f).values.real - 1e-15)


def test_maximal_dominates_function(small):
    grid, _ = small
    f = random_function(grid, 20)
    assert np.all(strong_maximal(f).values.real >= np.abs(f.values) - 1e-15)


def test_indicator_global_average(tiny):
    grid, _ = tiny
    values = np.zeros(grid.shape, dtype=complex)
    values[0:2, 0:2] = 1.0
    f = flaglp.SampledFunction(grid, values)
    ms = strong_maximal(f).values.real
    # the whole torus is one admissible rectangle
    assert np.all(ms >= 4.0 / 64.0 - 1e-15)


def test_dilated_level_set_contains_mask(small):
    grid, _ = small
    mask = np.zeros(grid.shape, dtype=bool)
    mask[4:12, 8:24] = True
    dilated = dilated_level_set(mask, grid)
    assert np.all(dilated[mask])
    assert dilated.sum() >= mask.sum()


def test_fs_vector_check_arguments(tiny):
    grid, _ = tiny
    f = random_function(grid, 1)
    with pytest.raises(DomainError):
        fs_vector_check([f], r=1.0, p=2.0)
    with pytest.raises(DomainError):
        fs_vector_check([f], r=2.0, p=1.0)
    with pytest.raises(DomainError):
        fs_vector_check([], r=2.0, p=2.0)


def test_fs_vector_check_ratio(small):
    grid, _ = small
    family = [random_function(grid, s) for s in range(4)]
    report = fs_vector_check(family, r=2.0, p=2.0)
    assert report["ratio"] >= 1.0 - 1e-12
    assert np.isfinite(report["ratio"])
