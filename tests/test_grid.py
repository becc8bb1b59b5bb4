import numpy as np
import pytest

import flaglp
from flaglp import DyadicRectangle, SampledFunction
from flaglp.errors import FlagLPError

from conftest import random_function


def test_make_grid_basic():
    grid = flaglp.make_grid(1, 1, 5)
    assert grid.samples_per_axis == 32
    assert grid.ndim == 2
    assert grid.shape == (32, 32)
    assert grid.spacing == pytest.approx(1.0 / 32)
    assert grid.cell_volume == pytest.approx(grid.spacing ** 2)


def test_axis_frequencies_layout():
    grid = flaglp.make_grid(1, 1, 3)
    freqs = grid.axis_frequencies()
    assert sorted(freqs.tolist()) == sorted(np.fft.fftfreq(8, d=1.0 / 8).tolist())


def test_frequency_norm_euclidean():
    grid = flaglp.make_grid(1, 1, 3)
    norm = grid.frequency_norm((0, 1))
    freqs = grid.axis_frequencies()
    expect = np.sqrt(freqs[:, None] ** 2 + freqs[None, :] ** 2)
    assert np.allclose(norm, expect, atol=0)


def test_rectangle_tiling_exact():
    grid = flaglp.make_grid(1, 1, 5)
    for j, k, N in [(0, 0, 1), (1, 2, 2), (2, 0, 2), (3, 3, 1)]:
        rects = flaglp.enumerate_rectangles(grid, j, k, N)
        side_i = 2.0 ** -(j + N)
        side_j = 2.0 ** -(min(j, k) + N)
        total = len(rects) * side_i * side_j
        assert total == pytest.approx(1.0, abs=1e-15)


def test_rectangle_counts_match_enumeration():
    grid = flaglp.make_grid(1, 1, 4)
    for j, k, N in [(0, 0, 1), (1, 1, 2), (0, 2, 1)]:
        ci, cj = flaglp.rectangle_counts(grid, j, k, N)
        rects = flaglp.enumerate_rectangles(grid, j, k, N)
        assert len(rects) == ci * cj


def test_rectangle_nesting_by_index():
    # each rectangle at (j+1, k) sits inside exactly one rectangle at (j, k)
    grid = flaglp.make_grid(1, 1, 5)
    N = 1
    j, k = 1, 1
    fine = flaglp.enumerate_rectangles(grid, j + 1, k, N)
    coarse = flaglp.enumerate_rectangles(grid, j, k, N)
    coarse_cells = {}
    for r in coarse:
        mask = np.zeros(grid.shape, dtype=bool)
        mask[r.sample_slices(grid)] = True
        coarse_cells[(r.i_idx, r.j_idx)] = mask
    for r in fine:
        mask = np.zeros(grid.shape, dtype=bool)
        mask[r.sample_slices(grid)] = True
        parents = [key for key, cm in coarse_cells.items()
                   if np.all(cm[mask])]
        assert len(parents) == 1


def test_sample_slices_cover_grid():
    grid = flaglp.make_grid(1, 1, 4)
    for j, k, N in [(0, 0, 1), (1, 0, 2)]:
        cover = np.zeros(grid.shape, dtype=int)
        for r in flaglp.enumerate_rectangles(grid, j, k, N):
            cover[r.sample_slices(grid)] += 1
        assert np.all(cover == 1)


def test_sampled_function_arithmetic():
    grid = flaglp.make_grid(1, 1, 3)
    f = random_function(grid, 0)
    g = random_function(grid, 1)
    assert np.allclose((f + g).values, f.values + g.values)
    assert np.allclose((f - g).values, f.values - g.values)
    assert np.allclose((f * 2.5).values, f.values * 2.5)


def test_sampled_function_shape_check():
    grid = flaglp.make_grid(1, 1, 3)
    with pytest.raises(FlagLPError):
        SampledFunction(grid, np.zeros((4, 4)))


def test_sampled_function_rejects_nan():
    grid = flaglp.make_grid(1, 1, 3)
    bad = np.zeros(grid.shape, dtype=complex)
    bad[0, 0] = np.nan
    with pytest.raises(FlagLPError):
        SampledFunction(grid, bad)


def test_lp_norm_against_dense():
    grid = flaglp.make_grid(1, 1, 4)
    f = random_function(grid, 3)
    for p in (0.5, 1.0, 2.0, 3.0):
        expect = (np.sum(np.abs(f.values) ** p) * grid.cell_volume) ** (1.0 / p)
        assert flaglp.lp_norm(f, p) == pytest.approx(expect, rel=1e-12)


def test_lp_norm_homogeneity():
    # signs, zero, the smallest subnormal, tiny and large scales
    grid = flaglp.make_grid(1, 1, 3)
    for seed in (0, 57, 100):
        f = random_function(grid, seed)
        for p in (0.5, 0.8, 1.0, 2.0, 4.0):
            for c in (-100.0, -3.25, -1e-3, 0.0, 5e-324, 1e-300, 0.01, 1.0, 7.5, 100.0):
                lhs = flaglp.lp_norm(f * c, p)
                rhs = abs(c) * flaglp.lp_norm(f, p)
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300), (c, p, seed)


def test_dyadic_rectangle_validation():
    with pytest.raises(FlagLPError):
        DyadicRectangle(j=-1, k=0, N=1, i_idx=(0,), j_idx=(0,))
