import numpy as np
import pytest

import flaglp
from flaglp import OpenSetApprox, analyze, cmo_norm, cp_norm, duality_pair, generate_candidates, sp_norm
from flaglp.blocks import block_reduce, block_sizes
from flaglp.errors import ConfigurationError, DomainError, ShapeMismatchError
from flaglp.grid import rectangle_index_shape
from flaglp.transform import CoefficientField, anchored_scales

from conftest import random_function


def make_coeffs(grid, bank, seed, density=1.0):
    rng = np.random.default_rng(seed)
    slots = {}
    for j, k in anchored_scales(bank):
        shape = flaglp.rectangle_counts(grid, j, k, bank.N)
        arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if density < 1.0:
            arr = np.where(rng.uniform(size=shape) < density, arr, 0.0)
        slots[(j, k)] = arr.astype(complex)
    return CoefficientField(bank, slots, np.zeros(grid.shape, dtype=complex))


def dense_sp_norm(coeffs, p):
    """Independent pointwise evaluation of the normalized aggregate."""
    grid = coeffs.bank.grid
    total = np.zeros(grid.shape)
    for (j, k), slot in coeffs.slots.items():
        for rect in flaglp.enumerate_rectangles(grid, j, k, coeffs.N):
            value = abs(slot[rect.i_idx + rect.j_idx]) ** 2 / rect.measure(grid.n, grid.m)
            total[rect.sample_slices(grid)] += value
    field = np.sqrt(total)
    return (np.sum(field ** p) * grid.cell_volume) ** (1.0 / p)


def test_sp_norm_dense_oracle(tiny):
    grid, bank = tiny
    coeffs = make_coeffs(grid, bank, 31)
    for p in (0.8, 1.0, 2.0):
        assert abs(sp_norm(coeffs, p) - dense_sp_norm(coeffs, p)) <= 1e-10


def test_sp_norm_homogeneity(tiny):
    grid, bank = tiny
    coeffs = make_coeffs(grid, bank, 32)
    scaled = CoefficientField(bank,
                              {k: 3.0 * v for k, v in coeffs.slots.items()},
                              coeffs.low_pass)
    assert sp_norm(scaled, 1.0) == pytest.approx(3.0 * sp_norm(coeffs, 1.0),
                                                 rel=1e-12)


def test_cp_norm_one_hot_exhaustive_oracle(tiny):
    # for a one-hot sequence the best open set is the hot rectangle
    # itself, so the exhaustive value is closed-form
    grid, bank = tiny
    for p in (0.7, 1.0):
        for which in range(3):
            slots = {key: np.zeros(flaglp.rectangle_counts(grid, key[0], key[1], bank.N),
                                   dtype=complex)
                     for key in anchored_scales(bank)}
            j, k = anchored_scales(bank)[which % len(anchored_scales(bank))]
            hot = (0, which % slots[(j, k)].shape[1])
            slots[(j, k)][hot] = 1.5
            t = CoefficientField(bank, slots, np.zeros(grid.shape, dtype=complex))
            measure = flaglp.DyadicRectangle(j, k, bank.N, hot[:1], hot[1:]).measure(1, 1)
            oracle = float(np.sqrt(measure ** (1.0 - 2.0 / p) * 1.5 ** 2))
            got = cp_norm(t, p, generate_candidates(t, 64))
            assert got == oracle


def test_cp_norm_candidate_monotonicity(tiny):
    grid, bank = tiny
    t = make_coeffs(grid, bank, 33)
    candidates = generate_candidates(t, 32)
    few = cp_norm(t, 1.0, candidates[:4])
    many = cp_norm(t, 1.0, candidates)
    assert many >= few


def test_cp_norm_arguments(tiny):
    grid, bank = tiny
    t = make_coeffs(grid, bank, 34)
    with pytest.raises(DomainError):
        cp_norm(t, 2.0, generate_candidates(t, 4))
    with pytest.raises(ConfigurationError):
        cp_norm(t, 1.0, [])


def test_cmo_norm_monotone_and_homogeneous(small):
    grid, bank = small
    f = random_function(grid, 35)
    t = analyze(f, bank)
    candidates = generate_candidates(t, 16)
    few = cmo_norm(f, bank, 1.0, candidates=candidates[:2])
    many = cmo_norm(f, bank, 1.0, candidates=candidates)
    assert many >= few
    scaled = cmo_norm(flaglp.SampledFunction(grid, 2.0 * f.values), bank, 1.0,
                      candidates=candidates)
    assert scaled == pytest.approx(2.0 * many, rel=1e-10)


def rectangles_inside(omega, j, k, N):
    """Per-rectangle minimum of the cell mask, one enumerated rectangle at a time."""
    grid = omega.grid
    inside = np.zeros(rectangle_index_shape(grid, j, k, N), dtype=bool)
    for rect in flaglp.enumerate_rectangles(grid, j, k, N):
        inside[rect.i_idx + rect.j_idx] = omega.cell_mask[rect.sample_slices(grid)].min()
    return inside


def carleson_reference(weights, p, candidates, N):
    """Max over candidates of (|Omega|^(1-2/p) * sum of the weights inside Omega)^(1/2)."""
    best = 0.0
    for omega in candidates:
        total = 0.0
        for (j, k), w in weights.items():
            inside = rectangles_inside(omega, j, k, N)
            if inside.any():
                total += float(np.sum(w[inside]))
        best = max(best, float(np.sqrt(omega.measure ** (1.0 - 2.0 / p) * total)))
    return best


@pytest.mark.parametrize("n,m,L", [(1, 1, 5), (2, 1, 4), (1, 2, 4)])
def test_containment_matches_enumerated_rectangles(n, m, L):
    grid = flaglp.make_grid(n, m, L)
    bank = flaglp.build_filter_bank(grid, N=1)
    f = random_function(grid, 41 + n)
    t = analyze(f, bank)
    # generated candidates are unions of rectangles; add sets cutting through blocks
    rng = np.random.default_rng(n)
    shifted = np.zeros(grid.shape, dtype=bool)
    shifted[(slice(1, -3),) * grid.ndim] = True
    candidates = generate_candidates(t, 12) + [
        OpenSetApprox(grid=grid, cell_mask=rng.uniform(size=grid.shape) < 0.9),
        OpenSetApprox(grid=grid, cell_mask=shifted),
    ]
    coeff_weights = {key: np.abs(slot) ** 2 for key, slot in t.slots.items()}
    # cell sums of |psi * f|^2 computed as cmo_norm does; only containment differs
    fhat = np.fft.fftn(f.values)
    cell_sums = {
        (j, k): block_reduce(np.abs(np.fft.ifftn(flaglp.lift_flag_filter(bank, j, k) * fhat)) ** 2,
                             block_sizes(grid, j, k, bank.N), np.sum) * grid.cell_volume
        for j, k in bank.scales
    }
    # one candidate at a time, so the max cannot hide a wrong value
    for family in [[omega] for omega in candidates] + [candidates]:
        for p in (0.7, 1.0):
            assert cp_norm(t, p, family) == carleson_reference(coeff_weights, p, family, bank.N)
            assert cmo_norm(f, bank, p, candidates=family) == carleson_reference(
                cell_sums, p, family, bank.N)


def test_duality_pairing_matches_direct_sum(tiny):
    grid, bank = tiny
    s = make_coeffs(grid, bank, 36)
    t = make_coeffs(grid, bank, 37)
    expect = sum(np.sum(s.slots[key] * np.conj(t.slots[key]))
                 for key in s.slots)
    assert duality_pair(s, t) == pytest.approx(expect, rel=1e-12)


def test_duality_bound_sparse_pairs(tiny):
    grid, bank = tiny
    ratios = []
    for seed in range(25):
        s = make_coeffs(grid, bank, 2 * seed, density=0.1)
        t = make_coeffs(grid, bank, 2 * seed + 1, density=0.1)
        sn = sp_norm(s, 1.0)
        tn = cp_norm(t, 1.0, generate_candidates(t, 32))
        if sn == 0.0 or tn == 0.0:
            continue
        ratios.append(abs(duality_pair(s, t)) / (sn * tn))
    assert ratios and all(np.isfinite(r) for r in ratios)
    assert max(ratios) <= 100.0


def test_open_set_approx_validation(tiny):
    grid, _ = tiny
    with pytest.raises(ConfigurationError):
        OpenSetApprox(grid=grid, cell_mask=np.zeros(grid.shape, dtype=bool))
    with pytest.raises(ShapeMismatchError):
        OpenSetApprox(grid=grid, cell_mask=np.ones((4, 4), dtype=bool))


def test_open_set_from_rectangles(tiny):
    grid, bank = tiny
    rects = flaglp.enumerate_rectangles(grid, 0, 0, 1)[:2]
    omega = OpenSetApprox.from_rectangles(grid, rects)
    expect = np.zeros(grid.shape, dtype=bool)
    for r in rects:
        expect[r.sample_slices(grid)] = True
    assert np.array_equal(omega.cell_mask, expect)
    assert omega.measure == pytest.approx(expect.sum() * grid.cell_volume)


def test_generate_candidates_deterministic(tiny):
    grid, bank = tiny
    t = make_coeffs(grid, bank, 40)
    a = generate_candidates(t, 16)
    b = generate_candidates(t, 16)
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert np.array_equal(x.cell_mask, y.cell_mask)
