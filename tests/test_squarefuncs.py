import numpy as np
import pytest

import flaglp
from flaglp import analyze, g_flag, g_flag_discrete, hardy_norm, pp_compare
from flaglp.errors import DomainError, ShapeMismatchError
from flaglp.transform import CoefficientField, anchored_scales, low_pass_apply

from conftest import random_function


def test_g_flag_zero(small):
    grid, bank = small
    out = g_flag(flaglp.SampledFunction(grid, np.zeros(grid.shape)), bank)
    assert np.max(out.values.real) == 0.0


def test_plancherel_identity(small):
    grid, bank = small
    for seed in range(20):
        f = random_function(grid, seed)
        g2 = flaglp.lp_norm(g_flag(f, bank), 2.0) ** 2
        lp2 = flaglp.lp_norm(low_pass_apply(f, bank), 2.0) ** 2
        f2 = flaglp.lp_norm(f, 2.0) ** 2
        assert abs(g2 + lp2 - f2) / f2 <= 1e-9


def test_g_flag_homogeneity(small):
    grid, bank = small
    f = random_function(grid, 3)
    a = g_flag(f * 3.0, bank).values.real
    b = 3.0 * g_flag(f, bank).values.real
    assert np.allclose(a, b, rtol=1e-12, atol=1e-300)


def test_norm_equivalence_envelope(small):
    # qualitative two-sided bound: the ratio stays in a narrow band over
    # random band-limited data
    grid, bank = small
    ratios = []
    for seed in range(20):
        fs, _ = flaglp.gen_corpus(grid, 1, seed, bank=bank, N=2,
                                  kinds=("band-limited",))
        f = fs[0]
        for p in (1.5, 3.0):
            ratios.append(flaglp.lp_norm(g_flag(f, bank), p)
                          / flaglp.lp_norm(f, p))
    assert max(ratios) / min(ratios) <= 10.0


def test_g_flag_discrete_one_hot(small):
    grid, bank = small
    scales = anchored_scales(bank)
    slots = {key: np.zeros(flaglp.rectangle_counts(grid, key[0], key[1], bank.N),
                           dtype=complex)
             for key in scales}
    j, k = scales[0]
    slots[(j, k)][0, 0] = 2.0
    coeffs = CoefficientField(bank, slots, np.zeros(grid.shape, dtype=complex))
    out = g_flag_discrete(coeffs).values.real
    rect = flaglp.enumerate_rectangles(grid, j, k, bank.N)[0]
    mask = np.zeros(grid.shape, dtype=bool)
    mask[rect.sample_slices(grid)] = True
    assert np.allclose(out[mask], 2.0)
    assert np.max(np.abs(out[~mask])) == 0.0


def test_monotone_coefficient_domination(small):
    grid, bank = small
    f = random_function(grid, 8)
    coeffs = analyze(f, bank)
    key = anchored_scales(bank)[2]
    bigger_slots = dict(coeffs.slots)
    bigger_slots[key] = coeffs.slots[key] * 2.0
    bigger = CoefficientField(bank, bigger_slots, coeffs.low_pass)
    assert np.all(g_flag_discrete(bigger).values.real
                  >= g_flag_discrete(coeffs).values.real - 1e-15)


def test_hardy_norm_domain(small):
    grid, bank = small
    f = random_function(grid, 1)
    with pytest.raises(DomainError):
        hardy_norm(f, bank, 1.5)
    with pytest.raises(DomainError):
        hardy_norm(f, bank, 0.0)


def test_hardy_norm_homogeneity(small):
    grid, bank = small
    f = random_function(grid, 4)
    for p in (0.5, 0.8, 1.0):
        for c in (0.01, 0.37, 1.0, 12.5, 50.0):
            assert hardy_norm(f * c, bank, p) == pytest.approx(
                c * hardy_norm(f, bank, p), rel=1e-12), (c, p)


def test_hardy_norm_p_triangle(small):
    grid, bank = small
    p = 0.8
    for seed in range(5):
        f = random_function(grid, seed)
        g = random_function(grid, seed + 100)
        lhs = hardy_norm(f + g, bank, p) ** p
        rhs = hardy_norm(f, bank, p) ** p + hardy_norm(g, bank, p) ** p
        assert lhs <= rhs + 1e-9


def test_pp_same_bank_ratio_at_least_one(small):
    grid, bank = small
    f = random_function(grid, 6)
    report = pp_compare(f, bank, bank, 1.0)
    assert report.ratio >= 1.0 - 1e-12


def test_pp_zero_degenerate(small):
    grid, bank = small
    f = flaglp.SampledFunction(grid, np.zeros(grid.shape))
    report = pp_compare(f, bank, bank, 1.0)
    assert report.ratio == 1.0 and report.degenerate


def test_pp_sup_anchor_inf_sandwich(small):
    grid, bank = small
    f = random_function(grid, 12)
    p = 1.0
    sup_norm = pp_compare(f, bank, bank, p).sup_norm
    inf_norm = pp_compare(f, bank, bank, p).inf_norm
    anchor = flaglp.lp_norm(g_flag_discrete(analyze(f, bank)), p)
    assert sup_norm + 1e-12 >= anchor >= inf_norm - 1e-12


def test_pp_incompatible_banks(small, small3):
    grid, bank2 = small
    _, bank3 = small3
    f = random_function(grid, 0)
    with pytest.raises(ShapeMismatchError):
        pp_compare(f, bank2, bank3, 1.0)
