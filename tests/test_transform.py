import numpy as np
import pytest

import flaglp
from flaglp import (CoefficientField, analyze, neumann_inverse, reconstruction_apply,
                    synthesize_continuous, synthesize_discrete)
from flaglp.errors import ConvergenceError, DivergenceError, ShapeMismatchError
from flaglp.filters import FilterProfile, lift_flag_filter
from flaglp.transform import (_anchor_slices, anchored_scales, band_projector,
                              channel_energies, estimate_remainder_norm,
                              folded_reconstruction_hat, low_pass_apply, remainder_apply)

from conftest import dense_cyclic_convolution, random_function


def rel_l2(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


def test_analyze_zero(small):
    grid, bank = small
    coeffs = analyze(flaglp.SampledFunction(grid, np.zeros(grid.shape)), bank)
    for slot in coeffs.slots.values():
        assert not np.any(slot)
    assert not np.any(coeffs.low_pass)


def test_analyze_matches_dense_spatial_convolution(tiny):
    # FFT channel pipeline vs O(M^4) direct cyclic convolution
    grid, bank = tiny
    f = random_function(grid, 5)
    for j, k in anchored_scales(bank):
        spatial = np.fft.ifftn(lift_flag_filter(bank, j, k))
        oracle = dense_cyclic_convolution(spatial, f.values)
        anchors = oracle[_anchor_slices(grid, j, k, bank.N)]
        got = analyze(f, bank).slots[(j, k)]
        assert np.max(np.abs(got - anchors)) <= 1e-9


def test_analyze_linearity(small):
    grid, bank = small
    f = random_function(grid, 1)
    g = random_function(grid, 2)
    cf = analyze(f, bank)
    cg = analyze(g, bank)
    combined = analyze(f * 2.0 + g * (-1.5), bank)
    for key in cf.slots:
        expect = 2.0 * cf.slots[key] - 1.5 * cg.slots[key]
        assert np.max(np.abs(combined.slots[key] - expect)) <= 1e-12


def test_analyze_single_frequency_slots(small):
    # a pure frequency in annulus j0 excites only neighboring j slots
    grid, bank = small
    j0 = 3
    spectrum = np.zeros(grid.shape, dtype=complex)
    spectrum[2 ** j0, 1] = 1.0
    f = flaglp.SampledFunction(grid, np.fft.ifftn(spectrum))
    coeffs = analyze(f, bank)
    for (j, k), slot in coeffs.slots.items():
        if abs(j - j0) > 1 and np.any(np.abs(slot) > 1e-14):
            raise AssertionError(f"slot ({j},{k}) excited by annulus {j0}")


def test_shift_covariance_exact(small):
    # translating by one coarsest anchor cell (a multiple of every
    # channel's anchor step) shifts every slot index exactly
    grid, bank = small
    f = random_function(grid, 9)
    coeffs = analyze(f, bank)
    shift = max(grid.samples_per_axis // slot.shape[0]
                for slot in coeffs.slots.values())
    shifted = flaglp.SampledFunction(grid, np.roll(f.values, shift, axis=0))
    shifted_coeffs = analyze(shifted, bank)
    for (j, k), slot in coeffs.slots.items():
        step = grid.samples_per_axis // slot.shape[0]
        rolled = np.roll(slot, shift // step, axis=0)
        assert np.max(np.abs(shifted_coeffs.slots[(j, k)] - rolled)) == 0.0


def test_partition_plancherel_exact(small):
    grid, bank = small
    f = random_function(grid, 11)
    rebuilt = synthesize_continuous(f, bank)
    assert rel_l2(rebuilt.values, f.values) <= 1e-12


def test_bypass_plus_anchored_completes_partition(small):
    grid, bank = small
    total = bank.bypass_hat ** 2
    for j, k in anchored_scales(bank):
        total = total + lift_flag_filter(bank, j, k) ** 2
    assert float(np.max(np.abs(total - 1.0))) <= 1e-10


def test_channel_convolution_matches_analyze(small):
    grid, bank = small
    f = random_function(grid, 4)
    coeffs = analyze(f, bank)
    j, k = anchored_scales(bank)[0]
    conv = np.fft.ifftn(lift_flag_filter(bank, j, k) * np.fft.fftn(f.values))
    anchors = conv[_anchor_slices(grid, j, k, bank.N)]
    assert np.max(np.abs(coeffs.slots[(j, k)] - anchors)) == 0.0


def test_low_pass_apply_is_projection_like(small):
    grid, bank = small
    f = random_function(grid, 6)
    lp = low_pass_apply(f, bank)
    # applying the low-pass filter twice shrinks nothing beyond the
    # symbol square (multiplier is in [0, 1])
    assert flaglp.lp_norm(lp, 2.0) <= flaglp.lp_norm(f, 2.0) * (1 + 1e-12)


def test_band_projector_band_limited_roundtrip(small3):
    grid, bank = small3
    mask = band_projector(bank)
    rng = np.random.default_rng(0)
    spectrum = np.where(mask, rng.standard_normal(grid.shape)
                        + 1j * rng.standard_normal(grid.shape), 0.0)
    f = flaglp.SampledFunction(grid, np.fft.ifftn(spectrum))
    g, iters = neumann_inverse(f, bank, tol=1e-10)
    rebuilt = synthesize_discrete(analyze(g, bank))
    assert rel_l2(rebuilt.values, f.values) <= 1e-8


def test_remainder_decay_monotone():
    grid = flaglp.make_grid(1, 1, 7)
    norms = []
    for N in (1, 2, 3, 4):
        bank = flaglp.build_filter_bank(grid, N=N)
        norms.append(estimate_remainder_norm(bank))
    assert all(a > b for a, b in zip(norms, norms[1:])), norms


@pytest.mark.parametrize("N", [2, 3])
def test_remainder_norm_is_dense_two_norm(N):
    # exact on alias-free banks: the 2-norm of the dense matrix whose rows
    # are R(delta) over the grid deltas, with T from the folded loop
    grid = flaglp.make_grid(1, 1, 5)
    bank = flaglp.build_filter_bank(grid, N=N)
    assert bank.alias_free
    rows = [(d - np.fft.ifftn(folded_reconstruction_hat(np.fft.fftn(d), bank))).ravel()
            for d in np.eye(grid.shape[0] * grid.shape[1]).reshape(-1, *grid.shape)]
    assert estimate_remainder_norm(bank) == pytest.approx(np.linalg.norm(np.array(rows), 2), rel=1e-12)


def test_divergence_detected_below_contraction():
    # N = 1 and N = 2 undersample (measured remainder norm exceeds 1);
    # the inverse must refuse rather than loop or overflow
    grid = flaglp.make_grid(1, 1, 6)
    for N in (1, 2):
        bank = flaglp.build_filter_bank(grid, N=N)
        f = random_function(grid, 2)
        with pytest.raises(DivergenceError):
            neumann_inverse(f, bank)


def test_neumann_iteration_cap_reports_last_increment(small3):
    # at max_iter=3 the last increment is R^3 f, and the error quotes its
    # size relative to ||f||
    grid, bank = small3
    f = random_function(grid, 4)
    increment = f
    for _ in range(3):
        increment = remainder_apply(increment, bank)
    relative = np.linalg.norm(increment.values) / np.linalg.norm(f.values)
    assert relative > 1e-12
    with pytest.raises(ConvergenceError, match=r"cap 3 exceeded \(last increment %.2e of \|\|f\|\|\)"
                       % relative):
        neumann_inverse(f, bank, tol=1e-12, max_iter=3)


def test_roundtrip_corpus(small3):
    grid, bank = small3
    functions, _ = flaglp.gen_corpus(grid, 8, 7, bank=bank, N=3)
    for f in functions:
        g, iters = neumann_inverse(f, bank, tol=1e-8)
        rebuilt = synthesize_discrete(analyze(g, bank))
        assert rel_l2(rebuilt.values, f.values) <= 1e-8 + 1e-7


def test_synthesize_discrete_one_hot_atom(tiny):
    # one coefficient -> translated cell-summed filter (linearity atom)
    grid, bank = tiny
    j, k = anchored_scales(bank)[0]
    counts = flaglp.rectangle_counts(grid, j, k, bank.N)
    slots = {key: np.zeros(flaglp.rectangle_counts(grid, key[0], key[1], bank.N),
                           dtype=complex)
             for key in anchored_scales(bank)}
    slots[(j, k)][1, 1] = 1.0
    coeffs = CoefficientField(bank, slots, np.zeros(grid.shape, dtype=complex))
    out = synthesize_discrete(coeffs)

    step1 = grid.samples_per_axis // counts[0]
    step2 = grid.samples_per_axis // counts[1]
    spatial = np.fft.ifftn(lift_flag_filter(bank, j, k))
    expect = np.zeros(grid.shape, dtype=complex)
    for u in range(step1):
        for v in range(step2):
            expect += np.roll(spatial, (step1 + u, step2 + v), axis=(0, 1))
    assert np.max(np.abs(out.values - expect)) <= 1e-12


# (n, m, L): one grid per documented factor split, L small enough for 3-d
FOLD_GRIDS = [(1, 1, 6), (2, 1, 5), (1, 2, 5)]


def bypass_reference(bank):
    power = bank.low_pass_hat ** 2
    for j, k in bank.scales:
        if j == bank.j_range[1]:
            power = power + lift_flag_filter(bank, j, k) ** 2
    return np.sqrt(power)


def cell_transfer_reference(bank, j, k):
    """fftn of the indicator of one anchor cell: the cell-sum multiplier."""
    box = np.zeros(bank.grid.shape)
    box[tuple(slice(0, sl.step) for sl in _anchor_slices(bank.grid, j, k, bank.N))] = 1.0
    return np.fft.fftn(box)


def zero_fill_reference(f, bank, adjoint=False):
    """T (or T*) with full-grid FFTs, sampling by zero-filling off the anchors."""
    fhat = np.fft.fftn(f.values)
    out = bypass_reference(bank) ** 2 * fhat
    for j, k in anchored_scales(bank):
        psi = lift_flag_filter(bank, j, k)
        cell = psi * cell_transfer_reference(bank, j, k)
        first, second = (np.conj(cell), psi) if adjoint else (psi, cell)
        conv = np.fft.ifftn(first * fhat)
        sampled = np.zeros_like(conv)
        anchors = _anchor_slices(bank.grid, j, k, bank.N)
        sampled[anchors] = conv[anchors]
        out = out + second * np.fft.fftn(sampled)
    return np.fft.ifftn(out)


def fold_case_id(param):
    n, m, L, N, outer = param
    return "%d%d-L%d-N%d" % (n, m, L, N) + ("" if outer == 2.0 else "-r%g" % outer)


# N=1 and (N=2, outer_radius 2.5) are not alias-free, so reconstruction_apply
# runs the folded channel loop there; elsewhere it applies the multiplier t_hat
@pytest.fixture(scope="module", ids=fold_case_id,
                params=[(n, m, L, N, outer) for n, m, L in FOLD_GRIDS
                        for N, outer in ((1, 2.0), (2, 2.0), (2, 2.5), (3, 2.0))])
def fold_case(request):
    n, m, L, N, outer = request.param
    grid = flaglp.make_grid(n, m, L)
    bank = flaglp.build_filter_bank(grid, FilterProfile(outer_radius=outer), N=N)
    assert bank.alias_free == (N > 1 and outer <= 2.0)
    return grid, bank, random_function(grid, 10 * n + m + N)


def test_folded_analyze_matches_zero_fill(fold_case):
    grid, bank, f = fold_case
    coeffs = analyze(f, bank)
    fhat = np.fft.fftn(f.values)
    assert set(coeffs.slots) == set(anchored_scales(bank)) and coeffs.slots
    for j, k in anchored_scales(bank):
        conv = np.fft.ifftn(lift_flag_filter(bank, j, k) * fhat)
        expect = conv[_anchor_slices(grid, j, k, bank.N)]
        assert rel_l2(coeffs.slots[(j, k)], expect) <= 1e-12
    assert rel_l2(coeffs.low_pass, np.fft.ifftn(bypass_reference(bank) * fhat)) <= 1e-12


@pytest.mark.parametrize("adjoint", [False, True], ids=["T", "T*"])
def test_folded_reconstruction_matches_zero_fill(fold_case, adjoint):
    grid, bank, f = fold_case
    got = reconstruction_apply(f, bank, adjoint=adjoint)
    assert rel_l2(got.values, zero_fill_reference(f, bank, adjoint)) <= 1e-12


def test_folded_synthesis_matches_zero_fill(fold_case):
    grid, bank, f = fold_case
    coeffs = analyze(f, bank).map_slots(lambda j, k, slot: slot * (1.0 + 0.5j) - 0.25)
    expect_hat = bypass_reference(bank) * np.fft.fftn(coeffs.low_pass)
    for j, k in anchored_scales(bank):
        spread = np.zeros(grid.shape, dtype=complex)
        spread[_anchor_slices(grid, j, k, bank.N)] = coeffs.slots[(j, k)]
        cell = lift_flag_filter(bank, j, k) * cell_transfer_reference(bank, j, k)
        expect_hat = expect_hat + cell * np.fft.fftn(spread)
    got = synthesize_discrete(coeffs)
    assert rel_l2(got.values, np.fft.ifftn(expect_hat)) <= 1e-12


def test_reconstruction_adjointness(fold_case):
    # <T f, g> = <f, T* g>; the power iteration of estimate_remainder_norm
    # relies on it
    grid, bank, f = fold_case
    g = random_function(grid, 99)
    lhs = np.vdot(g.values, reconstruction_apply(f, bank).values)
    rhs = np.vdot(reconstruction_apply(g, bank, adjoint=True).values, f.values)
    scale = np.linalg.norm(reconstruction_apply(f, bank).values) * np.linalg.norm(g.values)
    assert abs(lhs - rhs) <= 1e-12 * scale


def test_synthesize_discrete_zero(tiny):
    grid, bank = tiny
    slots = {key: np.zeros(flaglp.rectangle_counts(grid, key[0], key[1], bank.N),
                           dtype=complex)
             for key in anchored_scales(bank)}
    coeffs = CoefficientField(bank, slots, np.zeros(grid.shape, dtype=complex))
    out = synthesize_discrete(coeffs)
    assert np.max(np.abs(out.values)) == 0.0


def test_coefficient_field_rejects_other_offset(small3):
    # the field's offset is its bank's: slots shaped for N=2 on an N=3 bank
    # are rejected, not computed on silently
    grid, bank = small3
    low_pass = np.zeros(grid.shape, dtype=complex)
    slots = {key: np.zeros(flaglp.rectangle_counts(grid, key[0], key[1], 2), dtype=complex)
             for key in anchored_scales(bank)}
    with pytest.raises(ShapeMismatchError):
        CoefficientField(bank, slots, low_pass)
    slots = {key: np.zeros(flaglp.rectangle_counts(grid, key[0], key[1], 3), dtype=complex)
             for key in anchored_scales(bank)}
    assert CoefficientField(bank, slots, low_pass).N == bank.N == 3


def test_grid_mismatch_raises(small):
    # every route from a function to its spectrum checks the grid; without
    # the check a foreign grid fails only later, with a numpy broadcast error
    grid, bank = small
    f = random_function(grid, 0)
    foreign = random_function(flaglp.make_grid(1, 1, 5), 0)
    other_bank = flaglp.build_filter_bank(foreign.grid, N=bank.N)
    cands = flaglp.generate_candidates(analyze(f, bank), budget=4)
    routes = {
        "analyze": lambda g: analyze(g, bank),
        "T": lambda g: reconstruction_apply(g, bank),
        "T*": lambda g: reconstruction_apply(g, bank, adjoint=True),
        "R": lambda g: remainder_apply(g, bank),
        "low_pass_apply": lambda g: low_pass_apply(g, bank),
        "synthesize_continuous": lambda g: synthesize_continuous(g, bank),
        "channel_energies": lambda g: list(channel_energies(g, bank, bank.scales)),
        "g_flag": lambda g: flaglp.g_flag(g, bank),
        "cmo_norm": lambda g: flaglp.cmo_norm(g, bank, 1.0, cands),
        "pp_compare": lambda g: flaglp.pp_compare(g, bank, bank, 1.0),
    }
    for route in routes.values():
        route(f)
        with pytest.raises(ShapeMismatchError):
            route(foreign)
    # either bank of pp_compare may be the foreign one
    for bank_a, bank_b in ((bank, other_bank), (other_bank, bank)):
        with pytest.raises(ShapeMismatchError):
            flaglp.pp_compare(f, bank_a, bank_b, 1.0)


# L=7 profiles on both sides of the certificate outer_radius <= 2^(N-1)
L7_PROFILES = [
    {},
    {"outer_radius": 1.5},
    {"outer_radius": 2.5},
    {"outer_radius": 3.0},
    {"inner_radius": 0.75},
    {"inner_radius": 0.3, "outer_radius": 3.0},
    {"smoothness": 3.0},
]


def profile_id(kwargs):
    return ",".join("%s=%g" % item for item in kwargs.items()) or "default"


def folded_reference(f, bank, adjoint=False):
    return np.fft.ifftn(folded_reconstruction_hat(np.fft.fftn(f.values), bank, adjoint))


def multiplier_error(bank, adjoint):
    """Relative distance between the multiplier t_hat and the folded T on a random input."""
    f = random_function(bank.grid, 3)
    t_hat = np.conj(bank.t_hat) if adjoint else bank.t_hat
    return rel_l2(np.fft.ifftn(t_hat * np.fft.fftn(f.values)), folded_reference(f, bank, adjoint))


CERTIFIED_CASES = (
    [((1, 1, 7), 2, {}), ((1, 1, 7), 3, {}), ((1, 1, 8), 3, {}), ((1, 1, 7), 4, {}),
     ((2, 1, 5), 3, {}), ((1, 2, 5), 3, {})]
    # every non-default profile except those with outer_radius above 2 at N=2
    + [((1, 1, 7), N, kwargs) for N in (2, 3, 4) for kwargs in L7_PROFILES
       if kwargs and not (N == 2 and kwargs.get("outer_radius", 2.0) > 2.0)]
)


@pytest.mark.parametrize("adjoint", [False, True], ids=["T", "T*"])
@pytest.mark.parametrize("shape,N,kwargs", CERTIFIED_CASES,
                         ids=["%d%d-L%d-N%d-%s" % (*c[0], c[1], profile_id(c[2]))
                              for c in CERTIFIED_CASES])
def test_certified_reconstruction_is_the_multiplier(shape, N, kwargs, adjoint):
    # on an alias-free bank reconstruction_apply is one multiplication by
    # t_hat (conj(t_hat) for T*); it must equal the folded channel loop and
    # the zero-fill oracle
    bank = flaglp.build_filter_bank(flaglp.make_grid(*shape), FilterProfile(**kwargs), N=N)
    assert bank.alias_free
    f = random_function(bank.grid, 21)
    got = reconstruction_apply(f, bank, adjoint=adjoint).values
    assert rel_l2(got, folded_reference(f, bank, adjoint)) <= 1e-12
    assert rel_l2(got, zero_fill_reference(f, bank, adjoint)) <= 1e-12


@pytest.mark.parametrize("kwargs", L7_PROFILES, ids=profile_id)
@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_certificate_holds_exactly_where_t_is_the_multiplier(N, kwargs):
    # uncertified: N=1 (every profile), and N=2 with outer_radius 2.5 or 3.0
    bank = flaglp.build_filter_bank(flaglp.make_grid(1, 1, 7), FilterProfile(**kwargs), N=N)
    errors = [multiplier_error(bank, adjoint) for adjoint in (False, True)]
    assert bank.alias_free == (max(errors) <= 1e-12), errors
    if not bank.alias_free:
        assert min(errors) > 1e-3, errors


def test_t_hat_is_built_on_first_use(small3):
    grid = small3[0]
    bank = flaglp.build_filter_bank(grid, N=3)
    assert "t_hat" not in vars(bank)
    reconstruction_apply(random_function(grid, 1), bank)
    assert vars(bank)["t_hat"].shape == grid.shape


# Neumann iterations of the first 8 functions (two of each kind) of
# gen_corpus(grid, 24, seed) at L=7, N=3 for tol 1e-8 and 1e-10, counted
# with the folded channel loop applying every T
PINNED_ITERATIONS = {
    101: ([44, 43, 47, 44, 44, 41, 32, 44], [56, 55, 59, 56, 56, 53, 40, 56]),
    102: ([45, 41, 41, 43, 43, 44, 41, 44], [57, 53, 51, 55, 55, 56, 51, 56]),
}


@pytest.mark.parametrize("seed", sorted(PINNED_ITERATIONS))
def test_neumann_iteration_counts_pinned(seed):
    grid = flaglp.make_grid(1, 1, 7)
    bank = flaglp.build_filter_bank(grid, N=3)
    functions, _ = flaglp.gen_corpus(grid, 8, seed, bank=bank)
    for tol, expected in zip((1e-8, 1e-10), PINNED_ITERATIONS[seed]):
        assert [neumann_inverse(f, bank, tol=tol)[1] for f in functions] == expected
