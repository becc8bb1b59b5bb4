import numpy as np
import pytest

import flaglp
from flaglp import FilterProfile
from flaglp.errors import ConfigurationError
from flaglp.filters import bank_from_config, export_bank, lift_flag_filter

from conftest import dense_partial_convolution


def partition_residual(bank):
    grid = bank.grid
    total1 = bank.low_pass1_hat.astype(float) ** 2
    for psi in bank.psi1_hat:
        total1 = total1 + psi.astype(float) ** 2
    total2 = bank.low_pass2_hat.astype(float) ** 2
    for psi in bank.psi2_hat:
        total2 = total2 + psi.astype(float) ** 2
    return max(float(np.max(np.abs(total1 - 1.0))),
               float(np.max(np.abs(total2 - 1.0))))


@pytest.mark.parametrize("L", [5, 6])
def test_partition_exactness(L):
    grid = flaglp.make_grid(1, 1, L)
    bank = flaglp.build_filter_bank(grid, N=2)
    assert partition_residual(bank) <= 1e-10


def test_full_channel_partition(small):
    grid, bank = small
    total = bank.low_pass_hat.astype(float) ** 2
    for j, k in bank.scales:
        total = total + lift_flag_filter(bank, j, k) ** 2
    assert float(np.max(np.abs(total - 1.0))) <= 1e-10


def test_first_factor_annulus_support(small):
    grid, bank = small
    norm = grid.frequency_norm((0, 1))
    top = len(bank.psi1_hat) - 1
    for j, psi in enumerate(bank.psi1_hat):
        # every channel vanishes below its annulus; all but the capped
        # top channel also vanish above it
        inside = np.abs(psi[norm < 2.0 ** (j - 1)])
        assert float(np.max(inside, initial=0.0)) == 0.0
        if j < top:
            outside = np.abs(psi[norm > 2.0 ** (j + 1)])
            assert float(np.max(outside, initial=0.0)) == 0.0


def test_lift_is_frequency_product(small):
    grid, bank = small
    for j, k in [(0, 0), (2, 1), (3, 3)]:
        lifted = lift_flag_filter(bank, j, k)
        psi2 = bank.psi2_hat[k]
        expect = bank.psi1_hat[j] * psi2[None, :]
        assert np.allclose(lifted, expect, atol=0)


def test_lift_matches_spatial_partial_convolution(tiny):
    # *2 lift oracle: frequency product vs direct partial convolution in
    # the second variable
    grid, bank = tiny
    for j, k in bank.scales:
        lifted_spatial = np.fft.ifftn(lift_flag_filter(bank, j, k))
        s1 = np.fft.ifftn(bank.psi1_hat[j])
        s2 = np.fft.ifft(bank.psi2_hat[k])
        oracle = dense_partial_convolution(s1, s2, axis=1)
        assert np.max(np.abs(lifted_spatial - oracle)) <= 1e-9


def test_annulus_cross_correlation_vanishes(small):
    grid, bank = small
    # exact orthogonality across a scale gap of 2 or more
    for j in range(len(bank.psi1_hat)):
        for jp in range(j + 2, len(bank.psi1_hat)):
            overlap = bank.psi1_hat[j] * bank.psi1_hat[jp]
            assert float(np.max(np.abs(overlap))) == 0.0


def test_dead_channels_above_diagonal(small):
    # over the full (j, k) range a channel is absent from bank.scales
    # exactly when its lifted filter is identically zero
    def absent(bank):
        full = [(j, k) for j in range(bank.j_range[0], bank.j_range[1] + 1)
                for k in range(bank.j_range[0], bank.j_range[1] + 1)]
        live = [(j, k) for j, k in full if np.any(lift_flag_filter(bank, j, k))]
        assert list(bank.scales) == live
        return set(full) - set(live)

    grid7 = flaglp.make_grid(1, 1, 7)
    for bank in (small[1], flaglp.build_filter_bank(flaglp.make_grid(2, 1, 5), N=2),
                 flaglp.build_filter_bank(flaglp.make_grid(1, 2, 5), N=2)):
        absent(bank)
    # the zero set follows the profile radii, not a fixed k >= j+2 rule
    assert absent(flaglp.build_filter_bank(grid7, N=3)) == {(0, 1), (0, 2), (0, 3), (1, 3)}
    narrow = FilterProfile(outer_radius=1.5)
    assert absent(flaglp.build_filter_bank(grid7, narrow, N=3)) == {
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3)}
    wide = FilterProfile(inner_radius=0.3, outer_radius=3.0)
    assert absent(flaglp.build_filter_bank(grid7, wide, N=3)) == {(0, 3)}


def test_radial_symmetry(small):
    # lattice reflection invariance of the radial profile
    grid, bank = small
    psi = bank.psi1_hat[2]
    reflected = np.roll(psi[::-1, :], 1, axis=0)
    assert np.allclose(psi, reflected, atol=0)
    reflected = np.roll(psi[:, ::-1], 1, axis=1)
    assert np.allclose(psi, reflected, atol=0)


def test_profile_validation():
    with pytest.raises(ConfigurationError):
        FilterProfile(inner_radius=2.0, outer_radius=1.0)
    with pytest.raises(ConfigurationError):
        FilterProfile(smoothness=0.0)


def test_identifier_deterministic(small):
    grid, bank = small
    again = flaglp.build_filter_bank(grid, N=2)
    assert bank.identifier() == again.identifier()
    # reports and corpus manifests embed this text
    assert bank.identifier() == "frequency-annulus:r0.5-2.0:s1.0:N2:j(0, 3):k(0, 3)"


def test_bank_from_config_roundtrip(small):
    grid, bank = small
    text = "inner_radius=0.5\nouter_radius=2.0\nsmoothness=1.0\nn_offset=2\n"
    rebuilt = bank_from_config(grid, text)
    assert rebuilt.identifier() == bank.identifier()
    for a, b in zip(bank.psi1_hat, rebuilt.psi1_hat):
        assert np.array_equal(a, b)
    # commas separate entries as newlines do; n_offset overrides N
    joined = "inner_radius=0.5, outer_radius=2.0,smoothness=1.0 # comment\nn_offset=2"
    assert bank_from_config(grid, joined, N=3).identifier() == bank.identifier()
    assert bank_from_config(grid, "smoothness=1.0", N=2).identifier() == bank.identifier()


def test_export_bank_manifest(small, tmp_path):
    grid, bank = small
    manifest = export_bank(bank, tmp_path)
    assert manifest["L"] == grid.L
    assert manifest["mode"] == "frequency-annulus"
    names = {e["file"] for e in manifest["filters"]}
    assert "low_pass.blk" in names
    block = flaglp.read_block(tmp_path / "psi1_j0.blk")
    assert np.allclose(block.values, bank.psi1_hat[0], atol=0)


def test_bank_from_config_rejects_garbage(small):
    grid, _ = small
    for text in ("mode=?unknown?\n", "mode=compact-spatial", "m0=2",
                 "smoothness=abc", "n_offset=2.5", "inner_radius=0.5,,junk"):
        with pytest.raises(ConfigurationError):
            bank_from_config(grid, text)
