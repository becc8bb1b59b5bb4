import numpy as np
import pytest

import flaglp
from flaglp.corpus import (DEFAULT_KINDS, RNG_ALGORITHM, _rng, band_limited_field,
                           gen_corpus, indicator_union)
from flaglp.errors import ConfigurationError
from flaglp.grid import enumerate_rectangles
from flaglp.transform import anchored_scales, band_projector


def test_determinism(small):
    grid, bank = small
    a, ma = gen_corpus(grid, 8, 123, bank=bank, N=2)
    b, mb = gen_corpus(grid, 8, 123, bank=bank, N=2)
    assert ma == mb
    for f, g in zip(a, b):
        assert np.array_equal(f.values, g.values)


def test_seed_sensitivity(small):
    grid, bank = small
    a, _ = gen_corpus(grid, 4, 1, bank=bank, N=2)
    b, _ = gen_corpus(grid, 4, 2, bank=bank, N=2)
    assert not np.array_equal(a[0].values, b[0].values)


def test_manifest_contents(small):
    grid, bank = small
    functions, manifest = gen_corpus(grid, 6, 9, bank=bank, N=2)
    assert manifest["generator"] == RNG_ALGORITHM
    assert manifest["seed"] == 9 and manifest["count"] == 6
    assert manifest["grid"] == {"n": 1, "m": 1, "L": 6}
    kinds = [e["kind"] for e in manifest["entries"]]
    assert kinds == ["band-limited", "indicator", "atom", "bump",
                     "band-limited", "indicator"]


def test_band_limited_low_pass_energy(small):
    grid, bank = small
    fs, _ = gen_corpus(grid, 4, 17, bank=bank, N=2, kinds=("band-limited",))
    lp = bank.low_pass_hat
    for f in fs:
        fhat = np.fft.fftn(f.values)
        total = np.sum(np.abs(fhat) ** 2)
        leaked = np.sum(np.abs(lp * fhat) ** 2)
        assert leaked / total <= 1e-12


def test_band_limited_unit_norm(small):
    grid, bank = small
    fs, _ = gen_corpus(grid, 2, 3, bank=bank, N=2, kinds=("band-limited",))
    for f in fs:
        assert flaglp.lp_norm(f, 2.0) == pytest.approx(1.0, rel=1e-12)


def test_band_limited_respects_projector(small):
    grid, bank = small
    fs, _ = gen_corpus(grid, 1, 5, bank=bank, N=2, kinds=("band-limited",))
    mask = band_projector(bank)
    fhat = np.fft.fftn(fs[0].values)
    assert np.max(np.abs(fhat[~mask])) <= 1e-10 * np.max(np.abs(fhat))


def test_atoms_are_nonzero_and_single_channel(small):
    grid, bank = small
    fs, _ = gen_corpus(grid, 8, 77, bank=bank, N=2, kinds=("atom",))
    for f in fs:
        assert np.max(np.abs(f.values)) > 0.0


def test_indicators_are_indicator_valued(small):
    grid, bank = small
    fs, _ = gen_corpus(grid, 3, 11, bank=bank, N=2, kinds=("indicator",))
    for f in fs:
        vals = np.unique(f.values.real)
        assert set(vals.tolist()) <= {0.0, 1.0}
        assert np.max(np.abs(f.values.imag)) == 0.0


def test_bumps_smooth_and_nonnegative(small):
    grid, bank = small
    fs, _ = gen_corpus(grid, 2, 13, bank=bank, N=2, kinds=("bump",))
    for f in fs:
        assert np.all(f.values.real >= 0.0)
        assert np.max(f.values.real) > 0.0


def test_bad_arguments(small):
    grid, bank = small
    with pytest.raises(ConfigurationError):
        gen_corpus(grid, -1, 0, bank=bank)
    with pytest.raises(ConfigurationError):
        gen_corpus(grid, 2, 0, bank=bank, kinds=("monster",))


def test_gen_corpus_rejects_conflicting_offset(small3):
    grid, bank = small3
    with pytest.raises(ConfigurationError):
        gen_corpus(grid, 1, 0, bank=bank, N=5)
    _, manifest = gen_corpus(grid, 1, 0, bank=bank, N=3)
    assert manifest["offset"] == 3


def test_default_bank_construction():
    grid = flaglp.make_grid(1, 1, 5)
    fs, manifest = gen_corpus(grid, 2, 0, N=2)
    assert len(fs) == 2
    assert manifest["offset"] == 2


@pytest.mark.parametrize("n, m", [(2, 1), (1, 2)])
def test_corpus_beyond_two_dimensions(n, m):
    grid = flaglp.make_grid(n, m, 5)
    fs, manifest = gen_corpus(grid, 4, 1)
    assert [e["kind"] for e in manifest["entries"]] == list(DEFAULT_KINDS)
    for f in fs:
        assert f.values.shape == grid.shape
        assert np.max(np.abs(f.values)) > 0.0


def test_indicator_draws_follow_enumeration_order(small):
    # the flat draw picks the rectangle enumerate_rectangles lists at that index
    grid3 = flaglp.make_grid(2, 1, 5)
    for grid, bank in (small, (grid3, flaglp.build_filter_bank(grid3, N=2))):
        f = indicator_union(grid, bank, _rng(5), pieces=6)
        rng = _rng(5)
        expected = np.zeros(grid.shape, dtype=np.complex128)
        for _ in range(6):
            j = int(rng.integers(bank.j_range[0], bank.j_range[1] + 1))
            k = int(rng.integers(bank.j_range[0], bank.j_range[1] + 1))
            rects = enumerate_rectangles(grid, j, k, bank.N)
            expected[rects[int(rng.integers(0, len(rects)))].sample_slices(grid)] = 1.0
        assert np.array_equal(f.values, expected)
