import numpy as np
import pytest

import flaglp
from flaglp.kernels import FLAG_BLOCKS, KernelSpec


@pytest.fixture(scope="session")
def tiny():
    """8x8 grid with the smallest offset, for exhaustive oracles."""
    grid = flaglp.make_grid(1, 1, 3)
    bank = flaglp.build_filter_bank(grid, N=1)
    return grid, bank


@pytest.fixture(scope="session")
def small():
    """64x64 grid, the default working size for property tests."""
    grid = flaglp.make_grid(1, 1, 6)
    bank = flaglp.build_filter_bank(grid, N=2)
    return grid, bank


@pytest.fixture(scope="session")
def small3():
    """64x64 grid at offset N=3, dense enough for the Neumann inverse."""
    grid = flaglp.make_grid(1, 1, 6)
    bank = flaglp.build_filter_bank(grid, N=3)
    return grid, bank


@pytest.fixture(scope="session")
def small_corpus(small):
    grid, bank = small
    functions, manifest = flaglp.gen_corpus(grid, 8, 7, bank=bank, N=2)
    return functions, manifest


def random_function(grid, seed, complex_values=True):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(grid.shape)
    if complex_values:
        values = values + 1j * rng.standard_normal(grid.shape)
    return flaglp.SampledFunction(grid, values.astype(np.complex128))


def k2_odd_part():
    """k2-flag minus its even part 1/(x^2 + y^2): K0 = -iy / (x (x^2 + y^2)).

    K0 is odd in x and in y, so it meets every flag cancellation condition,
    the joint one included. The even part breaks the joint condition: in
    polar form k2's angular profile is 1 - i tan(theta), whose mean is
    2 pi rather than 0. On R^2 the multiplier of K0 is
    2 pi i sgn(eta) arctan(xi / |eta|), so its L2 operator norm is pi^2.
    """
    k2 = flaglp.builtin_kernel("k2-flag")
    return KernelSpec("k2-odd",
                      lambda x, y: k2.evaluator(x, y) - 1.0 / (x * x + y * y),
                      "flag", FLAG_BLOCKS, 2)


def dense_cyclic_convolution(filter_values, f_values):
    """O(M^4) reference for ifftn(fftn(filter) * fftn(f)) on a 2d grid."""
    shape = f_values.shape
    out = np.zeros(shape, dtype=np.complex128)
    for p0 in range(shape[0]):
        for p1 in range(shape[1]):
            acc = 0.0 + 0.0j
            for q0 in range(shape[0]):
                for q1 in range(shape[1]):
                    acc += filter_values[q0, q1] * f_values[(p0 - q0) % shape[0],
                                                            (p1 - q1) % shape[1]]
            out[p0, p1] = acc
    return out


def dense_partial_convolution(a_values, b_values_1d, axis):
    """Cyclic convolution along one axis only, by direct summation."""
    shape = a_values.shape
    out = np.zeros(shape, dtype=np.complex128)
    M = shape[axis]
    for q in range(M):
        out += np.roll(a_values, q, axis=axis) * b_values_1d[q]
    return out
