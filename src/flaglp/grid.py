"""Uniform periodic sampling grids on the unit torus, dyadic geometry, L^p norms.

The torus is split into a first factor of dimension ``n`` and a second
factor of dimension ``m``; every array in the library has shape
``(2**L,) * (n + m)`` with the first ``n`` axes belonging to the first
factor.
"""

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import ConfigurationError, DomainError, ResolutionError, ShapeMismatchError

L_MIN = 3
L_MAX = 14
# construction guard: refuse grids whose value array would not fit in RAM
MAX_TOTAL_SAMPLES = 2**28

# pairwise/compensated accumulation kicks in above this many entries
_PAIRWISE_THRESHOLD = 2**15


@dataclass(frozen=True)
class Grid:
    """A uniform periodic grid with 2**L samples per axis on [0,1)^(n+m)."""

    n: int
    m: int
    L: int
    spacing: float = field(init=False)

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ConfigurationError(f"factor dimensions must be >= 1, got n={self.n}, m={self.m}")
        if not (L_MIN <= self.L <= L_MAX):
            raise ConfigurationError(f"resolution exponent L must be in [{L_MIN},{L_MAX}], got {self.L}")
        if (2**self.L) ** (self.n + self.m) > MAX_TOTAL_SAMPLES:
            raise ConfigurationError(
                f"grid with {(2**self.L)**(self.n+self.m)} samples exceeds the addressable budget"
            )
        object.__setattr__(self, "spacing", 2.0 ** (-self.L))

    @property
    def samples_per_axis(self) -> int:
        return 2**self.L

    @property
    def ndim(self) -> int:
        return self.n + self.m

    @property
    def shape(self) -> tuple:
        return (self.samples_per_axis,) * self.ndim

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.ndim

    def axis_frequencies(self) -> np.ndarray:
        """Integer lattice frequencies along one axis, in FFT order."""
        M = self.samples_per_axis
        return np.fft.fftfreq(M) * M

    def frequency_norm(self, axes: tuple) -> np.ndarray:
        """|xi| restricted to `axes`, broadcast over the full grid shape."""
        k = self.axis_frequencies()
        total = np.zeros(self.shape)
        for ax in axes:
            shape = [1] * self.ndim
            shape[ax] = self.samples_per_axis
            total = total + k.reshape(shape) ** 2
        return np.sqrt(total)


def make_grid(n: int, m: int, L: int) -> Grid:
    """Construct a grid; raises ConfigurationError on out-of-range parameters."""
    return Grid(n=n, m=m, L=L)


@dataclass(frozen=True)
class SampledFunction:
    """Complex samples of a function on a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.complex128)
        if v.shape != self.grid.shape:
            raise ShapeMismatchError(f"values shape {v.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(v.view(np.float64))):
            raise DomainError("sampled function contains non-finite values")
        object.__setattr__(self, "values", v)

    def __add__(self, other: "SampledFunction") -> "SampledFunction":
        _check_same_grid(self, other)
        return SampledFunction(self.grid, self.values + other.values)

    def __sub__(self, other: "SampledFunction") -> "SampledFunction":
        _check_same_grid(self, other)
        return SampledFunction(self.grid, self.values - other.values)

    def __mul__(self, c) -> "SampledFunction":
        return SampledFunction(self.grid, self.values * c)

    __rmul__ = __mul__


def _check_same_grid(f: SampledFunction, g: SampledFunction):
    if f.grid != g.grid:
        raise ShapeMismatchError(f"grid mismatch: {f.grid} vs {g.grid}")


@dataclass(frozen=True)
class DyadicRectangle:
    """A dyadic rectangle R = I x J with flag geometry.

    side(I) = 2^(-j-N), side(J) = 2^(-min(j,k)-N); anchor points are the
    lower-left corners of I and J.
    """

    j: int
    k: int
    N: int
    i_idx: tuple
    j_idx: tuple

    def __post_init__(self):
        if self.j < 0 or self.k < 0:
            raise ConfigurationError("scales j,k must be >= 0")
        if self.N < 1:
            raise ConfigurationError("sampling-density offset N must be >= 1")
        ci = 2 ** (self.j + self.N)
        cj = 2 ** (min(self.j, self.k) + self.N)
        if not all(0 <= c < ci for c in self.i_idx):
            raise ConfigurationError(f"i_idx {self.i_idx} out of range for {ci} cells")
        if not all(0 <= c < cj for c in self.j_idx):
            raise ConfigurationError(f"j_idx {self.j_idx} out of range for {cj} cells")

    @property
    def side_i(self) -> float:
        return 2.0 ** (-self.j - self.N)

    @property
    def side_j(self) -> float:
        return 2.0 ** (-min(self.j, self.k) - self.N)

    def measure(self, n: int, m: int) -> float:
        return self.side_i**n * self.side_j**m

    def sample_slices(self, grid: Grid) -> tuple:
        """Index slices selecting the grid samples inside the rectangle."""
        si = int(round(self.side_i / grid.spacing))
        sj = int(round(self.side_j / grid.spacing))
        sl = [slice(c * si, (c + 1) * si) for c in self.i_idx]
        sl += [slice(c * sj, (c + 1) * sj) for c in self.j_idx]
        return tuple(sl)


def rectangle_counts(grid: Grid, j: int, k: int, N: int) -> tuple:
    """(cells per first-factor axis, cells per second-factor axis)."""
    ci = 2 ** (j + N)
    cj = 2 ** (min(j, k) + N)
    if ci > grid.samples_per_axis or cj > grid.samples_per_axis:
        raise ResolutionError(
            f"scale (j={j}, k={k}, N={N}) gives side 2^-{max(j + N, min(j, k) + N)} "
            f"finer than grid spacing 2^-{grid.L}"
        )
    return ci, cj


def rectangle_index_shape(grid: Grid, j: int, k: int, N: int) -> tuple:
    """Shape of an array holding one value per rectangle at scale (j, k, N).

    Its C-order flat index lists the rectangles in enumerate_rectangles
    order; coefficient slots use this layout.
    """
    ci, cj = rectangle_counts(grid, j, k, N)
    return (ci,) * grid.n + (cj,) * grid.m


def enumerate_rectangles(grid: Grid, j: int, k: int, N: int) -> list:
    """All dyadic rectangles tiling the torus at scale (j, k, N)."""
    ci, cj = rectangle_counts(grid, j, k, N)
    out = []
    for i_idx in product(range(ci), repeat=grid.n):
        for j_idx in product(range(cj), repeat=grid.m):
            out.append(DyadicRectangle(j=j, k=k, N=N, i_idx=i_idx, j_idx=j_idx))
    return out


def lp_norm(f: SampledFunction, p: float) -> float:
    """(sum |f|^p * spacing^(n+m))^(1/p); the usual quasi-norm for p < 1."""
    return lp_norm_array(f.values, p, f.grid.cell_volume)


def lp_norm_array(values: np.ndarray, p: float, cell_volume: float) -> float:
    if p <= 0:
        raise DomainError(f"exponent p must be positive, got {p}")
    a = np.abs(np.ravel(values))
    if a.size == 0:
        return 0.0
    peak = a.max()
    if peak == 0.0:
        return 0.0
    # factor out the peak so that p far from 1 cannot overflow/underflow
    scaled = (a / peak) ** p
    acc_dtype = np.longdouble if a.size > _PAIRWISE_THRESHOLD else np.float64
    total = np.sum(scaled, dtype=acc_dtype)
    return float(peak * (total * cell_volume) ** (1.0 / p))
