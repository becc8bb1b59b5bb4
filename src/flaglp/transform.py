"""Analysis and synthesis operators for the flag filter family.

The discrete reconstruction operator keeps, for every anchored channel
(j, k), only the coefficient at one anchor point per dyadic rectangle and
replaces the filter by its cell integral.  Writing that operator T and
R = Id - T, the inverse T^{-1} = (Id - R)^{-1} is computed as a Neumann
series, which converges once the anchor lattice is dense enough for R to
contract.

Only channels strictly below the capped top scale are anchored.  The
capped channel reaches the lattice Nyquist frequency while its anchor
lattice keeps every other sample, so subsampling it aliases
unrecoverably; like the low-pass, it is a finite-resolution artifact and
is reproduced exactly through a single bypass multiplier instead.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    ConvergenceError,
    DivergenceError,
    ShapeMismatchError,
)
from .filters import FilterBank, lift_flag_filter
from .grid import Grid, SampledFunction, rectangle_counts, rectangle_index_shape


@dataclass(frozen=True)
class CoefficientField:
    """Per-channel coefficient arrays sampled on the anchor lattices.

    slots maps (j, k) to an array of shape (2^(j+N),)*n + (2^(min(j,k)+N),)*m
    holding psi_{j,k}*f at the rectangle anchors, over the bank's live
    anchored channels only; low_pass is the full-grid bypass channel
    (low-pass plus the capped top-scale annuli).  Also reused as the bare
    sequence carrier.
    """

    bank: FilterBank
    N: int
    slots: dict
    low_pass: np.ndarray

    def __post_init__(self):
        grid = self.bank.grid
        for (j, k), arr in self.slots.items():
            expected = rectangle_index_shape(grid, j, k, self.N)
            if arr.shape != expected:
                raise ShapeMismatchError(
                    f"slot ({j},{k}) has shape {arr.shape}, expected {expected}"
                )
            if not np.all(np.isfinite(arr.view(np.float64) if arr.dtype.kind == "c" else arr)):
                raise ShapeMismatchError(f"slot ({j},{k}) contains non-finite entries")
        if self.low_pass is not None and self.low_pass.shape != grid.shape:
            raise ShapeMismatchError("low-pass channel shape does not match the grid")

    def map_slots(self, fn) -> "CoefficientField":
        """New field with fn(j, k, slot) applied to every slot."""
        new = {(j, k): fn(j, k, arr) for (j, k), arr in self.slots.items()}
        return CoefficientField(self.bank, self.N, new, self.low_pass)

    def zero_like(self, keep_low_pass: bool = False) -> "CoefficientField":
        new = {key: np.zeros_like(arr) for key, arr in self.slots.items()}
        lp = self.low_pass if keep_low_pass else np.zeros_like(self.low_pass)
        return CoefficientField(self.bank, self.N, new, lp)


def _anchor_slices(grid: Grid, j: int, k: int, N: int) -> tuple:
    ci, cj = rectangle_counts(grid, j, k, N)
    M = grid.samples_per_axis
    step1, step2 = M // ci, M // cj
    return (slice(None, None, step1),) * grid.n + (slice(None, None, step2),) * grid.m


def _cell_box_transfer(grid: Grid, j: int, k: int, N: int) -> np.ndarray:
    """Transfer function of summation over one anchor cell (per channel)."""
    ci, cj = rectangle_counts(grid, j, k, N)
    M = grid.samples_per_axis
    step1, step2 = M // ci, M // cj

    def dirichlet(step):
        box = np.zeros(M)
        box[:step] = 1.0
        return np.fft.fft(box)

    d1, d2 = dirichlet(step1), dirichlet(step2)
    out = np.ones(grid.shape, dtype=complex)
    for ax in range(grid.n):
        shape = [1] * grid.ndim
        shape[ax] = M
        out = out * d1.reshape(shape)
    for ax in range(grid.n, grid.ndim):
        shape = [1] * grid.ndim
        shape[ax] = M
        out = out * d2.reshape(shape)
    return out


def anchored_scales(bank: FilterBank) -> list:
    """Live channels whose anchor lattice resolves them without aliasing.

    A channel at first-factor scale j has frequency support of radius
    2^(j+1) and spectral copies spaced 2^(j+N) apart, so it is alias-free
    for every scale except the capped top one, whose support extends to
    the Nyquist frequency.
    """
    top = bank.j_range[1]
    return [(j, k) for (j, k) in bank.scales if j < top]


def bypass_multiplier(bank: FilterBank) -> np.ndarray:
    """Frequency multiplier of the exactly reproduced bypass channel.

    Square root of the combined low-pass power plus the power of every
    capped top-scale channel; together with the anchored channels it
    completes the partition of unity exactly.
    """
    top = bank.j_range[1]
    power = bank.low_pass_hat.astype(float) ** 2
    for j, k in bank.scales:
        if j == top:
            power = power + lift_flag_filter(bank, j, k) ** 2
    return np.sqrt(np.maximum(power, 0.0))


def _check_offset(bank: FilterBank, N) -> int:
    if N is None:
        return bank.N
    if N != bank.N:
        raise ConfigurationError(
            f"offset N={N} conflicts with the bank's N={bank.N}; rebuild the bank"
        )
    return N


def analyze(f: SampledFunction, bank: FilterBank, N: int = None) -> CoefficientField:
    """Channel convolutions subsampled at the rectangle anchors."""
    if f.grid != bank.grid:
        raise ShapeMismatchError("function and bank live on different grids")
    N = _check_offset(bank, N)
    fhat = np.fft.fftn(f.values)
    slots = {}
    for j, k in anchored_scales(bank):
        conv = np.fft.ifftn(lift_flag_filter(bank, j, k) * fhat)
        slots[(j, k)] = np.ascontiguousarray(conv[_anchor_slices(bank.grid, j, k, N)])
    low_pass = np.fft.ifftn(bypass_multiplier(bank) * fhat)
    return CoefficientField(bank=bank, N=N, slots=slots, low_pass=low_pass)


def channel_convolution(f: SampledFunction, bank: FilterBank, j: int, k: int) -> np.ndarray:
    """Full-grid convolution psi_{j,k} * f (no subsampling)."""
    if f.grid != bank.grid:
        raise ShapeMismatchError("function and bank live on different grids")
    fhat = np.fft.fftn(f.values)
    return np.fft.ifftn(lift_flag_filter(bank, j, k) * fhat)


def low_pass_apply(f: SampledFunction, bank: FilterBank) -> SampledFunction:
    """One application of the combined low-pass filter."""
    if f.grid != bank.grid:
        raise ShapeMismatchError("function and bank live on different grids")
    vals = np.fft.ifftn(bank.low_pass_hat * np.fft.fftn(f.values))
    return SampledFunction(f.grid, vals)


def synthesize_continuous(f: SampledFunction, bank: FilterBank) -> SampledFunction:
    """Two-fold application of every channel plus the low-pass completion."""
    if f.grid != bank.grid:
        raise ShapeMismatchError("function and bank live on different grids")
    total = bank.low_pass_hat.astype(complex) ** 2
    for j, k in bank.scales:
        psi = lift_flag_filter(bank, j, k)
        total = total + psi * psi
    vals = np.fft.ifftn(total * np.fft.fftn(f.values))
    return SampledFunction(f.grid, vals)


def reconstruction_apply(
    f: SampledFunction, bank: FilterBank, N: int = None, adjoint: bool = False
) -> SampledFunction:
    """Apply the anchor-sampled reconstruction operator T (or its adjoint)."""
    if f.grid != bank.grid:
        raise ShapeMismatchError("function and bank live on different grids")
    N = _check_offset(bank, N)
    grid = bank.grid
    fhat = np.fft.fftn(f.values)
    out_hat = (bypass_multiplier(bank).astype(complex) ** 2) * fhat
    for j, k in anchored_scales(bank):
        psi = lift_flag_filter(bank, j, k)
        cell = psi * _cell_box_transfer(grid, j, k, N)
        first, second = (psi, cell) if not adjoint else (np.conj(cell), psi)
        conv = np.fft.ifftn(first * fhat)
        sampled = np.zeros_like(conv)
        sl = _anchor_slices(grid, j, k, N)
        sampled[sl] = conv[sl]
        out_hat = out_hat + second * np.fft.fftn(sampled)
    return SampledFunction(grid, np.fft.ifftn(out_hat))


def remainder_apply(
    f: SampledFunction, bank: FilterBank, N: int = None, adjoint: bool = False
) -> SampledFunction:
    """R(f) = f - T(f), the discretization remainder."""
    t = reconstruction_apply(f, bank, N, adjoint=adjoint)
    return SampledFunction(f.grid, f.values - t.values)


def band_projector(bank: FilterBank) -> np.ndarray:
    """0/1 mask keeping the modes every anchored channel resolves.

    Modes whose full frequency norm exceeds half the capped scale are
    carried partly by the bypass channel; band-limited corpora stay
    inside this ball so their energy lives entirely in the anchored
    channels.
    """
    grid = bank.grid
    cap = 2.0 ** (bank.j_range[1] - 1)
    norm = grid.frequency_norm(tuple(range(grid.ndim)))
    return norm <= cap


def estimate_remainder_norm(
    bank: FilterBank, N: int = None, steps: int = 20, seed: int = 0
) -> float:
    """Power-iteration estimate of ||R||_{2->2}."""
    N = _check_offset(bank, N)
    grid = bank.grid
    rng = np.random.default_rng(seed)
    v = SampledFunction(
        grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    )
    est = 0.0
    for _ in range(steps):
        rv = remainder_apply(v, bank, N)
        w = remainder_apply(rv, bank, N, adjoint=True)
        nv = np.linalg.norm(v.values)
        est = np.linalg.norm(rv.values) / nv
        nw = np.linalg.norm(w.values)
        if nw == 0.0:
            return 0.0
        v = SampledFunction(grid, w.values / nw)
    return float(est)


def neumann_inverse(
    f: SampledFunction,
    bank: FilterBank,
    N: int = None,
    tol: float = 1e-8,
    max_iter: int = 200,
) -> tuple:
    """Solve T(g) = f by the Neumann series g = sum_i R^i f.

    Returns (g, iterations).  Raises DivergenceError when the contraction
    probe fails and ConvergenceError when the iteration cap is hit.
    """
    if tol <= 0:
        raise ConfigurationError("tolerance must be positive")
    N = _check_offset(bank, N)
    norm_f = np.linalg.norm(f.values)
    if norm_f == 0.0:
        return SampledFunction(f.grid, np.zeros_like(f.values)), 1

    probe = remainder_apply(f, bank, N)
    ratio = np.linalg.norm(probe.values) / norm_f
    if ratio >= 1.0:
        raise DivergenceError(
            f"remainder probe ratio {ratio:.3f} >= 1; increase the offset N (bank N={bank.N})"
        )

    g = f.values.copy()
    increment = probe.values
    iterations = 1
    growth_streak = 0
    last_norm = np.linalg.norm(increment)
    while last_norm > tol * norm_f:
        if iterations >= max_iter:
            raise ConvergenceError(
                f"Neumann iteration cap {max_iter} exceeded (last increment "
                f"{last_norm / norm_f:.2e} of ||f||)"
            )
        g = g + increment
        increment = remainder_apply(
            SampledFunction(f.grid, increment), bank, N
        ).values
        iterations += 1
        norm = np.linalg.norm(increment)
        # the one-step probe can contract even when iterated applications
        # expand, so watch the increments themselves
        growth_streak = growth_streak + 1 if norm > last_norm else 0
        if growth_streak >= 3 or norm > 1e3 * norm_f:
            raise DivergenceError(
                f"Neumann increments growing ({norm / norm_f:.2e} of ||f|| "
                f"after {iterations} iterations); increase the offset N"
            )
        last_norm = norm
    g = g + increment
    return SampledFunction(f.grid, g), iterations


def synthesize_discrete(coeffs: CoefficientField, bank: FilterBank) -> SampledFunction:
    """Rebuild a function from anchor coefficients via cell-averaged filters."""
    if coeffs.bank.grid != bank.grid:
        raise ShapeMismatchError("coefficient field and bank live on different grids")
    if set(coeffs.slots) != set(anchored_scales(bank)):
        raise ShapeMismatchError("coefficient slots do not match the bank's live anchored channels")
    grid = bank.grid
    N = coeffs.N
    out_hat = bypass_multiplier(bank).astype(complex) * np.fft.fftn(coeffs.low_pass)
    for j, k in anchored_scales(bank):
        psi = lift_flag_filter(bank, j, k)
        cell = psi * _cell_box_transfer(grid, j, k, N)
        spread = np.zeros(grid.shape, dtype=complex)
        spread[_anchor_slices(grid, j, k, N)] = coeffs.slots[(j, k)]
        out_hat = out_hat + cell * np.fft.fftn(spread)
    return SampledFunction(grid, np.fft.ifftn(out_hat))
