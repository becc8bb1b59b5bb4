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

The anchored transforms use the polyphase identity: keeping every s-th
sample of a length-M sequence periodizes its spectrum with period M/s, so
the samples' length-M/s spectrum is the mean of the full one over its s
aliases xi + a M/s, and spreading samples back repeats it over them.
Reshaping each axis to (s, M/s) makes both a mean over, or a broadcast
along, the alias axes, so the folded T and T* cost one fftn/ifftn pair in
all plus one pass over the channels.  The bank's operator plan
(FilterBank.anchored, FilterBank.bypass_hat) holds the fold shapes, the
cell-sum factors and the bypass multiplier; lifted filters are formed on
the fly, so no full-grid array is kept per channel.

On an alias-free bank (FilterBank.alias_free: outer_radius <= 2^(N-1)) no
channel's aliases overlap, so sampling mixes no two frequencies and T is
the Fourier multiplier FilterBank.t_hat, built once by the folded loop;
T is then ifftn(t_hat fftn(f)) and T* uses conj(t_hat).  The folded loop
still runs on the other banks: every N=1 bank, and N=2 banks with
outer_radius > 2.

A function meets a bank only through _spectrum, which checks the grid;
channel_energies feeds the square functions and the Carleson norms.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    ConvergenceError,
    DivergenceError,
    ShapeMismatchError,
)
from .blocks import block_sizes
from .filters import FilterBank, lift_flag_filter
from .grid import Grid, SampledFunction, rectangle_index_shape

# power iterations of estimate_remainder_norm and the seed of its start vector
_POWER_STEPS = 20
_POWER_SEED = 0


@dataclass(frozen=True)
class CoefficientField:
    """Per-channel coefficient arrays sampled on the anchor lattices.

    slots maps (j, k) to an array of shape (2^(j+N),)*n + (2^(min(j,k)+N),)*m
    holding psi_{j,k}*f at the rectangle anchors, over the bank's live
    anchored channels only; low_pass is the full-grid bypass channel
    (low-pass plus the capped top-scale annuli).  Also reused as the bare
    sequence carrier.  The offset N is the bank's: a slot shaped for any
    other offset is rejected.
    """

    bank: FilterBank
    slots: dict
    low_pass: np.ndarray

    @property
    def N(self) -> int:
        """The anchor offset, read from the bank."""
        return self.bank.N

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
        lp = self.low_pass
        if lp is not None and (lp.shape != grid.shape or not np.all(np.isfinite(lp))):
            raise ShapeMismatchError("low-pass channel must be finite and match the grid")

    def map_slots(self, fn) -> "CoefficientField":
        """New field with fn(j, k, slot) applied to every slot."""
        new = {(j, k): fn(j, k, arr) for (j, k), arr in self.slots.items()}
        return CoefficientField(self.bank, new, self.low_pass)


def _anchor_slices(grid: Grid, j: int, k: int, N: int) -> tuple:
    return tuple(slice(None, None, s) for s in block_sizes(grid, j, k, N))


def anchored_scales(bank: FilterBank) -> list:
    """The live channels below the capped top scale, which are sampled on anchors.

    A channel at first-factor scale j has frequency support of radius
    r 2^j, r being the profile's outer radius, and its anchor lattice
    repeats the spectrum every 2^(j+N).  The copies are disjoint for every
    one of these channels exactly when r <= 2^(N-1) (FilterBank.alias_free);
    at N=1, or wherever r > 2^(N-1), they overlap and sampling aliases.
    """
    return [(ch.j, ch.k) for ch in bank.anchored]


def _folded_filter(bank: FilterBank, ch) -> np.ndarray:
    return lift_flag_filter(bank, ch.j, ch.k).reshape(ch.fold_shape)


def _cell_transfer(arr: np.ndarray, ch, conj: bool = False) -> np.ndarray:
    """arr times the channel's cell-sum transfer function (or its conjugate)."""
    for factor in ch.cell:
        arr = arr * (np.conj(factor) if conj else factor)
    return arr


def _spectrum(f: SampledFunction, bank: FilterBank) -> np.ndarray:
    """fftn of f's values, once f is known to live on the bank's grid."""
    if f.grid != bank.grid:
        raise ShapeMismatchError("function and bank live on different grids")
    return np.fft.fftn(f.values)


def analyze(f: SampledFunction, bank: FilterBank) -> CoefficientField:
    """Channel convolutions subsampled at the rectangle anchors."""
    fhat = _spectrum(f, bank)
    slots = {}
    for ch in bank.anchored:
        spectrum = _folded_filter(bank, ch) * fhat.reshape(ch.fold_shape)
        slots[(ch.j, ch.k)] = np.fft.ifftn(spectrum.mean(axis=ch.alias_axes))
    low_pass = np.fft.ifftn(bank.bypass_hat * fhat)
    return CoefficientField(bank=bank, slots=slots, low_pass=low_pass)


def channel_energies(f: SampledFunction, bank: FilterBank, scales):
    """Yield (j, k, |psi_{j,k} * f|^2 on the full grid) for every scale in turn.

    Energies, not convolutions: each complex channel array is freed before the next.
    """
    fhat = _spectrum(f, bank)
    for j, k in scales:
        yield j, k, np.abs(np.fft.ifftn(lift_flag_filter(bank, j, k) * fhat)) ** 2


def low_pass_apply(f: SampledFunction, bank: FilterBank) -> SampledFunction:
    """One application of the combined low-pass filter."""
    vals = np.fft.ifftn(bank.low_pass_hat * _spectrum(f, bank))
    return SampledFunction(f.grid, vals)


def synthesize_continuous(f: SampledFunction, bank: FilterBank) -> SampledFunction:
    """Two-fold application of every channel plus the low-pass completion."""
    fhat = _spectrum(f, bank)
    total = bank.low_pass_hat.astype(complex) ** 2
    for j, k in bank.scales:
        psi = lift_flag_filter(bank, j, k)
        total = total + psi * psi
    vals = np.fft.ifftn(total * fhat)
    return SampledFunction(f.grid, vals)


def reconstruction_apply(
    f: SampledFunction, bank: FilterBank, adjoint: bool = False
) -> SampledFunction:
    """Apply the anchor-sampled reconstruction operator T (or its adjoint).

    On an alias-free bank this is one multiplication by bank.t_hat.
    """
    spectrum = _spectrum(f, bank)
    if bank.alias_free:
        spectrum *= np.conj(bank.t_hat) if adjoint else bank.t_hat
    else:
        spectrum = folded_reconstruction_hat(spectrum, bank, adjoint)
    return SampledFunction(bank.grid, np.fft.ifftn(spectrum))


def folded_reconstruction_hat(fhat: np.ndarray, bank: FilterBank, adjoint: bool = False) -> np.ndarray:
    """Spectrum of T f (or T* f) from the spectrum of f, by the folded channel loop.

    Exact on every bank; reconstruction_apply uses it only where the bank
    is not alias-free, and FilterBank.t_hat uses it once to build the
    multiplier.
    """
    out_hat = bank.bypass_hat ** 2 * fhat
    for ch in bank.anchored:
        psi = _folded_filter(bank, ch)
        spectrum = psi * fhat.reshape(ch.fold_shape)
        if adjoint:
            lattice = _cell_transfer(spectrum, ch, conj=True).mean(axis=ch.alias_axes, keepdims=True)
        else:
            lattice = _cell_transfer(spectrum.mean(axis=ch.alias_axes, keepdims=True), ch)
        out_hat.reshape(ch.fold_shape)[...] += psi * lattice  # the reshape is a view
    return out_hat


def remainder_apply(
    f: SampledFunction, bank: FilterBank, adjoint: bool = False
) -> SampledFunction:
    """R(f) = f - T(f), the discretization remainder."""
    t = reconstruction_apply(f, bank, adjoint=adjoint)
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


def estimate_remainder_norm(bank: FilterBank) -> float:
    """||R||_{2->2}: exactly max |1 - t_hat| on an alias-free bank, where R is
    that Fourier multiplier; elsewhere a power-iteration estimate from below."""
    if bank.alias_free:
        return float(np.max(np.abs(1.0 - bank.t_hat)))
    grid = bank.grid
    rng = np.random.default_rng(_POWER_SEED)
    v = SampledFunction(
        grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    )
    est = 0.0
    for _ in range(_POWER_STEPS):
        rv = remainder_apply(v, bank)
        w = remainder_apply(rv, bank, adjoint=True)
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
    tol: float = 1e-8,
    max_iter: int = 200,
) -> tuple:
    """Solve T(g) = f by the Neumann series g = sum_i R^i f.

    Returns (g, iterations).  Raises DivergenceError when the contraction
    probe fails and ConvergenceError when the iteration cap is hit.
    """
    if tol <= 0:
        raise ConfigurationError("tolerance must be positive")
    norm_f = np.linalg.norm(f.values)
    if norm_f == 0.0:
        return SampledFunction(f.grid, np.zeros_like(f.values)), 1

    probe = remainder_apply(f, bank)
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
        increment = remainder_apply(SampledFunction(f.grid, increment), bank).values
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


def synthesize_discrete(coeffs: CoefficientField) -> SampledFunction:
    """Rebuild a function from anchor coefficients via cell-summed filters on their bank."""
    bank = coeffs.bank
    if set(coeffs.slots) != set(anchored_scales(bank)):
        raise ShapeMismatchError("coefficient slots do not match the bank's live anchored channels")
    out_hat = bank.bypass_hat * np.fft.fftn(coeffs.low_pass)
    for ch in bank.anchored:
        lattice = np.expand_dims(np.fft.fftn(coeffs.slots[(ch.j, ch.k)]), ch.alias_axes)
        out_hat.reshape(ch.fold_shape)[...] += _folded_filter(bank, ch) * _cell_transfer(lattice, ch)
    return SampledFunction(bank.grid, np.fft.ifftn(out_hat))
