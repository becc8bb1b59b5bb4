"""Scale-indexed filter families on the two factors and their flag lifting.

Each factor carries a telescoping smooth partition of unity on the
frequency lattice (dyadic frequency annuli), so the Calderon condition

    sum_j |psi1_hat(2^-j xi)|^2 = 1   (away from the covered band edges)

holds to rounding error; the corresponding spatial filters have all
moments vanishing because their transforms vanish near the origin.

The flag family is the lifting psi_{j,k} whose transform is the pointwise
product of the first-factor transform at scale j with the second-factor
transform at scale k (the frequency-side identity of partial convolution
in the second variable).  Where the second-factor annulus at scale k lies
outside the first-factor support at scale j the product is identically
zero; a bank keeps only the channels whose lifted filter is not.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .blocks import block_sizes
from .errors import ConfigurationError, RangeError, ResolutionError
from .grid import Grid, SampledFunction

# construction name, recorded in bank identifiers and export manifests
_ANNULUS = "frequency-annulus"

# the default offset N: the smallest at which the Neumann inverse converges
# (||R|| = 2.10, 1.30, 0.74 at N = 1, 2, 3 and L = 8)
DEFAULT_OFFSET = 3


@dataclass(frozen=True)
class FilterProfile:
    """Shape parameters for the scale-0 filter."""

    inner_radius: float = 0.5
    outer_radius: float = 2.0
    smoothness: float = 1.0

    def __post_init__(self):
        if not (0 < self.inner_radius < self.outer_radius):
            raise ConfigurationError(
                f"need 0 < inner_radius < outer_radius, got {self.inner_radius}, {self.outer_radius}"
            )
        if self.smoothness <= 0:
            raise ConfigurationError("smoothness must be positive")


def smooth_cutoff(r: np.ndarray, profile: FilterProfile) -> np.ndarray:
    """Radial C^inf-style cutoff: 1 on [0, 2*inner], 0 on [outer, inf)."""
    lo = 2.0 * profile.inner_radius
    hi = profile.outer_radius
    r = np.asarray(r, dtype=float)
    t = np.clip((r - lo) / (hi - lo), 0.0, 1.0)
    out = np.empty_like(t)
    interior = (t > 0.0) & (t < 1.0)
    out[t <= 0.0] = 1.0
    out[t >= 1.0] = 0.0
    s = profile.smoothness
    ti = t[interior]
    a = np.exp(-s / (1.0 - ti))
    b = np.exp(-s / ti)
    out[interior] = a / (a + b)
    return out


@dataclass(frozen=True)
class AnchoredChannel:
    """Channel (j, k) folded onto its anchor lattice (see the transform module).

    fold_shape splits each axis of length M into (step, M // step), step
    being the anchor spacing, and alias_axes are the step axes; cell holds
    per axis the Dirichlet factor of a sum over one anchor cell.
    """

    j: int
    k: int
    fold_shape: tuple
    alias_axes: tuple
    cell: tuple


@dataclass(frozen=True)
class FilterBank:
    """Frequency-domain filter families for one grid and offset N.

    psi1_hat[j] is a real, nonnegative array over the full
    (n+m)-dimensional lattice; psi2_hat[k] is one over the m-dimensional
    sub-lattice.  low_pass1_hat / low_pass2_hat complete the per-factor
    partitions; low_pass_hat is the combined full-grid completion used by
    analysis.  scales lists the live (j, k) channels in (j, k) order:
    those whose lifted filter is not identically zero.  anchored,
    bypass_hat and t_hat, the transforms' operator plan, are built on
    first use (t_hat takes 16 MiB at L=10); alias_free says whether T is
    the multiplier t_hat.
    """

    grid: Grid
    profile: FilterProfile
    N: int
    psi1_hat: tuple
    psi2_hat: tuple
    low_pass1_hat: np.ndarray
    low_pass2_hat: np.ndarray
    low_pass_hat: np.ndarray
    scales: tuple

    @property
    def j_range(self) -> tuple:
        """Scale window (0, L - N - 1), shared by j and k; the top scale is capped."""
        return (0, self.grid.L - self.N - 1)

    @cached_property
    def anchored(self) -> tuple:
        """The live channels below the capped top scale, folded (AnchoredChannel)."""
        grid, M = self.grid, self.grid.samples_per_axis
        channels = []
        for j, k in self.scales:
            if j == self.j_range[1]:
                continue
            steps = block_sizes(grid, j, k, self.N)
            cell = tuple(
                np.fft.fft(np.arange(M) < s).reshape((1, 1) * ax + (s, M // s) + (1, 1) * (grid.ndim - ax - 1))
                for ax, s in enumerate(steps)
            )
            fold_shape = sum(((s, M // s) for s in steps), ())
            channels.append(AnchoredChannel(j, k, fold_shape, tuple(range(0, 2 * grid.ndim, 2)), cell))
        return tuple(channels)

    @cached_property
    def bypass_hat(self) -> np.ndarray:
        """Multiplier of the bypass channel: the low-pass and the capped top-scale channels."""
        power = self.low_pass_hat**2
        for j, k in self.scales:
            if j == self.j_range[1]:
                power = power + lift_flag_filter(self, j, k) ** 2
        return np.sqrt(np.maximum(power, 0.0))

    @property
    def alias_free(self) -> bool:
        """Certificate that T is the Fourier multiplier t_hat on this bank.

        Anchored psi_{j,k} is supported in |xi| < r 2^j, r being the
        profile's outer radius, and its anchor lattice repeats the spectrum
        with period 2^(j+N) (on the second factor: radius r 2^min(j,k),
        period 2^(min(j,k)+N)).  The copies are disjoint, so sampling
        mixes no two frequencies, iff 2 r 2^j <= 2^(j+N), that is iff
        r <= 2^(N-1); smooth_cutoff is exactly 0 from r outward, so the
        boundary case is alias-free too.
        """
        return self.profile.outer_radius <= 2.0 ** (self.N - 1)

    @cached_property
    def t_hat(self) -> np.ndarray:
        """Spectrum of T applied to a delta, by the folded channel loop.

        On an alias-free bank T is the multiplier t_hat and T* is
        conj(t_hat); elsewhere T couples each frequency to its aliases
        and is no multiplier.  It is complex128 over the full grid
        (256 KiB at L=7, 16 MiB at L=10) and is built on first use,
        never by build_filter_bank.
        """
        from .transform import folded_reconstruction_hat  # transform imports this module

        return folded_reconstruction_hat(np.ones(self.grid.shape, dtype=complex), self)

    def config(self) -> str:
        """key=value entries from which bank_from_config rebuilds this bank."""
        entries = dict(vars(self.profile), n_offset=self.N)
        return ",".join(f"{key}={value!r}" for key, value in entries.items())

    def identifier(self) -> str:
        p = self.profile
        return (
            f"{_ANNULUS}:r{p.inner_radius}-{p.outer_radius}:s{p.smoothness}"
            f":N{self.N}:j{self.j_range}:k{self.j_range}"
        )


def _scale_window(grid: Grid, N: int) -> int:
    j_max = grid.L - N - 1
    if j_max < 1:
        raise ResolutionError(
            f"grid L={grid.L} too coarse for offset N={N}: empty scale range"
        )
    return j_max


def _broadcast_second(grid: Grid, arr_m: np.ndarray) -> np.ndarray:
    """View an m-dimensional array over the full (n+m)-dimensional lattice."""
    shape = (1,) * grid.n + arr_m.shape
    return arr_m.reshape(shape)


def _annulus_family(r: np.ndarray, j_max: int, profile: FilterProfile) -> tuple:
    """Telescoping squared partition; returns ([psi_hat_j], low_pass_hat)."""
    chi = [smooth_cutoff(r * 2.0 ** (-j), profile) for j in range(-1, j_max)]
    # chi[t] = cutoff(2^-(t-1) r): chi[0] is the low-pass generator
    filters = []
    for j in range(j_max + 1):
        if j < j_max:
            sq = chi[j + 1] - chi[j]
        else:
            sq = 1.0 - chi[j]  # top channel capped so the lattice partition is exact
        filters.append(np.sqrt(np.clip(sq, 0.0, None)))
    low_pass = np.sqrt(np.clip(chi[0], 0.0, None))
    return filters, low_pass


def _partition_residual(filters, low_pass) -> float:
    """Max deviation from 1 of one factor's partition, low_pass^2 + sum of filter^2."""
    total = low_pass.astype(float) ** 2
    for h in filters:
        total = total + h.astype(float) ** 2
    return float(np.max(np.abs(total - 1.0)))


def _combined_low_pass(grid: Grid, lp1: np.ndarray, lp2: np.ndarray) -> np.ndarray:
    lp2f = _broadcast_second(grid, lp2)
    sq = lp1**2 + lp2f**2 - (lp1**2) * (lp2f**2)
    return np.sqrt(np.clip(sq, 0.0, 1.0))


def _live_scales(grid: Grid, psi1: list, psi2: list) -> tuple:
    """(j, k) pairs whose lifted filter psi1[j] * psi2[k] is not all zero.

    The filters are nonnegative and rounding is monotone, so the product
    has a nonzero entry over a second-factor frequency exactly when the
    maximum of psi1[j] over the first-factor axes times psi2[k] is
    nonzero there.  The test then runs on the m-dimensional lattice, and
    the zero set follows the actual supports (it depends on the radii).
    """
    first_axes = tuple(range(grid.n))
    live = []
    for j, h1 in enumerate(psi1):
        peak = h1.max(axis=first_axes)
        live += [(j, k) for k, h2 in enumerate(psi2) if np.any(peak * h2)]
    return tuple(live)


def build_filter_bank(grid: Grid, profile: FilterProfile = None, N: int = DEFAULT_OFFSET) -> FilterBank:
    """Bank with an exact frequency partition on the lattice."""
    if profile is None:
        profile = FilterProfile()
    if N < 1:
        raise ConfigurationError(f"offset N must be >= 1, got {N}")
    j_max = _scale_window(grid, N)

    r1 = grid.frequency_norm(tuple(range(grid.ndim)))
    psi1, lp1 = _annulus_family(r1, j_max, profile)

    k_ax = grid.axis_frequencies()
    mesh = np.meshgrid(*([k_ax] * grid.m), indexing="ij") if grid.m > 1 else [k_ax]
    r2 = np.sqrt(sum(g**2 for g in mesh))
    psi2, lp2 = _annulus_family(r2, j_max, profile)

    return FilterBank(
        grid=grid,
        profile=profile,
        N=N,
        psi1_hat=tuple(psi1),
        psi2_hat=tuple(psi2),
        low_pass1_hat=lp1,
        low_pass2_hat=lp2,
        low_pass_hat=_combined_low_pass(grid, lp1, lp2),
        scales=_live_scales(grid, psi1, psi2),
    )


def lift_flag_filter(bank: FilterBank, j: int, k: int) -> np.ndarray:
    """Transform of the lifted flag filter over the full lattice."""
    lo, hi = bank.j_range
    if not (lo <= j <= hi):
        raise RangeError(f"scale j={j} outside {bank.j_range}")
    if not (lo <= k <= hi):
        raise RangeError(f"scale k={k} outside {bank.j_range}")
    return bank.psi1_hat[j] * _broadcast_second(bank.grid, bank.psi2_hat[k])


# ---------------------------------------------------------------------------
# config parsing and export


# value type per key: n_offset is the bank's N, the rest are FilterProfile fields
_CONFIG_KEYS = {"inner_radius": float, "outer_radius": float, "smoothness": float, "n_offset": int}


def parse_bank_config(text: str) -> dict:
    """Parse key=value entries into typed bank construction parameters.

    Entries are separated by commas or newlines; '#' starts a comment
    that runs to the end of its line.
    """
    params = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        for entry in raw.split("#", 1)[0].split(","):
            entry = entry.strip()
            if not entry:
                continue
            if "=" not in entry:
                raise ConfigurationError(f"config line {lineno}: expected key=value, got {entry!r}")
            key, value = (s.strip() for s in entry.split("=", 1))
            key = key.lower()
            if key not in _CONFIG_KEYS:
                raise ConfigurationError(f"config line {lineno}: unknown key {key!r}")
            kind = _CONFIG_KEYS[key]
            try:
                params[key] = kind(value)
            except ValueError:
                raise ConfigurationError(
                    f"config line {lineno}: {key} needs a {kind.__name__}, got {value!r}"
                ) from None
    return params


def bank_from_config(grid: Grid, text: str, N: int = DEFAULT_OFFSET) -> FilterBank:
    """Bank from a key=value config; n_offset, when given, overrides N."""
    params = parse_bank_config(text)
    N = params.pop("n_offset", N)
    return build_filter_bank(grid, FilterProfile(**params), N=N)


def export_bank(bank: FilterBank, directory) -> dict:
    """Write every filter as a full-grid block plus a JSON manifest.

    Second-factor filters are broadcast over the first factor so that all
    blocks share the SampledFunction layout.  Returns the manifest dict.
    """
    import json
    import os

    from .blockio import write_block

    os.makedirs(directory, exist_ok=True)
    grid = bank.grid
    entries = []

    def _emit(name, factor, scale, arr_full):
        fname = f"{name}.blk"
        write_block(os.path.join(directory, fname), SampledFunction(grid, arr_full.astype(complex)))
        entries.append({"file": fname, "factor": factor, "scale": scale})

    for j, arr in enumerate(bank.psi1_hat):
        _emit(f"psi1_j{j}", 1, j, arr)
    for k, arr in enumerate(bank.psi2_hat):
        _emit(f"psi2_k{k}", 2, k, np.broadcast_to(_broadcast_second(grid, arr), grid.shape))
    _emit("low_pass", 0, -1, bank.low_pass_hat)

    manifest = {
        "n": grid.n,
        "m": grid.m,
        "L": grid.L,
        "N": bank.N,
        "mode": _ANNULUS,
        "j_range": list(bank.j_range),
        "k_range": list(bank.j_range),
        "calderon_residual1": _partition_residual(bank.psi1_hat, bank.low_pass1_hat),
        "calderon_residual2": _partition_residual(bank.psi2_hat, bank.low_pass2_hat),
        "filters": entries,
    }
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)
    return manifest
