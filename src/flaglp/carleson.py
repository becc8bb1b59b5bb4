"""Carleson-sum norms over dyadic rectangles and candidate open sets.

The supremum over all open sets is replaced by a maximum over a finite,
deterministically generated candidate family (DD-C1); every norm computed
here is therefore a certified lower bound for the true supremum, exact on
tiny grids where the family can be exhausted.
"""

from dataclasses import dataclass, field

import numpy as np

from .blocks import block_expand, block_reduce, block_sizes
from .errors import ConfigurationError, DomainError, ShapeMismatchError
from .filters import FilterBank
from .grid import DyadicRectangle, Grid, SampledFunction, lp_norm_array
from .transform import CoefficientField, channel_energies


@dataclass(frozen=True)
class OpenSetApprox:
    """A finite union of dyadic rectangles, canonicalized to a cell mask."""

    grid: Grid
    cell_mask: np.ndarray
    measure: float = field(init=False)

    def __post_init__(self):
        mask = np.asarray(self.cell_mask, dtype=bool)
        if mask.shape != self.grid.shape:
            raise ShapeMismatchError("cell mask shape does not match the grid")
        measure = float(mask.sum()) * self.grid.cell_volume
        if measure <= 0.0:
            raise ConfigurationError("open-set approximation must have positive measure")
        object.__setattr__(self, "cell_mask", mask)
        object.__setattr__(self, "measure", measure)

    @classmethod
    def from_rectangles(cls, grid: Grid, rects) -> "OpenSetApprox":
        mask = np.zeros(grid.shape, dtype=bool)
        for r in rects:
            mask[r.sample_slices(grid)] = True
        return cls(grid=grid, cell_mask=mask)


def sp_norm(s: CoefficientField, p: float) -> float:
    """L^p norm of the normalized piecewise-constant coefficient aggregate."""
    if p <= 0:
        raise DomainError(f"exponent p must be positive, got {p}")
    return lp_norm_array(np.sqrt(_density_field(s)), p, s.bank.grid.cell_volume)


def _carleson_max(weights: dict, p: float, candidates: list, bank: FilterBank) -> float:
    """Max over candidates of (|Omega|^(1-2/p) * sum of the weights inside Omega)^(1/2).

    weights maps (j, k) to one value per rectangle.  Dyadic blocks nest, so
    containment at every scale is reduced from one np.min pass over the
    cell mask at the finest per-axis block side.
    """
    grid = bank.grid
    sizes = {key: block_sizes(grid, *key, bank.N) for key in weights}
    finest = tuple(map(min, zip(*sizes.values()))) or (1,) * grid.ndim
    best = 0.0
    for omega in candidates:
        if omega.grid != grid:
            raise ShapeMismatchError("candidate lives on a different grid")
        fine = block_reduce(omega.cell_mask, finest, np.min)
        inside = {s: block_reduce(fine, [a // b for a, b in zip(s, finest)], np.min)
                  for s in set(sizes.values())}
        total = 0.0
        for key, w in weights.items():
            mask = inside[sizes[key]]
            if mask.any():
                total += float(np.sum(w[mask]))
        best = max(best, float(np.sqrt(omega.measure ** (1.0 - 2.0 / p) * total)))
    return best


def cp_norm(t: CoefficientField, p: float, candidates: list) -> float:
    """Max over candidates of (|Omega|^(1-2/p) * sum_{R in Omega} |t_R|^2)^(1/2)."""
    if not (0 < p <= 1):
        raise DomainError(f"cp_norm requires p in (0, 1], got {p}")
    if not candidates:
        raise ConfigurationError("cp_norm needs a nonempty candidate family")
    weights = {key: np.abs(slot) ** 2 for key, slot in t.slots.items()}
    return _carleson_max(weights, p, candidates, t.bank)


def cmo_norm(f: SampledFunction, bank: FilterBank, p: float, candidates: list) -> float:
    """Carleson-sum norm of a function over the candidate family.

    The per-rectangle contribution is the exact cell sum of the full-grid
    channel convolution over the rectangle, so no anchor sampling enters.
    """
    if not (0 < p <= 1):
        raise DomainError(f"cmo_norm requires p in (0, 1], got {p}")
    if not candidates:
        raise ConfigurationError("cmo_norm needs a nonempty candidate family")
    grid = bank.grid
    cell_sums = {
        (j, k): block_reduce(energy, block_sizes(grid, j, k, bank.N), np.sum) * grid.cell_volume
        for j, k, energy in channel_energies(f, bank, bank.scales)
    }
    return _carleson_max(cell_sums, p, candidates, bank)


def duality_pair(s: CoefficientField, t: CoefficientField):
    """<s, t> = sum over rectangles of s_R * conj(t_R)."""
    if set(s.slots) != set(t.slots):
        raise ShapeMismatchError("coefficient fields index different scale windows")
    total = 0.0 + 0.0j
    for key, slot in s.slots.items():
        other = t.slots[key]
        if slot.shape != other.shape:
            raise ShapeMismatchError(f"slot {key} shapes differ: {slot.shape} vs {other.shape}")
        total += np.sum(slot * np.conj(other))
    return complex(total)


def _density_field(t: CoefficientField) -> np.ndarray:
    """Pointwise sum of |t_R|^2 / |R| over rectangles containing the point."""
    grid = t.bank.grid
    total = np.zeros(grid.shape)
    for (j, k), slot in t.slots.items():
        w = _rect_from_slot_index(grid, j, k, t.N, 0, slot.shape).measure(grid.n, grid.m)
        total += block_expand(np.abs(slot) ** 2, block_sizes(grid, j, k, t.N)) / w
    return total


def _rect_from_slot_index(grid: Grid, j: int, k: int, N: int, flat_index: int, shape) -> DyadicRectangle:
    idx = np.unravel_index(flat_index, shape)
    return DyadicRectangle(j=j, k=k, N=N, i_idx=tuple(int(c) for c in idx[: grid.n]), j_idx=tuple(int(c) for c in idx[grid.n :]))


def generate_candidates(t: CoefficientField, budget: int) -> list:
    """Deterministic candidate family: greedy seed, density level sets,
    greedy unions of high-density rectangles, then single rectangles."""
    if budget < 1:
        raise ConfigurationError("candidate budget must be >= 1")
    grid = t.bank.grid

    # rank rectangles by coefficient density |t_R|^2 / |R|; only the top
    # few per slot can ever enter the family, so prefilter with argpartition
    keep = max(budget, 16)
    ranked = []
    for (j, k), slot in t.slots.items():
        w = _rect_from_slot_index(grid, j, k, t.N, 0, slot.shape).measure(grid.n, grid.m)
        dens = (np.abs(slot) ** 2 / w).ravel()
        top = np.argpartition(-dens, min(keep, dens.size) - 1)[: min(keep, dens.size)]
        for flat in top:
            ranked.append((-float(dens[flat]), j, k, int(flat), slot.shape))
    ranked.sort(key=lambda entry: (entry[0], entry[1], entry[2], entry[3]))

    candidates = []
    seen = set()

    def push(mask):
        if not mask.any() or len(candidates) >= budget:
            return
        key = mask.tobytes()
        if key in seen:
            return
        seen.add(key)
        candidates.append(OpenSetApprox(grid=grid, cell_mask=mask))

    # greedy seed: the single highest-density rectangle
    _, j0, k0, flat0, shape0 = ranked[0]
    seed = _rect_from_slot_index(grid, j0, k0, t.N, flat0, shape0)
    push(OpenSetApprox.from_rectangles(grid, [seed]).cell_mask)

    # level sets of the density field over a geometric ladder
    density = _density_field(t)
    peak = float(density.max())
    if peak > 0.0:
        for step in range(12):
            push(density > peak / 2.0 ** (step + 1))

    # greedy unions grown by density rank
    mask = np.zeros(grid.shape, dtype=bool)
    for negd, j, k, flat, shape in ranked[: max(budget, 16)]:
        if negd == 0.0:
            break
        r = _rect_from_slot_index(grid, j, k, t.N, flat, shape)
        mask = mask.copy()
        mask[r.sample_slices(grid)] = True
        push(mask)
        if len(candidates) >= budget:
            break

    # single rectangles in density order
    for negd, j, k, flat, shape in ranked:
        if len(candidates) >= budget:
            break
        r = _rect_from_slot_index(grid, j, k, t.N, flat, shape)
        push(OpenSetApprox.from_rectangles(grid, [r]).cell_mask)

    return candidates[:budget]
