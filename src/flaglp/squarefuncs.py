"""Continuous and discrete flag square functions and the sup/inf comparison."""

from dataclasses import dataclass

import numpy as np

from .blocks import block_expand, block_reduce, block_sizes
from .errors import DomainError, ShapeMismatchError
from .filters import FilterBank
from .grid import SampledFunction, lp_norm
from .transform import CoefficientField, analyze, anchored_scales, channel_energies


def g_flag(f: SampledFunction, bank: FilterBank) -> SampledFunction:
    """Pointwise l2 aggregate of all channel convolutions (low-pass excluded)."""
    total = np.zeros(f.grid.shape)
    for _, _, energy in channel_energies(f, bank, bank.scales):
        total += energy
    return SampledFunction(f.grid, np.sqrt(total))


def g_flag_discrete(coeffs: CoefficientField) -> SampledFunction:
    """Piecewise-constant square function built from anchor coefficients."""
    grid = coeffs.bank.grid
    total = np.zeros(grid.shape)
    for (j, k), slot in coeffs.slots.items():
        total += block_expand(np.abs(slot) ** 2, block_sizes(grid, j, k, coeffs.N))
    return SampledFunction(grid, np.sqrt(total))


def hardy_norm(f: SampledFunction, bank: FilterBank, p: float) -> float:
    """Discrete flag Hardy quasi-norm: L^p norm of the discrete square function."""
    if not (0 < p <= 1):
        raise DomainError(f"hardy_norm requires p in (0, 1], got {p}")
    return lp_norm(g_flag_discrete(analyze(f, bank)), p)


@dataclass(frozen=True)
class PPReport:
    """Sup- vs inf-sampled square function norms for two filter banks."""

    p: float
    sup_norm: float
    inf_norm: float
    ratio: float
    banks: tuple
    degenerate: bool = False

    def __post_init__(self):
        if self.ratio < 1.0 - 1e-12 and self.banks[0] == self.banks[1]:
            raise DomainError("sup/inf ratio below 1 for identical banks")


def _extreme_square_function(f: SampledFunction, bank: FilterBank, op) -> SampledFunction:
    grid = f.grid
    total = np.zeros(grid.shape)
    # same rectangle family as the anchor-sampled square function
    for j, k, energy in channel_energies(f, bank, anchored_scales(bank)):
        sizes = block_sizes(grid, j, k, bank.N)
        total += block_expand(block_reduce(energy, sizes, op), sizes)
    return SampledFunction(grid, np.sqrt(total))


def pp_compare(
    f: SampledFunction,
    bank_a: FilterBank,
    bank_b: FilterBank,
    p: float,
) -> PPReport:
    """L^p norm of the sup-sampled (bank A) vs inf-sampled (bank B) version.

    Sup and inf are taken over the grid samples inside each rectangle; a
    0/0 ratio is reported as 1 with the degenerate flag set.
    """
    # on one grid the offset fixes the scale window
    if bank_a.N != bank_b.N:
        raise ShapeMismatchError("banks have incompatible scale windows")
    if p <= 0:
        raise DomainError(f"exponent p must be positive, got {p}")

    sup_norm = lp_norm(_extreme_square_function(f, bank_a, np.max), p)
    inf_norm = lp_norm(_extreme_square_function(f, bank_b, np.min), p)
    degenerate = False
    if inf_norm == 0.0:
        if sup_norm == 0.0:
            ratio, degenerate = 1.0, True
        else:
            ratio = np.inf
    else:
        ratio = sup_norm / inf_norm
    return PPReport(
        p=p,
        sup_norm=sup_norm,
        inf_norm=inf_norm,
        ratio=ratio,
        banks=(bank_a.identifier(), bank_b.identifier()),
        degenerate=degenerate,
    )
