"""Stopping-time Calderon-Zygmund decomposition on the flag Hardy scale.

A function is split as f = g + b by classifying every dyadic rectangle
against the level sets of the discrete square function of the inverted
transform: rectangles covering at least half their measure inside a level
set feed the bad part at that level, the rest feed the good part.  The
split is exact by construction since the coefficient classes partition.
"""

from dataclasses import dataclass

import numpy as np

from .blocks import block_reduce, block_sizes
from .errors import DomainError
from .filters import FilterBank
from .grid import SampledFunction, lp_norm
from .maximal import dilated_level_set
from .squarefuncs import g_flag_discrete, hardy_norm
from .transform import CoefficientField, analyze, neumann_inverse, synthesize_discrete


def hardy_type_norm(f: SampledFunction, bank: FilterBank, p: float) -> float:
    """Discrete Hardy norm for p <= 1, plain L^p norm for p > 1."""
    if p <= 0:
        raise DomainError(f"exponent p must be positive, got {p}")
    if p <= 1:
        return hardy_norm(f, bank, p)
    return lp_norm(f, p)


@dataclass(frozen=True)
class CZReport:
    alpha: float
    p: float
    p1: float
    p2: float
    g_norm: float
    b_norm: float
    f_norm: float
    fitted_c_g: float
    fitted_c_b: float
    level_set_measures: tuple
    iterations: int
    rect_classes: dict  # (j,k) -> integer array, 0 = good, l >= 1 = bad level
    level_masks: tuple  # boolean cell masks of the level sets

    def __post_init__(self):
        if self.g_norm < 0 or self.b_norm < 0:
            raise DomainError("norms must be nonnegative")
        meas = self.level_set_measures
        if any(meas[i] < meas[i + 1] - 1e-15 for i in range(len(meas) - 1)):
            raise DomainError("level set measures must be non-increasing")


def cz_decompose(
    f: SampledFunction,
    bank: FilterBank,
    alpha: float,
    p: float = 0.9,
    p1: float = 2.0,
    p2: float = 0.7,
    tol: float = 1e-10,
):
    """Split f = g + b at threshold alpha; returns (g, b, CZReport)."""
    if alpha <= 0:
        raise DomainError(f"threshold alpha must be positive, got {alpha}")
    if not (0 < p2 <= 1 and p2 < p < p1):
        raise DomainError(
            f"exponents must satisfy 0 < p2 <= 1 and p2 < p < p1, got p2={p2}, p={p}, p1={p1}"
        )
    grid = bank.grid

    inverted, iterations = neumann_inverse(f, bank, tol=tol)
    coeffs = analyze(inverted, bank)
    sf = g_flag_discrete(coeffs).values.real

    # level sets Omega_l = {S > alpha 2^l} until empty (DD-Z1)
    level_masks = []
    level = 0
    while True:
        mask = sf > alpha * 2.0**level
        if not mask.any():
            break
        level_masks.append(mask)
        level += 1

    # a rectangle's class is the number of level sets covering >= half of it
    rect_classes = {}
    for (j, k), slot in coeffs.slots.items():
        cls = np.zeros(slot.shape, dtype=int)
        for mask in level_masks:
            frac = block_reduce(mask.astype(float), block_sizes(grid, j, k, bank.N), np.mean)
            cls += (frac >= 0.5).astype(int)
        rect_classes[(j, k)] = cls

    good = CoefficientField(
        bank,
        {key: arr * (rect_classes[key] == 0) for key, arr in coeffs.slots.items()},
        coeffs.low_pass,
    )
    bad = CoefficientField(
        bank,
        {key: arr * (rect_classes[key] >= 1) for key, arr in coeffs.slots.items()},
        np.zeros_like(coeffs.low_pass),
    )

    g = synthesize_discrete(good)
    b = synthesize_discrete(bad)

    f_norm = hardy_type_norm(f, bank, p)
    g_norm = hardy_type_norm(g, bank, p1)
    b_norm = hardy_type_norm(b, bank, p2)
    # constants on the linear scale of the norm inequalities
    # ||g|| <= C alpha^(1-p/p1) ||f||^(p/p1), same shape for b
    denom = alpha ** (1.0 - p / p1) * f_norm ** (p / p1)
    fitted_c_g = g_norm / denom if denom > 0 else 0.0
    denom = alpha ** (1.0 - p / p2) * f_norm ** (p / p2)
    fitted_c_b = b_norm / denom if denom > 0 else 0.0

    report = CZReport(
        alpha=alpha,
        p=p,
        p1=p1,
        p2=p2,
        g_norm=g_norm,
        b_norm=b_norm,
        f_norm=f_norm,
        fitted_c_g=fitted_c_g,
        fitted_c_b=fitted_c_b,
        level_set_measures=tuple(float(m.sum()) * grid.cell_volume for m in level_masks),
        iterations=iterations,
        rect_classes=rect_classes,
        level_masks=tuple(level_masks),
    )
    return g, b, report


def support_violations(report: CZReport, bank: FilterBank) -> int:
    """Count bad rectangles not contained in the dilated previous level set.

    The dilation is {M_s(indicator of Omega_{l-1}) >= 1/2}, and its 1/2 is
    the one of cz_decompose's classification (frac >= 0.5).  Exactness of
    the stopping time predicts zero: a class-l rectangle covers at least
    half its measure inside Omega_{l-1}, so the strong maximal function of
    that indicator is >= 1/2 on the whole rectangle.
    """
    grid = bank.grid
    violations = 0
    for level, previous in enumerate(report.level_masks, start=1):
        members = {key: cls == level for key, cls in report.rect_classes.items()}
        members = {key: m for key, m in members.items() if m.any()}
        if not members:
            continue
        # the dilation depends only on the level: one strong maximal per level
        dilated = dilated_level_set(previous, grid)
        for (j, k), m in members.items():
            inside = block_reduce(dilated, block_sizes(grid, j, k, bank.N), np.min)
            violations += int(np.sum(m & ~inside))
    return violations


def interpolation_experiment(
    op,
    bank: FilterBank,
    p1: float,
    p2: float,
    p_grid: list,
    corpus: list,
) -> dict:
    """Measure ||T f||_p / ||f||_{hardy-type, p} across an exponent grid.

    op is a callable SampledFunction -> SampledFunction.  Reports the max
    ratio per exponent and whether intermediate exponents stay within a
    factor 10 of the endpoint envelope.
    """
    if not (p2 < min(p_grid) and max(p_grid) < p1):
        raise DomainError(
            f"need p2 < min(p_grid) and max(p_grid) < p1, got p2={p2}, p1={p1}, grid={p_grid}"
        )
    ratios = {}
    for p in list(p_grid) + [p1, p2]:
        worst = 0.0
        for f in corpus:
            denom = hardy_type_norm(f, bank, p)
            if denom == 0.0:
                continue
            tf = op(f)
            worst = max(worst, lp_norm(tf, p) / denom)
        ratios[p] = worst
    endpoint = max(ratios[p1], ratios[p2])
    intermediate = max(ratios[p] for p in p_grid) if p_grid else 0.0
    return {
        "p1": p1,
        "p2": p2,
        "ratios": {str(p): ratios[p] for p in sorted(ratios)},
        "endpoint_max": endpoint,
        "intermediate_max": intermediate,
        "no_blowup": intermediate <= 10.0 * endpoint or endpoint == 0.0,
    }
