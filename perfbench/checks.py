"""Correctness checks for every benchmark operation.

Each check takes an operation's outputs and returns a list of problems; an
empty list means the outputs passed.  A check compares against a
computation made here with plain numpy, apart from the flaglp code path, or
against a property the method must have.  Nothing is compared against a
stored copy of earlier output.  All grids are two-dimensional, (n, m) = (1, 1).
"""

import numpy as np

FLAG_NORM_BOUND = 1.25 * np.pi**2

# closed forms of the benchmark's kernels, vectorized over coordinate arrays
CLOSED_FORMS = {
    "k2-flag": lambda x, y: 1.0 / (x * (x + 1j * y)),
    "k0": lambda x, y: -1j * y / (x * (x**2 + y**2)),
}


def _rel(a, b):
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0.0 else 0.0


def _energy(values):
    return float(np.sum(np.abs(values) ** 2))


def block_sides(M, j, k, N):
    """Samples per rectangle side (first factor, second factor) at (j, k, N)."""
    return M >> (j + N), M >> (min(j, k) + N)


def block_view(arr, b1, b2):
    M1, M2 = arr.shape
    return arr.reshape(M1 // b1, b1, M2 // b2, b2)


def channel_filter(bank, j, k):
    """psi1_hat[j] * psi2_hat[k] over the full frequency lattice."""
    return bank.psi1_hat[j] * bank.psi2_hat[k][None, :]


# -- czd ----------------------------------------------------------------------


def check_czd(f, outputs):
    g, b, report, violations = (outputs[key] for key in ("g", "b", "report", "violations"))
    problems = []
    residual = np.linalg.norm(g.values + b.values - f.values) / np.linalg.norm(f.values)
    if not residual <= 1e-8:
        problems.append(f"||g + b - f|| / ||f|| = {residual:.3e} > 1e-8")
    if violations != 0:
        problems.append(f"support_violations = {violations}, expected 0")
    measures = report.level_set_measures
    if any(later > earlier for earlier, later in zip(measures, measures[1:])):
        problems.append(f"level-set measures increase: {measures}")
    levels = len(report.level_masks)
    for key, classes in report.rect_classes.items():
        if classes.size and (classes.min() < 0 or classes.max() > levels):
            problems.append(f"channel {key}: classes outside [0, {levels}]")
    return problems


# -- companions ----------------------------------------------------------------


def check_partition(f, bank, g_flag_values):
    """||g_flag f||^2 + ||low-pass f||^2 = ||f||^2 (partition of unity)."""
    low = np.fft.ifft2(bank.low_pass_hat * np.fft.fft2(f.values))
    total = _energy(g_flag_values) + _energy(low)
    rel = _rel(total, _energy(f.values))
    return [] if rel <= 1e-9 else [f"partition of unity off by {rel:.3e} relative"]


def check_maximal_order(f, hl_values, sm_values):
    """|f| <= hl_maximal f <= strong_maximal f pointwise (nested families)."""
    a = np.abs(f.values)
    slack = 1e-12 * float(a.max())
    hl, sm = np.real(hl_values), np.real(sm_values)
    problems = []
    if np.any(hl < a - slack):
        problems.append(f"hl_maximal below |f| at {int(np.sum(hl < a - slack))} points")
    if np.any(sm < hl - slack):
        problems.append(f"strong_maximal below hl_maximal at {int(np.sum(sm < hl - slack))} points")
    return problems


def check_analyze_slots(f, bank, coeffs, keys):
    """Chosen slots equal a direct numpy convolution sampled at the anchors."""
    fhat = np.fft.fft2(f.values)
    M = f.grid.samples_per_axis
    problems = []
    for j, k in keys:
        conv = np.fft.ifft2(channel_filter(bank, j, k) * fhat)
        b1, b2 = block_sides(M, j, k, coeffs.N)
        direct = conv[::b1, ::b2]
        slot = coeffs.slots[(j, k)]
        scale = float(np.max(np.abs(direct)))
        err = float(np.max(np.abs(slot - direct))) if slot.shape == direct.shape else np.inf
        if not err <= 1e-12 * scale:
            problems.append(f"analyze slot {(j, k)} differs from direct convolution by {err:.3e} (scale {scale:.3e})")
    return problems


def containment(omega, sides):
    """{(b1, b2): boolean per-rectangle 'lies inside omega' array}.

    Built as an AND pyramid: halving the first axis, then for each needed
    first-axis size halving the second, so every block size costs one pass
    over an ever smaller array.
    """
    needed = set(sides)
    top1 = max(b1 for b1, _ in needed)
    out = {}
    rows, b1 = omega.cell_mask, 1
    while b1 <= top1:
        wanted = [b2 for s1, b2 in needed if s1 == b1]
        cols, b2 = rows, 1
        while wanted and b2 <= max(wanted):
            if b2 in wanted:
                out[(b1, b2)] = cols
            cols, b2 = cols[:, 0::2] & cols[:, 1::2], 2 * b2
        rows, b1 = rows[0::2] & rows[1::2], 2 * b1
    return out


def carleson_max(candidates, families, p):
    """{label: max over candidates of (|Omega|^(1-2/p) sum_{R in Omega} sums_R)^(1/2)}.

    families maps a label to {(j, k): ((b1, b2), per-rectangle values)}.
    The containment masks of one candidate at a time are held.
    """
    sides = {side for sums in families.values() for side, _ in sums.values()}
    best = dict.fromkeys(families, 0.0)
    for omega in candidates:
        inside = containment(omega, sides)
        for label, sums in families.items():
            total = sum(float(np.sum(values[inside[side]])) for side, values in sums.values())
            best[label] = max(best[label], float(np.sqrt(omega.measure ** (1.0 - 2.0 / p) * total)))
    return best


def check_candidates(candidates, budget):
    problems = []
    if not 1 <= len(candidates) <= budget:
        problems.append(f"{len(candidates)} candidates for budget {budget}")
    masks = {omega.cell_mask.tobytes() for omega in candidates}
    if len(masks) != len(candidates):
        problems.append("candidate family holds duplicate sets")
    if any(not omega.measure > 0.0 for omega in candidates):
        problems.append("candidate with zero measure")
    return problems


def check_companions(f, bank, outputs, slot_keys, p=1.0):
    """All companion outputs of one function against direct computations."""
    grid = f.grid
    M = grid.samples_per_axis
    h2 = grid.cell_volume
    coeffs, candidates = outputs["coeffs"], outputs["candidates"]
    problems = check_partition(f, bank, outputs["g_flag"])
    problems += check_maximal_order(f, outputs["hl_maximal"], outputs["strong_maximal"])
    problems += check_analyze_slots(f, bank, coeffs, slot_keys)
    problems += check_candidates(candidates, outputs["budget"])

    # discrete square function and s^p density from the coefficients
    square = np.zeros(grid.shape)
    density = np.zeros(grid.shape)
    slot_sums = {}
    for (j, k), slot in coeffs.slots.items():
        b1, b2 = block_sides(M, j, k, coeffs.N)
        energy = np.kron(np.abs(slot) ** 2, np.ones((b1, b2)))
        square += energy
        density += energy / (b1 * b2 * h2)
        slot_sums[(j, k)] = ((b1, b2), np.abs(slot) ** 2)
    hardy = float(np.sum(np.sqrt(square) ** p) * h2) ** (1.0 / p)
    sp = float(np.sum(np.sqrt(density) ** p) * h2) ** (1.0 / p)
    for label, got, want in (("hardy_norm", outputs["hardy_norm"], hardy),
                             ("sp_norm", outputs["sp_norm"], sp)):
        if not _rel(got, want) <= 1e-12:
            problems.append(f"{label} = {got!r}, direct {want!r}")

    # Carleson sums: coefficients (cp_norm) and exact cell integrals (cmo_norm)
    fhat = np.fft.fft2(f.values)
    cell_sums = {}
    for j, k in bank.scales:
        psi = channel_filter(bank, j, k)
        if not np.any(psi):
            continue
        b1, b2 = block_sides(M, j, k, bank.N)
        conv = np.abs(np.fft.ifft2(psi * fhat)) ** 2
        cell_sums[(j, k)] = ((b1, b2), block_view(conv, b1, b2).sum(axis=(1, 3)) * h2)
    best = carleson_max(candidates, {"cp_norm": slot_sums, "cmo_norm": cell_sums}, p)
    for label, want in best.items():
        got = outputs[label]
        if not _rel(got, want) <= 1e-12:
            problems.append(f"{label} = {got!r}, direct Carleson maximum {want!r}")
    return problems


# -- kernels ---------------------------------------------------------------------


def sample_closed_form(name, grid, eps):
    """eps-truncated closed form on the torus, weighted by the cell volume."""
    M = grid.samples_per_axis
    t = np.arange(M, dtype=np.float64)
    t[t >= M / 2] -= M
    t *= grid.spacing
    x, y = np.meshgrid(t, t, indexing="ij")
    keep = np.abs(x) > eps
    values = np.zeros(grid.shape, dtype=np.complex128)
    values[keep] = CLOSED_FORMS[name](x[keep], y[keep])
    return values * grid.cell_volume


def reference_norm(name, grid, eps):
    return float(np.max(np.abs(np.fft.fft2(sample_closed_form(name, grid, eps)))))


def check_operator_norm(name, grid, eps, norm):
    want = reference_norm(name, grid, eps)
    problems = []
    if not _rel(norm, want) <= 1e-12:
        problems.append(f"{name} norm at eps={eps}: {norm!r}, direct {want!r}")
    if name == "k0" and not norm <= FLAG_NORM_BOUND:
        problems.append(f"K0 norm {norm / np.pi**2:.4f} pi^2 exceeds 1.25 pi^2")
    if name == "k2-flag" and not norm > FLAG_NORM_BOUND:
        problems.append(f"k2-flag norm {norm / np.pi**2:.4f} pi^2 does not exceed 1.25 pi^2")
    return problems


def reference_convolution(name, f, eps):
    symbol = np.fft.fft2(sample_closed_form(name, f.grid, eps))
    return np.fft.ifft2(symbol * np.fft.fft2(f.values)), float(np.max(np.abs(symbol)))


def check_flag_convolve(name, f, eps, values):
    want, norm = reference_convolution(name, f, eps)
    problems = []
    err = np.linalg.norm(values - want) / np.linalg.norm(want)
    if not err <= 1e-12:
        problems.append(f"flag_convolve differs from direct convolution by {err:.3e} relative")
    bound = norm * np.linalg.norm(f.values)
    if not np.linalg.norm(values) <= bound * (1.0 + 1e-12):
        problems.append("||flag_convolve f|| exceeds norm * ||f||")
    return problems


def check_majorant(name, f, eps, report):
    """fitted_c is the largest level ratio and at least max|Kf| / max|f|.

    The strong maximal function never exceeds max|f|, so at the unsmoothed
    level every ratio is at least |Kf(x)| / max|f|.
    """
    want, _ = reference_convolution(name, f, eps)
    lower = float(np.max(np.abs(want)) / np.max(np.abs(f.values)))
    levels = report["per_level"]
    problems = []
    if report["fitted_c"] != max(levels.values()):
        problems.append("majorant fitted_c is not the largest level ratio")
    if not levels[(0, 0)] >= lower * (1.0 - 1e-12):
        problems.append(f"unsmoothed majorant ratio {levels[(0, 0)]!r} below max|Kf|/max|f| = {lower!r}")
    return problems


def check_validation(report, kernel_name, bound_type, must_pass):
    problems = []
    if report.get("kernel") != kernel_name or report.get("bound_type") != bound_type:
        problems.append(f"validation report names {report.get('kernel')!r}/{report.get('bound_type')!r}")
    if not np.isfinite(report.get("max_ratio", np.nan)):
        problems.append("validation max_ratio is not finite")
    if must_pass and report.get("passes") is not True:
        problems.append(f"{kernel_name} fails {bound_type} validation (max ratio {report.get('max_ratio')})")
    return problems
