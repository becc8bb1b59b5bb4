"""Discrete two-parameter Littlewood-Paley analysis on the torus."""

__version__ = "0.1.0"

from .errors import (
    ConfigurationError,
    ConvergenceError,
    DivergenceError,
    DomainError,
    FlagLPError,
    IntegrationError,
    KernelError,
    RangeError,
    ResolutionError,
    ShapeMismatchError,
    TruncationError,
)
from .grid import (
    DyadicRectangle,
    Grid,
    SampledFunction,
    enumerate_rectangles,
    lp_norm,
    make_grid,
    rectangle_counts,
)
from .filters import (
    FilterBank,
    FilterProfile,
    bank_from_config,
    build_filter_bank,
    export_bank,
    lift_flag_filter,
)
from .transform import (
    CoefficientField,
    analyze,
    band_projector,
    estimate_remainder_norm,
    neumann_inverse,
    reconstruction_apply,
    remainder_apply,
    synthesize_continuous,
    synthesize_discrete,
)
from .squarefuncs import g_flag, g_flag_discrete, hardy_norm, pp_compare
from .maximal import dilated_level_set, fs_vector_check, hl_maximal, strong_maximal
from .carleson import (
    OpenSetApprox,
    cmo_norm,
    cp_norm,
    duality_pair,
    generate_candidates,
    sp_norm,
)
from .czd import cz_decompose, interpolation_experiment, support_violations
from .kernels import (
    KernelSpec,
    builtin_kernel,
    convolution_operator_norm,
    custom_kernel,
    flag_convolve,
    majorant_check,
    project_to_flag,
    validate_flag_kernel,
    validate_product_kernel,
)
from .corpus import gen_corpus
from .blockio import read_block, write_block, write_csv
