"""Numerics for eigenvalue collisions of matrix-valued fractional Gaussian paths.

Layout:
    fields       fractional Brownian covariances, exact sampler, circulant embedding
    ensembles    symmetric/Hermitian ensembles driven by scalar fields
    spectral     ordered spectra, gap statistics, contour projectors
    geometry     charts around matrices with a repeated eigenvalue
    capacity     Riesz kernels, energy integrals, box-counting dimension
    experiments  Monte Carlo studies tying the pieces together
    config       JSON experiment configs
    cli          batch entry point (``eigencollide`` console script)
"""

__version__ = "0.1.0"

from .capacity import (
    box_counting_dim,
    capacity_lower_bound,
    collision_regime,
    energy_integral,
    f_alpha,
    q_index,
)
from .config import ExperimentConfig, emit_config, parse_config
from .ensembles import (
    EnsemblePath,
    build_ensemble_path,
    matrix_to_vec,
    n_beta,
    rescale_self_similar,
    vec_to_matrix,
)
from .experiments import (
    estimate_collision_probability,
    gap_exponent_fit,
    phase_sweep,
    refinement_study,
    small_time_study,
    wilson_interval,
)
from .fields import (
    CovarianceModel,
    FieldSample,
    GridSpec,
    conditional_variance,
    fbm_covariance,
    fbm_model,
    interval,
    sample_field_exact,
    sheet_covariance,
    sheet_model,
    verify_regularity_bounds,
    volterra_kernel,
)
from .geometry import (
    chart_matrix,
    complete_frame,
    distance_to_degenerate_upper,
    lambda_matrix,
    phase_fix,
    random_stiefel,
    sample_degenerate,
)
from .spectral import (
    detect_collisions,
    eigenprojection_contour,
    gap_closed_form_2x2,
    min_gap,
    ordered_eigenvalues,
    spectrum_path,
)
from .streams import substream

__all__ = [
    "__version__",
    "CovarianceModel",
    "EnsemblePath",
    "ExperimentConfig",
    "FieldSample",
    "GridSpec",
    "box_counting_dim",
    "build_ensemble_path",
    "capacity_lower_bound",
    "chart_matrix",
    "collision_regime",
    "complete_frame",
    "conditional_variance",
    "detect_collisions",
    "distance_to_degenerate_upper",
    "eigenprojection_contour",
    "emit_config",
    "energy_integral",
    "estimate_collision_probability",
    "f_alpha",
    "fbm_covariance",
    "fbm_model",
    "gap_closed_form_2x2",
    "gap_exponent_fit",
    "interval",
    "lambda_matrix",
    "matrix_to_vec",
    "min_gap",
    "n_beta",
    "ordered_eigenvalues",
    "parse_config",
    "phase_fix",
    "phase_sweep",
    "q_index",
    "random_stiefel",
    "refinement_study",
    "rescale_self_similar",
    "sample_degenerate",
    "sample_field_exact",
    "sheet_covariance",
    "sheet_model",
    "small_time_study",
    "spectrum_path",
    "substream",
    "verify_regularity_bounds",
    "vec_to_matrix",
    "volterra_kernel",
    "wilson_interval",
]
