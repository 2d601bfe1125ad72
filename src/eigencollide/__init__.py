"""Numerics for eigenvalue collisions of matrix-valued fractional Gaussian paths.

Layout:
    fields       fractional Brownian covariances, circulant embedding, window anchor law
    ensembles    packing of symmetric/Hermitian matrices into real coefficients
    spectral     ordered spectra, adjacent gaps, closed-form 2x2 and 3x3 gaps, projectors
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
from .config import ExperimentConfig, parse_config
from .ensembles import matrix_to_vec, n_beta, vec_to_matrix
from .experiments import (
    gap_exponent_fit,
    phase_sweep,
    refinement_study,
    small_time_study,
)
from .fields import fbm_covariance, sheet_covariance, volterra_kernel
from .geometry import complete_frame, random_stiefel, sample_degenerate
from .spectral import (
    eigenprojection_contour,
    gap_closed_form_2x2,
    ordered_eigenvalues,
)
from .streams import substream

__all__ = [
    "__version__",
    "ExperimentConfig",
    "box_counting_dim",
    "capacity_lower_bound",
    "collision_regime",
    "complete_frame",
    "eigenprojection_contour",
    "energy_integral",
    "f_alpha",
    "fbm_covariance",
    "gap_closed_form_2x2",
    "gap_exponent_fit",
    "matrix_to_vec",
    "n_beta",
    "ordered_eigenvalues",
    "parse_config",
    "phase_sweep",
    "q_index",
    "random_stiefel",
    "refinement_study",
    "sample_degenerate",
    "sheet_covariance",
    "small_time_study",
    "substream",
    "vec_to_matrix",
    "volterra_kernel",
]
