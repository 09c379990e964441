"""Numerical laboratory for bilinear Bochner-Riesz means.

The package provides sampled fields on periodic grids, the bilinear means as
one frequency sum over in-ball lattice pairs (exact or radially binned) with
independent cross-checks (the closed-form kernel path, the separable path of
each dyadic piece, and a literal double loop in the tests), the dyadic
multiplier decomposition, kernel evaluation and decay measurement,
operator-norm estimation harnesses, and the boundedness region map in the
exponent square.
"""

__version__ = "0.1.0"

from .bessel import bessel_j, bessel_j_oracle, sphere_ft
from .decomposition import (
    BumpFunction,
    DyadicPiece,
    br_apply_separable,
    gamma_decay_check,
    make_bump,
    phi_j_alpha,
    t_j_apply,
)
from .grid import (
    ExponentPair,
    Grid,
    SampledField,
    dft_forward,
    dft_inverse,
    lp_norm,
    make_test_field,
    modulate,
)
from .kernel import (
    KernelPoint,
    dilation_check,
    envelope_fit,
    kernel_decay_fit,
    kernel_quadrature,
    kernel_radial,
    kj_kernel,
)
from .norms import (
    corollary_experiment,
    decay_fit,
    estimate_bilinear_norm,
    lemma1_scaling_experiment,
)
from .operators import (
    BandSpec,
    BudgetError,
    MultiplierSpec,
    band_operator,
    br_apply_kernel,
    br_apply_oracle,
    br_apply_radial,
    restriction,
)
from .regions import classify, region_grid_export, smoothness_index

__all__ = [
    "__version__",
    "bessel_j",
    "bessel_j_oracle",
    "sphere_ft",
    "BumpFunction",
    "DyadicPiece",
    "br_apply_separable",
    "gamma_decay_check",
    "make_bump",
    "phi_j_alpha",
    "t_j_apply",
    "ExponentPair",
    "Grid",
    "SampledField",
    "dft_forward",
    "dft_inverse",
    "lp_norm",
    "make_test_field",
    "modulate",
    "KernelPoint",
    "dilation_check",
    "envelope_fit",
    "kernel_decay_fit",
    "kernel_quadrature",
    "kernel_radial",
    "kj_kernel",
    "corollary_experiment",
    "decay_fit",
    "estimate_bilinear_norm",
    "lemma1_scaling_experiment",
    "BandSpec",
    "BudgetError",
    "MultiplierSpec",
    "band_operator",
    "br_apply_kernel",
    "br_apply_oracle",
    "br_apply_radial",
    "restriction",
    "classify",
    "region_grid_export",
    "smoothness_index",
]
