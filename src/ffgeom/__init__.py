"""Finite-field geometry lab: dot-product sets on paraboloids, isosceles
triangle counts one dimension down, character-sum Fourier tools, and the
extremal constructions that pin the thresholds."""

from .counting import (
    apex_set,
    count_M,
    counts_json,
    dot_histogram,
    inequality_chain,
    product_set,
    profile,
    scan_reduction_identity,
    triangle_bound_report,
)
from .constructions import (
    construct_even_0mod4,
    construct_even_2mod4,
    construct_odd_3mod4,
    isotropic_frame,
    isotropic_lines_set,
    mult_subgroup,
)
from .field import PrimeField, is_prime
from .fourier import (
    SpectralTable,
    SurfaceFunction,
    degenerate_pairs_fourier,
    extension_ratio,
    extension_ratio_stats,
    fourier_indicator,
    inverse_surface_transform,
    plancherel_error,
    spectral_apex_bound,
)
from .oracle import apex, reduction_equiv
from .varieties import (
    PointSet,
    bar_projection,
    enum_paraboloid,
    enum_sphere,
    on_paraboloid,
    random_paraboloid_subset,
    random_space_subset,
    random_subset,
    restrict_nonzero_base,
)

__version__ = "0.1.0"

__all__ = [
    "PointSet",
    "PrimeField",
    "SpectralTable",
    "SurfaceFunction",
    "apex",
    "apex_set",
    "bar_projection",
    "construct_even_0mod4",
    "construct_even_2mod4",
    "construct_odd_3mod4",
    "count_M",
    "counts_json",
    "degenerate_pairs_fourier",
    "dot_histogram",
    "enum_paraboloid",
    "enum_sphere",
    "extension_ratio",
    "extension_ratio_stats",
    "fourier_indicator",
    "inequality_chain",
    "inverse_surface_transform",
    "is_prime",
    "isotropic_frame",
    "isotropic_lines_set",
    "mult_subgroup",
    "on_paraboloid",
    "plancherel_error",
    "product_set",
    "profile",
    "random_paraboloid_subset",
    "random_space_subset",
    "random_subset",
    "reduction_equiv",
    "restrict_nonzero_base",
    "scan_reduction_identity",
    "spectral_apex_bound",
    "triangle_bound_report",
]
