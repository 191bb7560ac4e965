"""Moment-based fitting and exact sampling of stochastic Kronecker graphs."""

from .estimator import (
    FitFailure,
    FitResult,
    LeadingTermInfeasible,
    LeadingTransforms,
    ObjectiveSpec,
    compute_leading_transforms,
    evaluate_objective,
    fit_best,
    fit_direct,
    fit_grid,
    fit_leading,
)
from .features import (
    FeatureCounts,
    count_degree_features,
    count_features,
    count_triangles,
)
from .generator import (
    generate,
    generate_edges,
    generate_to_file,
)
from .graph_io import GraphParseError, SimpleGraph, choose_r, load_edge_list
from .moments import (
    DominanceExponent,
    ExpectedFeatures,
    KroneckerParams,
    dominance_exponent,
    expected_features,
)

__version__ = "0.1.0"

__all__ = [
    "DominanceExponent",
    "ExpectedFeatures",
    "FeatureCounts",
    "FitFailure",
    "FitResult",
    "GraphParseError",
    "KroneckerParams",
    "LeadingTermInfeasible",
    "LeadingTransforms",
    "ObjectiveSpec",
    "SimpleGraph",
    "choose_r",
    "compute_leading_transforms",
    "count_degree_features",
    "count_features",
    "count_triangles",
    "dominance_exponent",
    "evaluate_objective",
    "expected_features",
    "fit_best",
    "fit_direct",
    "fit_grid",
    "fit_leading",
    "generate",
    "generate_edges",
    "generate_to_file",
    "load_edge_list",
    "__version__",
]
