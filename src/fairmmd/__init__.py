"""Kernel two-sample statistics for group fairness.

The package measures how far a learned representation is from equalized
odds by comparing label-reweighted group mixtures with a maximum mean
discrepancy, and backs the number up three ways: closed forms on Gaussian
populations, finite-sample deviation certificates, and bound clauses that
relate the statistic to classifier-level fairness gaps.  A small gradient
trainer turns the squared statistic into a penalty.
"""

from .errors import (
    ConfigurationError,
    DomainError,
    EmptyCellError,
    FairmmdError,
    InapplicableError,
    NormalizationError,
    SizeError,
    StratificationError,
    TrainingError,
    UnsupportedError,
    ValidationError,
)
from .kernels import (
    KernelSpec,
    eval_kernel,
    gram,
    kernel_matmul,
    kernel_sum,
    laplacian,
    linear,
    lipschitz_constant,
    median_heuristic,
    pairwise,
    product,
    rbf,
)
from .synth import (
    CellGaussian,
    LabeledDataset,
    PopulationSpec,
    analytic_eok2_linear,
    analytic_mmd2_rbf_gaussians,
    population_from_dict,
    population_to_dict,
    read_csv,
    sample_population,
    write_csv,
)
from .mmd import (
    MmdEstimate,
    gamma_biased,
    mmd2_biased,
    mmd2_linear_time,
    mmd2_unbiased,
    witness_eval,
)
from .fairness import (
    Classifier,
    ball_classifier,
    balanced_accuracy,
    constant_classifier,
    dc,
    dnc,
    dodds,
    dopp,
    dp,
    dpc,
    dr,
    evaluate,
    external_scores_classifier,
    group_stats,
    logistic_head_classifier,
    random_ball_classifier,
    sup_dp,
    witness_classifier,
)
from .eok import (
    EokEstimate,
    empirical_weights,
    eok_gradient_plugin,
    eok_hat_bootstrap,
    eok_hat_plugin,
    reweight_sample,
)
from .bounds import (
    BoundReport,
    check_ba_bounds,
    check_biased_lower_bound,
    check_calibration_chain,
    check_tvd_dominance,
    check_unbiased_equality,
)
from .complexity import (
    ComplexityEstimate,
    ConcentrationReport,
    EncoderFamily,
    concentration_check,
    deviation_bound,
    finite_grid,
    fnn_apply,
    fnn_complexity_bound,
    fnn_family,
    gaussian_complexity_images,
    gaussian_complexity_mc,
    sample_fnn_grid,
    suggest_radius,
)
from .frl import (
    ObjectiveEval,
    SweepResult,
    TrainConfig,
    TrainResult,
    lambda_sweep,
    objective_gradient,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "FairmmdError", "ValidationError", "SizeError", "DomainError",
    "StratificationError", "EmptyCellError", "NormalizationError",
    "InapplicableError", "ConfigurationError", "UnsupportedError",
    "TrainingError",
    # kernels
    "KernelSpec", "rbf", "laplacian", "linear", "product", "kernel_sum",
    "pairwise", "kernel_matmul", "gram", "eval_kernel", "lipschitz_constant",
    "median_heuristic",
    # synthetic populations
    "CellGaussian", "PopulationSpec", "LabeledDataset", "sample_population",
    "analytic_eok2_linear", "analytic_mmd2_rbf_gaussians", "write_csv",
    "read_csv", "population_to_dict", "population_from_dict",
    # mmd estimators
    "MmdEstimate", "mmd2_unbiased", "mmd2_biased", "mmd2_linear_time",
    "witness_eval", "gamma_biased",
    # fairness metrics
    "Classifier", "witness_classifier", "ball_classifier",
    "random_ball_classifier", "constant_classifier",
    "logistic_head_classifier", "external_scores_classifier", "evaluate",
    "group_stats", "dp", "dopp", "dr", "dodds", "dpc", "dnc", "dc",
    "balanced_accuracy", "sup_dp",
    # equalized-odds statistic
    "EokEstimate", "empirical_weights", "reweight_sample",
    "eok_hat_bootstrap", "eok_hat_plugin", "eok_gradient_plugin",
    # bound clauses
    "BoundReport", "check_unbiased_equality", "check_biased_lower_bound",
    "check_ba_bounds", "check_calibration_chain", "check_tvd_dominance",
    # complexity and concentration
    "EncoderFamily", "finite_grid", "fnn_family", "ComplexityEstimate",
    "gaussian_complexity_mc", "gaussian_complexity_images",
    "sample_fnn_grid", "fnn_apply",
    "fnn_complexity_bound", "deviation_bound", "suggest_radius",
    "ConcentrationReport", "concentration_check",
    # training
    "TrainConfig", "ObjectiveEval", "TrainResult", "objective_gradient",
    "train", "SweepResult", "lambda_sweep",
]
