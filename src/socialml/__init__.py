"""Decentralized classification over agent graphs.

Locally trained classifiers produce debiased logit statistics that are
diffused through a social-learning recursion during a streaming prediction
phase; the theory module turns the matching consistency guarantees into
executable formulas.
"""

from .graph import (
    CombinationMatrix,
    PerronVector,
    build_averaging_matrix,
    is_strongly_connected,
    perron_eigenvector,
)
from .mlp import (
    LabeledDataset,
    MLPArchitecture,
    MLPModel,
    TrainingHyperparameters,
    cross_entropy_risk,
    forward,
    gradient_check,
    logistic_risk,
    train_erm,
    train_stack,
)
from .social import (
    BeliefState,
    RegimeSchedule,
    asl_step,
    bayes_classifier,
    beliefs_from_lambda,
    check_consistency_conditions,
    decide,
    diffuse,
    run_prediction,
    sl_step,
)
from .stats import (
    ComplexityEstimate,
    ConditionalMeans,
    DebiasedStatistic,
    conditional_means,
    empirical_training_mean,
    make_debiased_statistic,
    mlp_rademacher_bound,
    rademacher_monte_carlo,
)
from .theory import (
    BoundInputs,
    TrainingProfile,
    approx_exponent,
    exact_exponent,
    network_complexity_bound,
    pc_lower_bound,
    sample_complexity,
    self_consistency_check,
)

__all__ = [
    "BeliefState",
    "BoundInputs",
    "CombinationMatrix",
    "ComplexityEstimate",
    "ConditionalMeans",
    "DebiasedStatistic",
    "LabeledDataset",
    "MLPArchitecture",
    "MLPModel",
    "PerronVector",
    "RegimeSchedule",
    "TrainingHyperparameters",
    "TrainingProfile",
    "approx_exponent",
    "asl_step",
    "bayes_classifier",
    "beliefs_from_lambda",
    "build_averaging_matrix",
    "check_consistency_conditions",
    "conditional_means",
    "cross_entropy_risk",
    "decide",
    "diffuse",
    "empirical_training_mean",
    "exact_exponent",
    "forward",
    "gradient_check",
    "is_strongly_connected",
    "logistic_risk",
    "make_debiased_statistic",
    "mlp_rademacher_bound",
    "network_complexity_bound",
    "pc_lower_bound",
    "perron_eigenvector",
    "rademacher_monte_carlo",
    "run_prediction",
    "sample_complexity",
    "self_consistency_check",
    "sl_step",
    "train_erm",
    "train_stack",
]
