"""Robust-training laboratory: posterior-stability penalties on small smooth
classifiers, with runnable verification of the mathematics they rely on."""

from .tensor import RandomSource, log_sum_exp, softmax
from .divergences import (
    GENERATOR_KINDS,
    GENERATORS,
    PROB_FLOOR,
    Generator,
    f_divergence,
    f_divergence_grad_wrt_phat,
    generator,
    kl_divergence,
    l1_distance,
    l2_distance,
    pinsker_gap,
)
from .model import (
    MlpModel,
    forward,
    init_mlp,
    input_jacobian,
    load_model,
    posterior,
    save_model,
)
from .regularizers import (
    PenaltyResult,
    PerturbationConfig,
    RegularizerSpec,
    jr_penalty,
    quadratic_penalty,
    rpt_penalty,
    vat_penalty,
)
from .spans import SpanModel, init_span_model, span_distributions, span_penalty
from .data import (
    Dataset,
    UNLABELED,
    apply_domain_shift,
    make_gaussian_mixture,
    make_spurious_pair,
    make_two_moons,
    read_csv,
    withhold_labels,
    write_csv,
)
from .trainer import TrainConfig, evaluate, init_model_for, train
from .properties import PropertyResult, run_suite

__version__ = "0.1.0"

__all__ = [
    "RandomSource", "log_sum_exp", "softmax",
    "GENERATOR_KINDS", "GENERATORS", "PROB_FLOOR", "Generator",
    "f_divergence", "f_divergence_grad_wrt_phat", "generator",
    "kl_divergence", "l1_distance", "l2_distance", "pinsker_gap",
    "MlpModel", "forward", "init_mlp", "input_jacobian", "load_model",
    "posterior", "save_model",
    "PenaltyResult", "PerturbationConfig", "RegularizerSpec",
    "jr_penalty", "quadratic_penalty", "rpt_penalty", "vat_penalty",
    "SpanModel", "init_span_model", "span_distributions", "span_penalty",
    "Dataset", "UNLABELED", "apply_domain_shift", "make_gaussian_mixture",
    "make_spurious_pair", "make_two_moons", "read_csv", "withhold_labels", "write_csv",
    "TrainConfig", "evaluate", "init_model_for", "train",
    "PropertyResult", "run_suite",
    "__version__",
]
