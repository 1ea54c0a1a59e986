import pdrlab

PUBLIC_API = [
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


def test_public_api_is_pinned():
    # an export that goes, or a new one, is an API change: edit PUBLIC_API with it
    assert pdrlab.__all__ == PUBLIC_API


def test_every_public_name_resolves():
    missing = [name for name in pdrlab.__all__ if not hasattr(pdrlab, name)]
    assert missing == []
