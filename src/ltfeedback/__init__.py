"""Rateless XOR erasure codes with acknowledgment feedback.

The package bundles the codec (encoder and peeling decoder), degree
distributions and their receiver-side transforms, feedback policies,
layered unequal-error-protection variants, and an erasure-channel
simulation harness with distortion evaluation.
"""

__version__ = "0.1.0"

from .combinatorics import WalleniusParams, log_binomial, wallenius_pmf
from .degree import (
    DegreeDistribution,
    LayerConfig,
    RsdParams,
    adaptive_degree_dist,
    ideal_soliton,
    layered_redundancy,
    n_layer_reduced_dist,
    reduced_degree_dist,
    reduced_degree_dist_acked,
    redundancy_curve,
    redundancy_curve_acked,
    redundancy_prob_acked,
    robust_soliton,
    two_layer_reduced_dist,
)
from .codec import Decoder, Encoder, InputBlock, OutputSymbol, ReceiveResult
from .feedback import FeedbackPolicy, apply_feedback
from .simulator import (
    FULL_RATE,
    TransmissionTrace,
    TrialConfig,
    distortion_of_trace,
    experiment_deadline_distortion,
    experiment_single_layer_feedback,
    experiment_two_layer_ack,
    run_trial,
)

__all__ = [
    "__version__",
    "log_binomial",
    "WalleniusParams",
    "wallenius_pmf",
    "DegreeDistribution",
    "RsdParams",
    "LayerConfig",
    "ideal_soliton",
    "robust_soliton",
    "reduced_degree_dist",
    "redundancy_prob_acked",
    "reduced_degree_dist_acked",
    "adaptive_degree_dist",
    "two_layer_reduced_dist",
    "n_layer_reduced_dist",
    "redundancy_curve",
    "redundancy_curve_acked",
    "layered_redundancy",
    "InputBlock",
    "OutputSymbol",
    "Encoder",
    "Decoder",
    "ReceiveResult",
    "FeedbackPolicy",
    "apply_feedback",
    "TrialConfig",
    "TransmissionTrace",
    "run_trial",
    "FULL_RATE",
    "distortion_of_trace",
    "experiment_single_layer_feedback",
    "experiment_two_layer_ack",
    "experiment_deadline_distortion",
]
