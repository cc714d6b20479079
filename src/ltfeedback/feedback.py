"""Acknowledgment policies and their effect on the encoder.

Three policies: none, ideal per-symbol acknowledgment (with the encoder
either rebuilding its stock distribution over the shrunken block or
switching to the zero-redundancy adaptive distribution), and whole-layer
acknowledgment for layered codes (a single feedback message per layer).
Feedback is ideal: cost-free, loss-free, and in effect before the next
encoded symbol.  `apply_feedback` changes nothing when the decoder state it
is given has not changed since the last call, so a caller may apply it
only after decode events.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .codec import DecoderSnapshot, Encoder
from .degree import adaptive_degree_dist

__all__ = ["FeedbackKind", "DistributionMode", "FeedbackPolicy", "apply_feedback"]


class FeedbackKind(Enum):
    NONE = "none"
    PER_SYMBOL_ACK = "per_symbol_ack"
    LAYER_ACK = "layer_ack"


class DistributionMode(Enum):
    ORIGINAL = "original"
    ADAPTIVE = "adaptive"


@dataclass(frozen=True)
class FeedbackPolicy:
    """What gets acknowledged and how the encoder reacts.

    `distribution_mode` matters only under PER_SYMBOL_ACK.  After a layer
    acknowledgment the encoder re-parameterizes its distribution to the
    remaining eligible count by default; set
    `reparameterize_after_layer_ack=False` to keep the current distribution
    (oversized degree draws are then clamped).
    """

    kind: FeedbackKind = FeedbackKind.NONE
    distribution_mode: DistributionMode = DistributionMode.ORIGINAL
    reparameterize_after_layer_ack: bool = True

    @classmethod
    def none(cls) -> "FeedbackPolicy":
        return cls(FeedbackKind.NONE)

    @classmethod
    def per_symbol_ack(cls, mode: DistributionMode = DistributionMode.ORIGINAL) -> "FeedbackPolicy":
        return cls(FeedbackKind.PER_SYMBOL_ACK, mode)

    @classmethod
    def layer_ack(cls, reparameterize: bool = True) -> "FeedbackPolicy":
        return cls(FeedbackKind.LAYER_ACK, reparameterize_after_layer_ack=reparameterize)


def apply_feedback(enc: Encoder, snapshot: DecoderSnapshot, policy: FeedbackPolicy) -> Encoder:
    """Update the encoder from the decoder state the feedback channel reports.

    Under PER_SYMBOL_ACK every decoded symbol leaves the eligible set and
    the distribution is rebuilt over what remains.  Under LAYER_ACK a layer
    is excluded wholesale the moment it completes, at most once per layer.
    Returns the (mutated) encoder.
    """
    if policy.kind is FeedbackKind.NONE:
        return enc

    if policy.kind is FeedbackKind.PER_SYMBOL_ACK:
        decoded = snapshot.decoded
        if len(decoded) == enc.acked_count:
            return enc  # decoded sets only grow, so equal size means no news
        enc.ack_indices(decoded)
        remaining = enc.eligible_count
        if remaining == 0:
            return enc
        if policy.distribution_mode is DistributionMode.ADAPTIVE:
            enc.distribution = adaptive_degree_dist(enc.base_distribution, remaining)
        else:
            if enc.dist_builder is None:
                raise ValueError("per-symbol ack in original mode needs a dist_builder")
            enc.distribution = enc.dist_builder(remaining)
        return enc

    # LAYER_ACK
    layers = enc.block.layers
    if layers is None:
        raise ValueError("layer acknowledgment requires a layered block")
    for li, complete in enumerate(snapshot.layers_complete):
        if not complete or li in enc.acked_layers:
            continue
        enc.ack_layer(li)
        remaining = enc.eligible_count
        if remaining and policy.reparameterize_after_layer_ack:
            if enc.dist_builder is None:
                raise ValueError("layer ack re-parameterization needs a dist_builder")
            enc.distribution = enc.dist_builder(remaining)
    return enc
