"""Acknowledgment policies and their effect on the encoder.

Four policies: none; ideal per-symbol acknowledgment, with the encoder
either rebuilding its stock distribution over the shrunken block or
switching to the zero-redundancy adaptive distribution; and whole-layer
acknowledgment for layered codes (a single feedback message per layer).
Feedback is ideal: cost-free, loss-free, and in effect before the next
encoded symbol.  `apply_feedback` changes nothing when the decoder it is
given has not changed since the last call, so a caller may apply it only
after decode events.
"""

from __future__ import annotations

from enum import Enum

from .codec import Decoder, Encoder
from .degree import adaptive_degree_dist

__all__ = ["FeedbackPolicy", "apply_feedback"]


class FeedbackPolicy(Enum):
    """What gets acknowledged and how the encoder reacts.

    ACK_ORIGINAL and ACK_ADAPTIVE acknowledge every decoded symbol; the
    encoder rebuilds its stock distribution over the remaining block, or
    switches to the adaptive distribution.  LAYER_ACK acknowledges each
    layer once, when it completes, and the encoder rebuilds its stock
    distribution over the remaining block.
    """

    NONE = "none"
    ACK_ORIGINAL = "ack_original"
    ACK_ADAPTIVE = "ack_adaptive"
    LAYER_ACK = "layer_ack"


def apply_feedback(enc: Encoder, dec: Decoder, policy: FeedbackPolicy) -> Encoder:
    """Update the encoder from what the decoder reports over the feedback
    channel: the indices in `dec.decoded`, and `dec.layers_complete`.

    Under a per-symbol ack every decoded symbol leaves the eligible set and
    the distribution is rebuilt over what remains.  Under LAYER_ACK a layer
    is excluded wholesale the moment it completes, at most once per layer.
    Returns the (mutated) encoder.
    """
    if policy is FeedbackPolicy.NONE:
        return enc

    if policy is FeedbackPolicy.LAYER_ACK:
        for li, complete in enumerate(dec.layers_complete):
            if complete and li not in enc.acked_layers:
                enc.ack_layer(li)
                _rebuild(enc)
        return enc

    decoded = dec.decoded
    if len(decoded) == enc.acked_count:
        return enc  # decoded sets only grow, so equal size means no news
    enc.ack_indices(decoded)
    if policy is FeedbackPolicy.ACK_ORIGINAL:
        _rebuild(enc)
    elif enc.eligible_count:
        enc.distribution = adaptive_degree_dist(enc.base_distribution, enc.eligible_count)
    return enc


def _rebuild(enc: Encoder):
    """The stock distribution over the eligible symbols, if any remain."""
    remaining = enc.eligible_count
    if remaining:
        if enc.dist_builder is None:
            raise ValueError("rebuilding the distribution needs a dist_builder")
        enc.distribution = enc.dist_builder(remaining)
