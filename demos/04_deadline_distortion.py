"""Streaming with a deadline: what does the receiver's signal look like?

One second of a 1 Mbit/s, 480x320@30 source is coded into a k=100 block
and must be decoded within 2k transmission slots over an erasing channel.
Decoded layers buy reconstruction rate; the distortion of a unit-variance
source is 2^(-2r).  The sweep shows where layering pays off and where the
one-shot base-layer ack matters.
"""

from ltfeedback import FULL_RATE, experiment_deadline_distortion

K = 100
SECONDS = 40
ALPHA = 0.5
rates = (0.0, ALPHA * FULL_RATE, FULL_RATE)
print("reconstruction rates (bits/sample) and distortions per decoded layers:")
for z, r in enumerate(rates):
    print(f"  {z} layers: r = {r:.6f}, d = {2 ** (-2 * r):.4f}")

grid = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
print(f"\nmean distortion over {SECONDS} seconds per point, deadline {2 * K} sent:")
result = experiment_deadline_distortion(
    k=K, alpha=ALPHA, beta=9.0, ser_grid=grid, seconds=SECONDS, seed=20_240_603)

names = ["single_layer", "two_layer_no_ack", "two_layer_layer_ack"]
print("  erasure rate " + "".join(f"{n:>22s}" for n in names))
for gi, ser in enumerate(grid):
    cells = "".join(f"{result.mean_distortion[n][gi]:22.4f}" for n in names)
    print(f"  {ser:12.2f} " + cells)

print("\nreading the table: at low erasure rates the unacked layered code is")
print("stuck at base-only quality (refinement symbols drown in redundancy),")
print("which the single ack repairs; in the middle band both layered codes")
print("still deliver the base while the unlayered code misses its deadline;")
print("as the channel closes, everything degrades to distortion 1.")
